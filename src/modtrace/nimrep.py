"""Module categories at multiplicity level: NIM-reps of a fusion ring.

A NIM-rep assigns to every ring simple ``u`` a non-negative integer matrix
``M_u`` with ``(M_u)[j][i]`` the multiplicity of the module simple ``m_j`` in
``u`` acting on ``m_i`` (rows index the target, columns the source, so
composition reads ``M_u @ M_v = sum_w N[u][v][w] M_w`` without transposes).
Associativity constraint data of the underlying module category is assumed
realisable and never represented; everything downstream depends only on these
multiplicities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .common import (
    StructuralError,
    ValidationReport,
    Violation,
    collect_violations,
    readonly_setstate,
    require_float_exact,
)
from .fusion import FusionRing, _composes, _int_array, fusion_matrices, pointed_table


@dataclass(frozen=True, eq=False)
class NimRep:
    """Multiplicity matrices of a module category over a fusion ring."""

    ring: FusionRing
    module_rank: int
    M: np.ndarray

    def __post_init__(self):
        k = int(_int_array(self.module_rank, "module_rank", ()))
        if k < 1:
            raise StructuralError("module_rank must be a positive integer")
        object.__setattr__(self, "module_rank", k)
        m = _int_array(self.M, "M", (self.ring.rank, k, k))
        if m.min() < 0:
            raise StructuralError("multiplicities must be non-negative")
        m.flags.writeable = False
        object.__setattr__(self, "M", m)

    __setstate__ = readonly_setstate

    def action_sum(self) -> np.ndarray:
        """``sum_u M_u``; symmetric for valid reps."""
        return self.M.sum(axis=0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, NimRep):
            return NotImplemented
        return self.ring == other.ring and np.array_equal(self.M, other.M)

    def __repr__(self) -> str:
        return f"NimRep(module_rank={self.module_rank}, ring={self.ring!r})"


def validate_nimrep(rep: NimRep) -> ValidationReport:
    """Check the unit, composition, duality and action axioms exhaustively.

    A rep of a ring with a :func:`~modtrace.fusion.pointed_table` ``mul`` passes at once, in
    O(nk(n + k)) time and ``2 * _composes_bytes(n, k)`` bytes, when every ``M_u`` is a permutation
    matrix and the permutations compose along ``mul`` (``fusion._composes``): a group acting by
    permutations satisfies every axiom.  Any other rep gets the dense check, which compares
    composition one ``u`` at a time with float64 matrix products, exact because every sum is at
    most ``max(k * max(M)^2, n * max(N) * max(M))``; a rep where that reaches ``2^53`` is refused
    with :class:`StructuralError`.  On a valid rep the dense check peaks near
    ``4 * 8 * n * k^2 + 8 * n^2`` bytes: ``M`` in float64 and the two ``(n, k, k)`` products of
    one ``u``, the last ``u``'s held while the next are formed; within ``5 * 8 * n^3`` bytes on
    a regular module, the bound of the dense ring check.
    """
    M, mul = rep.M, pointed_table(rep.ring)
    if mul is not None and (M.sum(axis=1) == 1).all() and (M.sum(axis=2) == 1).all():
        if _composes(mul, np.arange(rep.module_rank) @ M):  # [u, i]: the image of simple i under u
            return ValidationReport(())
    return _dense_report(rep)


def _dense_report(rep: NimRep) -> ValidationReport:
    """The dense check of :func:`validate_nimrep`: every axiom, entry by entry."""
    ring, M, k = rep.ring, rep.M, rep.module_rank
    n = ring.rank
    top_m, top_n = int(M.max()), int(ring.N.max())
    require_float_exact(max(k * top_m * top_m, n * top_n * top_m), "multiplicities")
    viols: list[Violation] = []

    eye = np.eye(k, dtype=np.int64)
    collect_violations(M[ring.unit] != eye, "unit", M[ring.unit], eye, viols)

    # M_u M_v = sum_w N[u][v][w] M_w, indexed (v, j, i) for each u
    Mf = M.astype(np.float64)
    for u in range(n):
        lhs = Mf[u] @ Mf
        rhs = (ring.N[u].astype(np.float64) @ Mf.reshape(n, k * k)).reshape(n, k, k)
        mask = lhs != rhs
        if mask.any():
            collect_violations(
                mask, "composition", lhs.astype(np.int64), rhs.astype(np.int64), viols, (u,)
            )
    del Mf, lhs, rhs, mask  # none is held through the duality check

    dual_M, transposed = M[ring.dual], M.transpose(0, 2, 1)
    collect_violations(dual_M != transposed, "duality", dual_M, transposed, viols)

    column_weight = rep.action_sum().sum(axis=0)
    collect_violations(
        column_weight == 0, "action", column_weight, np.full(k, "positive column sum"), viols
    )

    return ValidationReport(tuple(viols))


def regular_module(ring: FusionRing) -> NimRep:
    """The ring acting on itself: ``M_u = N_u``."""
    M = fusion_matrices(ring).copy()
    M.flags.writeable = False  # handed over without a copy
    return NimRep(ring, ring.rank, M)


def direct_sum(rep1: NimRep, rep2: NimRep) -> NimRep:
    """Block-diagonal sum of two NIM-reps over the same ring."""
    if rep1.ring != rep2.ring:
        raise StructuralError("direct sum requires reps over the same ring")
    n = rep1.ring.rank
    k1, k2 = rep1.module_rank, rep2.module_rank
    M = np.zeros((n, k1 + k2, k1 + k2), dtype=np.int64)
    M[:, :k1, :k1] = rep1.M
    M[:, k1:, k1:] = rep2.M
    M.flags.writeable = False  # handed over without a copy
    return NimRep(rep1.ring, k1 + k2, M)


def is_indecomposable(rep: NimRep) -> bool:
    """True iff the action graph on module simples is connected.

    ``sum_u M_u`` is symmetric by duality, so strong connectivity reduces to
    connectivity; decided once per rep by breadth-first frontier expansion
    from simple 0 over the (symmetrised) nonzero pattern.
    """
    connected = rep.__dict__.get("_indecomposable")
    if connected is None:
        adj = rep.action_sum() > 0
        adj |= adj.T
        seen = np.zeros(rep.module_rank, dtype=bool)
        seen[0] = True
        frontier = seen.copy()
        while frontier.any():
            frontier = adj[frontier].any(axis=0) & ~seen
            seen |= frontier
        connected = rep.__dict__["_indecomposable"] = bool(seen.all())
    return connected
