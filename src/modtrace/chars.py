"""Dimension characters: skeletal stand-ins for pivotal structures.

A pivotal structure assigns a nonzero complex quantum dimension to every
simple class, multiplicatively over the ring product and with
``d(a*) = conj(d(a))``.  This module validates such characters, enumerates
them for commutative rings, and computes conjugation, sphericality and the
two global invariants ``dim(C) = sum |d|^2`` and ``C = sum d^2``.

A character passing these checks is a *pivotal candidate*: the necessary
dimension-level data of a pivotal structure.  Whether it lifts to a coherent
categorical structure is not decided here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .common import (
    DEFAULT_TOL,
    NumericError,
    StructuralError,
    UnsupportedError,
    ValidationReport,
    Violation,
    close,
    collect_violations,
)
from .fusion import FusionRing, fp_dimensions, fusion_matrices

#: Seeds tried for the weighted eigenproblem before giving up.
ENUMERATION_RETRIES = 8
#: Distance below which :func:`snap_components` clamps a component to 0 or +-1.
SNAP_TOL = 1e-13


@dataclass(frozen=True, eq=False)
class DimChar:
    """A complex dimension vector on the simples of a fusion ring."""

    ring: FusionRing
    d: np.ndarray

    def __post_init__(self):
        try:
            d = np.array(self.d, dtype=complex)  # a private copy: dim(C) and C are memoised from it
        except (TypeError, ValueError) as exc:
            raise StructuralError(f"character entries are not complex numbers: {exc}") from None
        if d.shape != (self.ring.rank,):
            raise StructuralError(
                f"character has length {d.shape}, ring has rank {self.ring.rank}"
            )
        d.flags.writeable = False
        object.__setattr__(self, "d", d)


def _axiom_checks(ring: FusionRing, rows: np.ndarray, tol: float):
    """Yield ``(axiom, mask, lhs, rhs, prefix)`` on the rows of an ``(m, n)`` array, row first.

    In reporting order: unit, multiplicativity one first index ``a`` at a time
    (O(mn) memory, not O(mn^2)), nonzero, duality; the tolerance is floored at
    :data:`DEFAULT_TOL`.  A true ``mask`` entry fails at index ``prefix + position``.
    """
    tol = max(tol, DEFAULT_TOL)
    m, n = rows.shape
    unit = np.zeros((m, n), dtype=bool)
    unit[:, ring.unit] = ~close(rows[:, ring.unit], 1.0, tol)
    yield "unit", unit, rows, np.broadcast_to(1.0, (m, n)), ()
    for a in range(n):
        outer, prod = rows[:, a, None] * rows, rows @ ring.N[a].T  # [row, b]
        yield "multiplicativity", ~close(outer, prod, tol), outer, prod, (a,)
    yield "nonzero", close(rows, 0.0, tol), rows, np.broadcast_to("nonzero", (m, n)), ()
    dual, conj = rows[:, ring.dual], rows.conj()
    yield "duality", ~close(dual, conj, tol), dual, conj, ()


def validate_dim_char(char: DimChar, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Check unit normalisation, multiplicativity, nonzero entries and duality.

    ``tol`` is floored at :data:`DEFAULT_TOL`: computed or decimal entries are
    rounded, so an exact check would reject every irrational character.
    """
    viols: list[Violation] = []
    for axiom, mask, lhs, rhs, prefix in _axiom_checks(char.ring, char.d[None], tol):
        collect_violations(mask[0], axiom, lhs[0], rhs[0], viols, prefix)
    return ValidationReport(tuple(viols))


def _passing(ring: FusionRing, rows: np.ndarray, tol: float) -> np.ndarray:
    """Which rows pass :func:`validate_dim_char`: the :func:`_axiom_checks` masks ORed per row."""
    return ~np.any([mask.any(axis=1) for _, mask, *_ in _axiom_checks(ring, rows, tol)], axis=0)


def snap_components(values: np.ndarray) -> np.ndarray:
    """Clamp real/imaginary parts to 0 or +-1 when within :data:`SNAP_TOL`.

    Character entries are algebraic numbers; components this close to the
    clamp targets are those values up to roundoff, so clamping only removes
    eigensolver and transcendental-function dust.
    """
    out = np.array(values, dtype=complex, order="C")
    parts = out.view(float)  # re, im of each entry in turn
    for target in (0.0, 1.0, -1.0):
        parts[np.abs(parts - target) < SNAP_TOL] = target
    return out


def _sort_keys(rows: np.ndarray) -> list[tuple]:
    """Per row of a 2-d complex array, the re and im of each entry in turn, rounded to 9 decimals.

    Flat tuples made from lists: short-lived pair tuples would stay on the free lists.
    """
    parts = np.ascontiguousarray(rows).view(float)
    return [tuple([round(x, 9) for x in row]) for row in parts.tolist()]


def _characters(ring: FusionRing, rows, keys: list[tuple] | None = None) -> list[DimChar]:
    """The rows of a 2-d array as characters, in descending order of their :func:`_sort_keys`
    (passed in when already made), which puts the Frobenius-Perron character first.
    """
    rows = np.asarray(rows, dtype=complex)
    keys = _sort_keys(rows) if keys is None else keys
    order = sorted(range(len(keys)), key=keys.__getitem__, reverse=True)
    return [DimChar(ring, rows[i]) for i in order]


def enumerate_characters(ring: FusionRing, tol: float = DEFAULT_TOL) -> list[DimChar]:
    """All pivotal candidates of a commutative fusion ring.

    The fusion matrices ``N_a`` commute and are normal (``N_{a*} = N_a.T``),
    so they share one orthonormal eigenbasis, and the ring characters are
    read off it.  With complex Gaussian weights ``w`` (from the seeded stdlib
    ``random.Random``, which unlike ``numpy.random`` loads no OpenSSL), ``A = sum_a w_a N_a``
    gives the hermitian ``H = A + A^dagger``, whose eigenvalue on the common
    eigenvector of a character ``chi`` is ``2 Re(sum_a w_a chi(a))``; one
    ``eigh`` of ``H`` finds that basis.  If two sorted eigenvalues of ``H``
    lie closer than ``1e-8 * max(1, max|lambda|)`` the weights are redrawn
    with the next seed, up to :data:`ENUMERATION_RETRIES` seeds, as are
    weights under which two eigenvectors give the same sort key.  Every
    character is then the Rayleigh quotient ``chi_m(a) = v_m^dagger N_a v_m``;
    because ``N_a`` is normal its error is quadratic in the eigenvector's
    error, so no refinement step follows.  All quotients come from one
    ``(n^2, n) @ (n, n)`` product and one contraction, O(n^4) in total.

    Candidates failing :func:`validate_dim_char` (zero entries, duality), checked all at
    once by :func:`_passing`, are dropped; :func:`_characters` sorts the rest.
    """
    if not ring.is_commutative():
        raise UnsupportedError("character enumeration requires a commutative ring")
    n = ring.rank
    # stack[a] = N_a, complex once so the products below cast nothing
    stack = fusion_matrices(ring).astype(complex, order="C")

    for seed in range(ENUMERATION_RETRIES):
        rng = random.Random(seed)
        weights = np.array([rng.gauss(0.0, 1.0) for _ in range(2 * n)]).view(complex)
        a = np.tensordot(weights, stack, 1)
        vals, vecs = np.linalg.eigh(a + a.conj().T)
        if n > 1 and np.diff(vals).min() < 1e-8 * max(1.0, float(np.abs(vals).max())):
            continue  # collided eigenvalues; retry with a new weight vector

        moved = (stack.reshape(n * n, n) @ vecs).reshape(n, n, n)  # [a, c, m] = (N_a v_m)[c]
        chars = snap_components(np.einsum("cm,acm->ma", vecs.conj(), moved))
        keys = _sort_keys(chars)
        if len(set(keys)) != n:
            continue  # two eigenvectors gave the same character

        keep = _passing(ring, chars, tol)
        return _characters(ring, chars[keep], list(compress(keys, keep)))

    raise NumericError(
        f"degenerate eigenproblem after {ENUMERATION_RETRIES} reseeding attempts"
    )


def conjugate_char(char: DimChar) -> DimChar:
    """The conjugate pivotal candidate, with every dimension complex conjugated.

    This is an involution, and a character is a fixed point exactly when it
    is spherical.
    """
    return DimChar(char.ring, np.conj(char.d))


def is_spherical(char: DimChar) -> bool:
    """True iff ``d(a) = d(a*)`` for every simple, i.e. all dimensions real."""
    d = char.d
    return bool(np.all(close(d, d[char.ring.dual])))


def global_dimension(char: DimChar) -> float:
    """``dim(C) = sum_a |d(a)|^2``; strictly positive.  Computed once per character."""
    dim_c = char.__dict__.get("_dim_c")
    if dim_c is None:
        dim_c = char.__dict__["_dim_c"] = float(np.sum(np.abs(char.d) ** 2))
    return dim_c


def c_invariant(char: DimChar) -> complex:
    """``C = sum_a d(a)^2``; equals ``dim(C)`` for spherical characters, else 0.

    Computed once per character.
    """
    c = char.__dict__.get("_c")
    if c is None:
        c = char.__dict__["_c"] = complex(np.sum(char.d**2))
    return c


def fp_character(ring: FusionRing) -> DimChar:
    """The Frobenius-Perron dimensions packaged as a (real, spherical) character."""
    return DimChar(ring, fp_dimensions(ring).astype(complex))
