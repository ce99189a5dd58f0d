"""Module-trace existence as a dimension-matrix eigenvalue problem.

The dimension matrix of a NIM-rep under a dimension character is ``Q[i][j] = sum_u d(u)
(M_u)[i][j]``, the quantum dimension of the inner hom from ``m_j`` to ``m_i``.  It is hermitian
with ``Q @ Q = dim(C) Q``, so ``Q / dim(C)`` is an orthogonal projection and ``rank Q = tr(Q) /
dim(C)``.  A module trace exists precisely when ``Q`` has rank 1 with no zero entry; on a rank-1
``Q = d d^dagger`` an entry ``Q[i][j]`` is zero exactly when ``Q[i][i]`` or ``Q[j][j]`` is, so
the verdict reads ``diag Q``, one O(nk) product, and ``tr Q`` as its real sum; ``Q`` is stacked
from O(nk) column products when read, their last bits as the BLAS kernel sums them.  The trace
vector, one column of ``Q``, is the nowhere-zero eigenvector for ``dim(C)``, normalised by
``sum |d_M|^2 = dim(C)`` with a real-positive anchor at the largest diagonal entry; it is a left
eigenvector for ``C = sum_a d(a)^2``, which is ``dim(C)`` for spherical characters and else 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import ClassVar

import numpy as np

from .common import DEFAULT_TOL, StructuralError, complex_pair, negligible, readonly_setstate
from .chars import DimChar, c_invariant, global_dimension
from .fusion import FusionRing
from .nimrep import NimRep


def dimension_matrix(char: DimChar, rep: NimRep) -> np.ndarray:
    """The read-only ``Q = sum_u d(u) M_u``, a new array stacked from the columns of
    :func:`_column`: the certificate's ``diagonal`` and ``column(j)`` by construction."""
    if char.ring is not rep.ring and char.ring != rep.ring:
        raise StructuralError("ring references of character and module disagree")
    diagonal = _diagonal_product(char, rep)
    q = np.stack([_column(char, rep, j, diagonal) for j in range(len(diagonal))], axis=1)
    q.setflags(write=False)
    return q


def _diagonal_product(char: DimChar, rep: NimRep) -> np.ndarray:
    """``diag Q = d @ diag(M_u)``, over a read-only complex ``(n, k)`` copy kept with the module."""
    diagonals = rep.__dict__.get("_diagonals")
    return char.d.dot(_diagonals(rep) if diagonals is None else diagonals)


def _diagonals(rep: NimRep) -> np.ndarray:
    """Make and keep the module's read-only complex ``(n, k)`` copy of ``diag(M_u)``."""
    diagonals = rep.__dict__["_diagonals"] = rep.M.diagonal(0, 1, 2).astype(complex)
    diagonals.flags.writeable = False
    return diagonals


def _column(char: DimChar, rep: NimRep, j: int, diagonal: np.ndarray) -> np.ndarray:
    """``Q[:, j] = d @ M[:, :, j]``, a new array whose entry ``j`` is taken from ``diagonal``."""
    column = char.d.dot(rep.M[:, :, j])
    column[j] = diagonal[j]
    return column


def _rank(trace: float, dim_c: float) -> int:
    """``round(tr(Q) / dim(C))`` as 0, 1 or 2 (2 also for more, and NaN), at margin ``dim(C)/2``."""
    return 2 if not trace < 1.5 * dim_c else 1 if 0.5 * dim_c < trace else 0


_COMPLEX = np.dtype(complex)
_new = object.__new__  # a record without type.__call__; its fields come from the record's fill


@dataclass(frozen=True, eq=False, init=False)
class ModuleTrace:
    """Trace dimensions of the module simples, ``sum |d|^2 = dim(C)``, real and positive at
    ``anchor``, the largest diagonal entry of ``Q``.  A read-only complex ``d`` is kept as given
    (the solver hands over the column it has just computed); anything else is copied into one."""

    d: np.ndarray
    anchor: int

    def __init__(self, d, anchor: int):
        if not (type(d) is np.ndarray and d.dtype is _COMPLEX and not d.flags.writeable):
            d = np.array(d, dtype=complex)
            d.setflags(write=False)
        _fill_trace(self, d, anchor)

    __setstate__ = readonly_setstate


def _fill_trace(trace: ModuleTrace, d: np.ndarray, anchor: int) -> ModuleTrace:
    """Set the fields of a new :class:`ModuleTrace` from a read-only complex ``d``; the one fill
    of its constructor and of the solve, which skips the check on the column it has made."""
    fields = trace.__dict__  # item stores: cheaper than a dict update
    fields["d"] = d
    fields["anchor"] = anchor
    return trace


@dataclass(frozen=True, eq=False, init=False)
class TraceCertificate:
    """Outcome of the module-trace existence test for one (char, rep) pair.

    ``diagonal`` (``diag Q``), ``scale``, ``Q``, ``min_entry``, ``max_minor``, ``diagnostics``
    and ``residuals`` are derived from the fields on first read and kept in ``__dict__``
    (the solve stores those it has computed), so a ``dataclasses.replace`` copy derives its own;
    ``dim_c``, ``c`` and :attr:`spherical_by_c` are read on each access.  ``diagonal``, ``scale``
    and :meth:`column` cost O(nk); the others form ``Q``, and :meth:`to_dict` peaks within
    ``8 * 16 * (n*k + k^2)`` bytes.
    """

    matched: bool = field(init=False)  #: ``trace is not None``
    char: DimChar
    rep: NimRep
    trace: ModuleTrace | None
    tol: float  #: the tolerance of the verdict; not emitted by :meth:`to_dict`

    def __init__(self, char, rep, trace, tol):
        _fill_certificate(self, char, rep, trace, tol)

    __setstate__ = readonly_setstate

    dim_c = property(lambda self: global_dimension(self.char), doc="``dim(C)`` of the character.")
    c = property(lambda self: c_invariant(self.char), doc="``C`` of the character.")

    @cached_property
    def diagonal(self) -> np.ndarray:
        """``diag Q``, read-only; the diagonal of :attr:`Q` and of every :meth:`column`."""
        diagonal = _diagonal_product(self.char, self.rep)
        diagonal.flags.writeable = False
        return diagonal

    def column(self, j: int) -> np.ndarray:
        """``Q[:, j]``, a new array at O(nk), its entry ``j`` from :attr:`diagonal`."""
        return _column(self.char, self.rep, j, self.diagonal)

    @cached_property
    def Q(self) -> np.ndarray:
        """The read-only dimension matrix, formed by :func:`dimension_matrix` on first read."""
        return dimension_matrix(self.char, self.rep)

    @cached_property
    def scale(self) -> float:
        """The largest ``|Q[i][i]|``, the scale of every verdict on ``Q``; ``max|Q|`` for valid input."""
        mag = np.abs(self.diagonal)
        return mag.item(mag.argmax())

    @cached_property
    def min_entry(self) -> float:
        """Smallest entry of ``|Q|``."""
        mag = np.abs(self.Q)
        return mag.item(mag.argmin())

    @cached_property
    def max_minor(self) -> float:
        """Largest 2x2 minor through the pivot at the largest entry of ``|Q|``."""
        # Rank <= 1 iff every 2x2 minor through the largest entry (r, s) vanishes:
        # Q[r][s] != 0 then forces Q = Q[:, s] Q[r, :] / Q[r][s]
        m = self.Q
        top = int(np.abs(m).argmax())
        r, s = divmod(top, m.shape[1])
        minors = m.item(top) * m
        minors -= m[:, s, None] * m[r]
        minors = np.abs(minors)
        return minors.item(minors.argmax())

    @cached_property
    def diagnostics(self) -> tuple[str, ...]:
        """Every test that fails, in this order: the rank, a zero entry, a zero diagonal (or rank 0)."""
        real, scale, tol = self.diagonal.real, self.scale, self.tol
        rank = _rank(real.sum(), self.dim_c)
        diagnostics = ("rank exceeds 1",) if rank == 2 else ()
        if negligible(self.min_entry, scale, tol):
            diagnostics += ("zero entry in Q",)
        if rank == 0 or negligible(real.item(real.argmax()), scale, tol):
            diagnostics += ("zero diagonal",)
        return diagnostics

    @property
    def spherical_by_c(self) -> bool:
        """``C = dim(C)``, by :func:`~modtrace.common.negligible` at scale ``dim(C)``."""
        return negligible(abs(self.c - self.dim_c), self.dim_c, self.tol)

    @cached_property
    def residuals(self) -> dict:
        """Check residuals by name.

        ``hermitian`` is ``max|Q - Q^dagger|`` and ``q_square`` is
        ``max|Q^2 - dim(C) Q|``; a matched certificate adds ``right_eigen``
        (``max|Q d - dim(C) d|``), ``left_eigen`` (``max|Q^T d - C d|``) and
        ``reconstruction`` (``max|Q - d d^dagger|``) of its trace vector ``d``.
        """
        m, dim_c = self.Q, self.dim_c
        residuals = {
            "hermitian": float(np.abs(m - m.conj().T).max()),
            "q_square": float(np.abs(m @ m - dim_c * m).max()),
            "max_minor": self.max_minor,
            "min_entry": self.min_entry,
        }
        if self.trace is not None:
            d = self.trace.d
            residuals["right_eigen"] = float(np.abs(m @ d - dim_c * d).max())
            residuals["left_eigen"] = float(np.abs(m.T @ d - self.c * d).max())
            residuals["reconstruction"] = float(np.abs(m - d[:, None] * d.conj()[None, :]).max())
        return residuals

    def to_dict(self) -> dict:
        out = {
            "matched": self.matched,
            "dimC": self.dim_c,
            "C": complex_pair(self.c),
            "spherical_by_C": self.spherical_by_c,
        }
        if self.trace is not None:
            out["d"] = [complex_pair(z) for z in self.trace.d]
            out["anchor"] = self.trace.anchor
        out["residuals"] = dict(self.residuals)
        out["diagnostics"] = list(self.diagnostics)
        return out


def _fill_certificate(cert: TraceCertificate, char, rep, trace, tol) -> TraceCertificate:
    """Set the five fields of a new :class:`TraceCertificate`, ``matched`` from ``trace``; the one
    fill of its constructor and of the solve."""
    fields = cert.__dict__  # item stores, not the frozen dataclass's setattr per field
    fields["matched"] = trace is not None
    fields["char"] = char
    fields["rep"] = rep
    fields["trace"] = trace
    fields["tol"] = tol
    return cert


def solve_module_trace(
    ring: FusionRing, char: DimChar, rep: NimRep, tol: float = DEFAULT_TOL
) -> TraceCertificate:
    """Decide module-trace existence and extract the trace dimension vector.

    One decision forms ``diag Q = d @ diag(M_u)``, one O(nk) product, and past ``Q[0][0]``
    ``|diag Q|``, its ``scale`` (the largest entry) and ``tr Q`` as the real sum; past the rank
    test it forms one more product, the anchor column ``Q[:, p]`` at the largest diagonal entry
    ``p``, and no other entry of ``Q``.  By the rule of :func:`~modtrace.common.negligible`,
    decided as ``x <= tol * max(1, scale)`` against one bound computed once, in this order, it
    is unmatched when

    - ``|Q[0][0]|`` is negligible at scale 0, that is at most ``tol``: it returns at once;
    - the smallest ``|Q[i][i]|`` is negligible at ``scale``;
    - the integer rank ``round(tr(Q) / dim(C))`` is not 1, which needs no tolerance;
    - an entry of the anchor column is negligible at ``scale``: implied by the diagonal in
      exact arithmetic, it keeps ``tol = 0`` from taking dust on a zero diagonal for nonzero.

    That is the rank-1-with-no-zero-entry test where ``Q^2 = dim(C) Q``, for a character of the
    ring and a NIM-rep of it as the CLI validates them (``q_square`` shows a violation).  A match
    hands ``d_M = Q[:, p] / sqrt(Q[p][p])``, divided in place, to :class:`ModuleTrace` without a
    copy or a check, and keeps ``diagonal``, ``scale`` and its empty ``diagnostics``.
    """
    if rep.ring is not ring and rep.ring != ring or char.ring is not ring and char.ring != ring:
        raise StructuralError("ring references of character and module disagree")
    diagonals = rep.__dict__.get("_diagonals")
    diagonal = char.d.dot(_diagonals(rep) if diagonals is None else diagonals)
    if abs(diagonal.item(0)) <= tol:  # negligible at scale 0; False for a NaN
        # min_entry <= |Q[0][0]| <= tol <= tol * max(1, scale): a zero entry
        return _fill_certificate(_new(TraceCertificate), char, rep, None, tol)
    diagonal.setflags(write=False)  # cheaper than through .flags
    mag = np.abs(diagonal)
    scale = mag.item(mag.argmax())
    floor = tol * max(1.0, scale)  # negligible(x, scale, tol) is x <= floor; max(1.0, NaN) is 1.0
    trace = None
    if not mag.item(mag.argmin()) <= floor:
        real = diagonal.real
        dim_c = char.__dict__.get("_dim_c")
        # real.sum() without its Python-level wrapper: the same reduction, bit for bit
        if _rank(np.add.reduce(real), global_dimension(char) if dim_c is None else dim_c) == 1:
            p = int(real.argmax())
            column = _column(char, rep, p, diagonal)
            mag = np.abs(column)
            if not mag.item(mag.argmin()) <= floor:
                column /= math.sqrt(real.item(p))
                column.setflags(write=False)
                trace = _fill_trace(_new(ModuleTrace), column, p)
    cert = _fill_certificate(_new(TraceCertificate), char, rep, trace, tol)
    found = cert.__dict__
    found["diagonal"] = diagonal
    found["scale"] = scale
    if trace is not None:
        found["diagnostics"] = ()
    return cert


@dataclass(frozen=True, eq=False)
class MatchedReport:
    """Per-module certificates plus the aggregate flexibility flag, set when all are matched."""

    certificates: tuple[TraceCertificate, ...]
    flexible: bool = field(init=False)
    note: ClassVar[str] = "flexible relative to the supplied module list only"

    def __post_init__(self):
        object.__setattr__(self, "flexible", all(c.matched for c in self.certificates))

    def to_dict(self) -> dict:
        return {
            "flexible": self.flexible,
            "note": self.note,
            "certificates": [c.to_dict() for c in self.certificates],
        }


def matched_report(char: DimChar, reps: list[NimRep], tol: float = DEFAULT_TOL) -> MatchedReport:
    """Run the trace test over a list of modules; flexible = all matched."""
    if not reps:
        raise StructuralError("matched_report requires at least one module")
    return MatchedReport(tuple(solve_module_trace(char.ring, char, rep, tol) for rep in reps))
