"""Module-trace existence as a dimension-matrix eigenvalue problem.

The dimension matrix of a NIM-rep under a dimension character is
``Q[i][j] = sum_u d(u) (M_u)[i][j]``, the quantum dimension of the inner-hom
object from ``m_j`` to ``m_i``.  It is hermitian and satisfies
``Q @ Q = dim(C) Q``, so its eigenvalues are 0 and ``dim(C)``.

A module trace exists precisely when ``Q`` has rank 1 with no zero entry; the
trace dimension vector is then the essentially unique nowhere-zero eigenvector
with eigenvalue ``dim(C)``, fixed here by the normalisation
``sum |d_M|^2 = dim(C)`` and a real-positive anchor at the largest diagonal
entry.  The same vector is a left eigenvector with eigenvalue
``C = sum_a d(a)^2``, which detects sphericality: ``C = dim(C)`` for spherical
characters and ``C = 0`` otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np

from .common import (
    DEFAULT_TOL,
    NumericError,
    StructuralError,
    UnsupportedError,
    complex_pair,
    negligible,
    readonly_setstate,
)
from .chars import DimChar, c_invariant, global_dimension
from .fusion import FusionRing, fp_dimensions, perron_vector
from .nimrep import NimRep, is_indecomposable


def _q_layout(rep: NimRep) -> np.ndarray:
    """``rep.M`` as a read-only complex ``(n, k*k)`` array; built once per rep."""
    layout = rep.__dict__.get("_q_layout")
    if layout is None:
        k = rep.module_rank
        layout = rep.M.reshape(rep.ring.rank, k * k).astype(complex)
        layout.flags.writeable = False
        rep.__dict__["_q_layout"] = layout
    return layout


def dimension_matrix(char: DimChar, rep: NimRep) -> np.ndarray:
    """Assemble the read-only ``Q = sum_u d(u) M_u`` of a character and a module.

    ``Q`` is one matrix-vector product ``d @ L`` over ``L``, the module's
    multiplicities as a complex ``(n, k*k)`` array.  ``L`` is built on the
    first call for a module and kept with it for as long as it lives: one
    complex copy of ``M``, ``16 n k^2`` bytes.  Each call returns a new array.
    """
    if char.ring is not rep.ring and char.ring != rep.ring:
        raise StructuralError("ring references of character and module disagree")
    k = rep.module_rank
    q = char.d.dot(_q_layout(rep)).reshape(k, k)
    q.setflags(write=False)
    return q


_COMPLEX = np.dtype(complex)


@dataclass(frozen=True, eq=False, init=False)
class ModuleTrace:
    """Trace dimensions of the module simples, ``sum |d|^2 = dim(C)``.

    The phase is fixed by making the entry at ``anchor`` (the largest diagonal
    entry of ``Q``) real and positive.  ``d`` is always a read-only complex
    array: a read-only complex array is kept as given (the solver hands over
    the column it has just computed), and anything else is copied into one.
    """

    d: np.ndarray
    anchor: int

    def __init__(self, d, anchor: int):
        if not (type(d) is np.ndarray and d.dtype is _COMPLEX and not d.flags.writeable):
            d = np.array(d, dtype=complex)
            d.setflags(write=False)
        self.__dict__.update({"d": d, "anchor": anchor})

    __setstate__ = readonly_setstate


@dataclass(frozen=True, eq=False, init=False)
class TraceCertificate:
    """Outcome of the module-trace existence test for one (char, rep) pair.

    The six fields are the values the verdict read.  ``scale``, ``min_entry``,
    ``max_minor``, ``diagnostics`` and ``residuals`` are derived from them on
    first read and kept in ``__dict__`` (the solve stores those it has
    computed), and :attr:`spherical_by_c` is computed on each read.  So a copy
    made by ``dataclasses.replace`` derives them from its own fields.  The
    first three share one ``|Q|``, formed on the first read of any of them.
    """

    matched: bool
    Q: np.ndarray  #: the read-only dimension matrix
    trace: ModuleTrace | None
    dim_c: float
    c: complex
    tol: float  #: the tolerance of the verdict; not emitted by :meth:`to_dict`

    def __init__(self, matched, Q, trace, dim_c, c, tol):
        # one dict update instead of the frozen dataclass's setattr per field
        self.__dict__.update({
            "matched": matched, "Q": Q, "trace": trace, "dim_c": dim_c, "c": c, "tol": tol,
        })

    __setstate__ = readonly_setstate

    @cached_property
    def _extremes(self) -> tuple[int, float, float]:
        """``(argmax|Q|, max|Q|, min|Q|)`` from one ``|Q|``, read as the solve reads them."""
        mag = np.abs(self.Q)
        top = int(mag.argmax())
        return top, mag.item(top), mag.item(mag.argmin())

    @cached_property
    def scale(self) -> float:
        """``max|Q|``, the scale of every verdict on ``Q``."""
        return self._extremes[1]

    @cached_property
    def min_entry(self) -> float:
        """Smallest entry of ``|Q|``."""
        return self._extremes[2]

    @cached_property
    def max_minor(self) -> float:
        """Largest 2x2 minor through the pivot at the largest entry of ``|Q|``."""
        return _max_minor(self.Q, self._extremes[0])

    @cached_property
    def diagnostics(self) -> tuple[str, ...]:
        """Every test that fails, in this order: the rank, a zero entry, a zero diagonal."""
        m, scale, tol = self.Q, self.scale, self.tol
        diagnostics = () if negligible(self.max_minor, scale * scale, tol) else ("rank exceeds 1",)
        if negligible(self.min_entry, scale, tol):
            diagnostics += ("zero entry in Q",)
        diagonal = m.real.diagonal()
        if negligible(diagonal.item(diagonal.argmax()), scale, tol):
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


def _max_minor(m: np.ndarray, top: int) -> float:
    """The largest 2x2 minor of ``Q`` through the pivot ``top = argmax|Q|``."""
    # Rank <= 1 iff every 2x2 minor through the largest entry (r, s) vanishes:
    # Q[r][s] != 0 then forces Q = Q[:, s] Q[r, :] / Q[r][s].  Extremes are read
    # at their arg-index: cheaper than a reduction on small arrays, and equal to it.
    r, s = divmod(top, m.shape[1])
    minors = m.item(top) * m
    minors -= m[:, s, None] * m[r]
    minors = np.abs(minors)
    return minors.item(minors.argmax())


def solve_module_trace(
    ring: FusionRing, char: DimChar, rep: NimRep, tol: float = DEFAULT_TOL
) -> TraceCertificate:
    """Decide module-trace existence and extract the trace dimension vector.

    ``matched`` is true iff ``Q`` has rank at most 1 and every entry of ``Q``
    is nonzero, by :func:`~modtrace.common.negligible` at scale ``max|Q|``
    (``max|Q|**2`` for the minors, which are quadratic in ``Q``).  Zero
    entries are tested first, and a zero entry decides the verdict.
    ``Q[0][0] = dim <m_0, m_0>`` is read before anything else: when
    ``|Q[0][0]| <= tol`` the smallest entry is negligible at any scale, so the
    solve returns before it forms ``|Q|``; otherwise it tests the smallest
    entry of ``|Q|``.  When no entry is zero the O(k^2) rank test runs here:
    with the pivot ``(r, s)`` at the largest entry of ``|Q|``, ``max_minor``
    is the largest 2x2 minor through the pivot,
    ``max_ab |Q[r][s] Q[a][b] - Q[a][s] Q[r][b]|``, which vanishes exactly
    when the rank is at most 1 (it is 0 for ``Q = 0``).  For the positive
    semidefinite ``Q`` of valid inputs the pivot is the anchor below.

    When matched, the vector is recovered from the anchor column:
    ``d_M[i] = Q[i][p] / sqrt(Q[p][p])`` at the largest diagonal entry ``p``,
    giving ``sum |d_M|^2 = trace(Q) = dim(C)`` and ``d_M[p] > 0``.  The
    solver makes that freshly computed column read-only and hands it to
    :class:`ModuleTrace` as is, without a copy.  The certificate keeps the
    ``scale``, ``min_entry`` and ``max_minor`` computed here, and the empty
    ``diagnostics`` of a match; everything else it explains is derived from
    its fields on first read.
    """
    if rep.ring is not ring and rep.ring != ring:
        raise StructuralError("ring references of character and module disagree")
    m = dimension_matrix(char, rep)
    dim_c, c = global_dimension(char), c_invariant(char)
    if negligible(abs(m.item(0)), 0.0, tol):
        # min_entry <= |Q[0][0]| <= tol <= tol * max(1, scale): the zero-entry verdict below
        return TraceCertificate(False, m, None, dim_c, c, tol)
    mag = np.abs(m)
    top = int(mag.argmax())
    scale, min_entry = mag.item(top), mag.item(mag.argmin())
    if negligible(min_entry, scale, tol):
        cert = TraceCertificate(False, m, None, dim_c, c, tol)
        found = cert.__dict__
        found["scale"], found["min_entry"] = scale, min_entry
        return cert
    max_minor = _max_minor(m, top)
    trace = None
    if negligible(max_minor, scale * scale, tol):
        diagonal = m.real.diagonal()
        p = int(diagonal.argmax())
        q_pp = diagonal.item(p)
        if not negligible(q_pp, scale, tol):
            d = m[:, p] / math.sqrt(q_pp)
            d.setflags(write=False)
            trace = ModuleTrace(d, p)
    cert = TraceCertificate(trace is not None, m, trace, dim_c, c, tol)
    # item stores: cheaper than a dict update on the matched path
    found = cert.__dict__
    found["scale"], found["min_entry"], found["max_minor"] = scale, min_entry, max_minor
    if trace is not None:
        found["diagnostics"] = ()
    return cert


#: Bound of :func:`fp_module_trace` on each Perron eigenvector residual, relative to
#: ``max(1, FPdim(u))``; the oracle's own, apart from :func:`~modtrace.common.negligible`.
FP_TRACE_TOL = 1e-8


def fp_module_trace(rep: NimRep) -> np.ndarray:
    """The canonical positive trace vector of an indecomposable NIM-rep.

    Returns the Perron vector ``w`` of ``sum_u M_u``, normalised to
    ``sum w_i^2 = sum_a FPdim(a)^2``; it satisfies
    ``M_u.T @ w = FPdim(u) w`` for every ``u`` and coincides with the solver's
    trace vector for the Frobenius-Perron character.
    """
    if not is_indecomposable(rep):
        raise UnsupportedError("canonical trace needs an indecomposable module")
    fp = fp_dimensions(rep.ring)
    _, w = perron_vector(rep.action_sum().astype(float))
    w = w * np.sqrt(float(fp @ fp))
    for u in range(rep.ring.rank):
        resid = np.max(np.abs(rep.M[u].T @ w - fp[u] * w))
        if resid > FP_TRACE_TOL * max(1.0, fp[u]):
            raise NumericError(
                f"action matrix {u} violates the Perron eigenvector relation ({resid:.2e})"
            )
    return w


@dataclass(frozen=True, eq=False)
class MatchedReport:
    """Per-module certificates plus the aggregate flexibility flag."""

    certificates: tuple[TraceCertificate, ...]
    flexible: bool
    note: ClassVar[str] = "flexible relative to the supplied module list only"

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
    certs = tuple(solve_module_trace(char.ring, char, rep, tol) for rep in reps)
    return MatchedReport(certs, all(c.matched for c in certs))
