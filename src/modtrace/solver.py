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

from dataclasses import dataclass, field

import numpy as np

from .common import (
    DEFAULT_TOL,
    NumericError,
    StructuralError,
    UnsupportedError,
    complex_pair,
)
from .chars import DimChar, c_invariant, global_dimension
from .fusion import FusionRing, fp_dimensions, perron_vector
from .nimrep import NimRep, is_indecomposable

#: Verdict strings used by :func:`spherical_certificate`.
SPHERICAL = "spherical"
NON_SPHERICAL = "non-spherical"
INCONCLUSIVE = "inconclusive-numeric"

#: Tolerance of the C-invariant dichotomy (C = dim(C) or C = 0).
DICHOTOMY_TOL = 1e-7


@dataclass(frozen=True, eq=False)
class DimensionMatrix:
    """The matrix of inner-hom dimensions ``Q[i][j] = dim <m_j, m_i>``."""

    Q: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.Q, dtype=complex)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise StructuralError("dimension matrix must be square")
        q.flags.writeable = False
        object.__setattr__(self, "Q", q)

    @property
    def size(self) -> int:
        return self.Q.shape[0]


def dimension_matrix(ring: FusionRing, char: DimChar, rep: NimRep) -> DimensionMatrix:
    """Assemble ``Q = sum_u d(u) M_u`` for mutually consistent inputs."""
    if char.ring != ring or rep.ring != ring:
        raise StructuralError("ring references of character and module disagree")
    q = np.einsum("u,ujk->jk", char.d, rep.M.astype(complex))
    return DimensionMatrix(q)


def _structural_residuals(m: np.ndarray, dim_c: float) -> tuple[float, float]:
    """``max |Q - Q^dagger|`` and ``max |Q^2 - dim(C) Q|``."""
    return float(np.abs(m - m.conj().T).max()), float(np.abs(m @ m - dim_c * m).max())


@dataclass(frozen=True)
class QPropertyReport:
    """Residuals of the structural identities of a dimension matrix."""

    residual_square: float  #: max |Q^2 - dim(C) Q|
    residual_hermitian: float  #: max |Q - Q^dagger|
    eigen_deviation: float  #: max over eigenvalues of min(|lam|, |lam - dim(C)|)
    scale: float
    tol: float

    @property
    def passed(self) -> bool:
        bound = self.tol * self.scale
        return (
            self.residual_square <= bound
            and self.residual_hermitian <= bound
            and self.eigen_deviation <= bound
        )

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "residual_square": self.residual_square,
            "residual_hermitian": self.residual_hermitian,
            "eigen_deviation": self.eigen_deviation,
        }


def q_property_report(
    q: DimensionMatrix, dim_c: float, tol: float = DEFAULT_TOL
) -> QPropertyReport:
    """Check ``Q^2 = dim(C) Q``, hermiticity, and the 0/dim(C) eigenvalue dichotomy."""
    m = q.Q
    scale = max(1.0, float(np.max(np.abs(m))))
    residual_hermitian, residual_square = _structural_residuals(m, dim_c)
    eigs = np.linalg.eigvalsh((m + m.conj().T) / 2.0)
    eigen_deviation = float(np.max(np.minimum(np.abs(eigs), np.abs(eigs - dim_c))))
    return QPropertyReport(residual_square, residual_hermitian, eigen_deviation, scale, tol)


@dataclass(frozen=True, eq=False)
class ModuleTrace:
    """Trace dimensions of the module simples, ``sum |d|^2 = dim(C)``.

    The phase is fixed by making the entry at ``anchor`` (the largest diagonal
    entry of ``Q``) real and positive.
    """

    d: np.ndarray
    anchor: int
    dim_c: float

    def __post_init__(self):
        d = np.asarray(self.d, dtype=complex)
        d.flags.writeable = False
        object.__setattr__(self, "d", d)

    def unit_normalized(self, index: int) -> np.ndarray:
        """The trace vector rescaled so the entry at ``index`` equals 1."""
        if not 0 <= index < len(self.d):
            raise StructuralError(f"index {index} out of range")
        return self.d / self.d[index]

    def __len__(self) -> int:
        return len(self.d)


@dataclass(frozen=True, eq=False)
class TraceCertificate:
    """Outcome of the module-trace existence test for one (char, rep) pair."""

    matched: bool
    Q: DimensionMatrix
    trace: ModuleTrace | None
    dim_c: float
    c: complex
    spherical_by_c: bool
    diagnostics: tuple[str, ...]
    residuals: dict = field(default_factory=dict)

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


def solve_module_trace(
    ring: FusionRing, char: DimChar, rep: NimRep, tol: float = DEFAULT_TOL
) -> TraceCertificate:
    """Decide module-trace existence and extract the trace dimension vector.

    ``matched`` is true iff ``Q`` has rank at most 1 and every entry of ``Q``
    is nonzero, both at ``tol`` scaled by the largest entry of ``Q``.  The rank
    test is O(k^2): with the pivot ``(r, s)`` at the largest entry of ``|Q|``,
    ``residuals["max_minor"]`` is the largest 2x2 minor through the pivot,
    ``max_ab |Q[r][s] Q[a][b] - Q[a][s] Q[r][b]|``, which vanishes exactly
    when the rank is at most 1 (it is 0 for ``Q = 0``).  For the positive
    semidefinite ``Q`` of valid inputs the pivot is the anchor below.

    When matched, the vector is recovered from the anchor column:
    ``d_M[i] = Q[i][p] / sqrt(Q[p][p])`` at the largest diagonal entry ``p``,
    giving ``sum |d_M|^2 = trace(Q) = dim(C)`` and ``d_M[p] > 0``.
    """
    q = dimension_matrix(ring, char, rep)
    m = q.Q
    mag = np.abs(m)
    dim_c = global_dimension(char)
    c = c_invariant(char)
    scale = max(1.0, float(mag.max()))
    bound = tol * scale
    diagnostics: list[str] = []

    # Rank <= 1 iff every 2x2 minor through the largest entry (r, s) vanishes:
    # Q[r][s] != 0 then forces Q = Q[:, s] Q[r, :] / Q[r][s].
    r, s = divmod(int(mag.argmax()), m.shape[1])
    max_minor = float(np.abs(m[r, s] * m - m[:, s, None] * m[None, r, :]).max())
    if max_minor >= bound:
        diagnostics.append("rank exceeds 1")

    min_entry = float(mag.min())
    if min_entry <= bound:
        diagnostics.append("zero entry in Q")

    p = int(m.diagonal().real.argmax())
    if m[p, p].real <= tol:
        diagnostics.append("zero diagonal")

    hermitian, q_square = _structural_residuals(m, dim_c)
    residuals = {
        "hermitian": hermitian,
        "q_square": q_square,
        "max_minor": max_minor,
        "min_entry": min_entry,
    }

    matched = not diagnostics
    trace = None
    if matched:
        d = m[:, p] / np.sqrt(m[p, p].real)
        trace = ModuleTrace(d, p, dim_c)
        residuals["right_eigen"] = float(np.abs(m @ d - dim_c * d).max())
        residuals["left_eigen"] = float(np.abs(m.T @ d - c * d).max())
        residuals["reconstruction"] = float(np.abs(m - d[:, None] * d.conj()[None, :]).max())

    return TraceCertificate(
        matched=matched,
        Q=q,
        trace=trace,
        dim_c=dim_c,
        c=c,
        spherical_by_c=abs(c - dim_c) < tol,
        diagnostics=tuple(diagnostics),
        residuals=residuals,
    )


def object_dimension(trace: ModuleTrace, multiplicities) -> complex:
    """Trace dimension of a direct sum: ``sum_i n_i d_M[i]``."""
    mult = np.asarray(multiplicities)
    if mult.shape != trace.d.shape:
        raise StructuralError(
            f"multiplicity vector has shape {mult.shape}, expected {trace.d.shape}"
        )
    return complex(mult @ trace.d)


def fp_module_trace(
    ring: FusionRing, rep: NimRep, tol: float = 1e-8
) -> np.ndarray:
    """The canonical positive trace vector of an indecomposable NIM-rep.

    Returns the Perron vector ``w`` of ``sum_u M_u``, normalised to
    ``sum w_i^2 = sum_a FPdim(a)^2``; it satisfies
    ``M_u.T @ w = FPdim(u) w`` for every ``u`` and coincides with the solver's
    trace vector for the Frobenius-Perron character.
    """
    if not is_indecomposable(rep):
        raise UnsupportedError("canonical trace needs an indecomposable module")
    fp = fp_dimensions(ring)
    _, w = perron_vector(rep.action_sum().astype(float))
    w = w * np.sqrt(float(fp @ fp))
    for u in range(ring.rank):
        resid = np.max(np.abs(rep.M[u].T @ w - fp[u] * w))
        if resid > tol * max(1.0, fp[u]):
            raise NumericError(
                f"action matrix {u} violates the Perron eigenvector relation ({resid:.2e})"
            )
    return w


@dataclass(frozen=True, eq=False)
class MatchedReport:
    """Per-module certificates plus the aggregate flexibility flag."""

    certificates: tuple[TraceCertificate, ...]
    flexible: bool
    note: str = "flexible relative to the supplied module list only"

    def to_dict(self) -> dict:
        return {
            "flexible": self.flexible,
            "note": self.note,
            "certificates": [c.to_dict() for c in self.certificates],
        }


def matched_report(
    ring: FusionRing, char: DimChar, reps: list[NimRep], tol: float = DEFAULT_TOL
) -> MatchedReport:
    """Run the trace test over a list of modules; flexible = all matched."""
    if not reps:
        raise StructuralError("matched_report requires at least one module")
    certs = tuple(solve_module_trace(ring, char, rep, tol) for rep in reps)
    return MatchedReport(certs, all(c.matched for c in certs))


@dataclass(frozen=True, eq=False)
class SphericalReport:
    """Sphericality evidence: the C dichotomy plus any real trace witness."""

    c: complex
    dim_c: float
    verdict: str
    witness: int | None  #: index of a matched module with an all-real trace vector
    certificates: tuple[TraceCertificate, ...]

    def to_dict(self) -> dict:
        return {
            "C": complex_pair(self.c),
            "dimC": self.dim_c,
            "verdict": self.verdict,
            "witness": self.witness,
        }


def spherical_certificate(
    ring: FusionRing,
    char: DimChar,
    reps: list[NimRep],
    tol: float = DEFAULT_TOL,
    dichotomy_tol: float = DICHOTOMY_TOL,
) -> SphericalReport:
    """Classify the character via ``C``, with module trace vectors as witnesses.

    ``C = dim(C)`` identifies spherical characters and ``C = 0`` the rest;
    a matched module whose trace vector is real (after the fixed phase
    convention) is recorded as an independent witness of sphericality.
    """
    dim_c = global_dimension(char)
    c = c_invariant(char)
    if abs(c - dim_c) < dichotomy_tol:
        verdict = SPHERICAL
    elif abs(c) < dichotomy_tol:
        verdict = NON_SPHERICAL
    else:
        verdict = INCONCLUSIVE

    certs = tuple(solve_module_trace(ring, char, rep, tol) for rep in reps)
    witness = None
    for idx, cert in enumerate(certs):
        if cert.matched and np.max(np.abs(cert.trace.d.imag)) <= tol * max(
            1.0, float(np.max(np.abs(cert.trace.d)))
        ):
            witness = idx
            break
    return SphericalReport(c, dim_c, verdict, witness, certs)
