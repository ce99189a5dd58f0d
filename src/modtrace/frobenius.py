"""Decategorified Frobenius data of inner-hom algebras.

When a module trace exists, the inner hom ``<m, m>`` of a simple module
object is a special haploid symmetric Frobenius algebra with strictly
positive dimension.  Only the numeric consequences are reported here: the
multiplicity decomposition, the algebra dimension ``Q[m][m]``, the
specialness constants under the normalisation ``beta_1 = dim(A)``,
``beta_A = 1``, and the dimension rescaling under the Morita equivalence
``n -> <m, n>``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .common import (
    DEFAULT_TOL,
    PreconditionError,
    StructuralError,
    UnsupportedError,
    complex_pair,
    readonly_setstate,
)
from .chars import DimChar
from .fusion import FusionRing
from .nimrep import NimRep, is_indecomposable
from .solver import TraceCertificate, _new


def inner_hom_multiplicities(rep: NimRep, i: int, j: int) -> np.ndarray:
    """Multiplicity of each ring simple in the inner hom from ``m_j`` to ``m_i``.

    ``vector[u] = (M_u)[i][j]``; pairing with any dimension character gives
    ``Q[i][j]``.
    """
    k = rep.module_rank
    if not (0 <= i < k and 0 <= j < k):
        raise StructuralError(f"object indices ({i}, {j}) out of range for rank {k}")
    return rep.M[:, i, j]  # a view: rep.M is read-only


def _require_own(char: DimChar, rep: NimRep, certificate: TraceCertificate) -> None:
    """Refuse a certificate of another character (by identity) or module (identity, else ``==``)."""
    if certificate.char is not char or certificate.rep is not rep and certificate.rep != rep:
        raise StructuralError("certificate of another character or module")


@dataclass(frozen=True, eq=False, init=False)
class FrobeniusReport:
    """Numeric Frobenius-algebra data of ``<m, m>`` for one simple ``m``."""

    object_index: int
    multiplicities: np.ndarray  #: multiplicity of each ring simple in <m, m>
    dim_a: float
    haploid: bool
    positivity_ok: bool = field(init=False)  #: ``dim_a > 0``

    def __init__(self, object_index, multiplicities, dim_a, haploid):
        _fill_frobenius(self, object_index, multiplicities, dim_a, haploid)

    __setstate__ = readonly_setstate

    def to_dict(self) -> dict:
        return {
            "object": self.object_index,
            "multiplicities": [int(x) for x in self.multiplicities],
            "dimA": self.dim_a,
            "haploid": self.haploid,
            "beta1": self.dim_a,
            "betaA": 1.0,
            "positivity_ok": self.positivity_ok,
        }


def _fill_frobenius(report: FrobeniusReport, object_index, multiplicities, dim_a, haploid) -> FrobeniusReport:
    """Set the fields of a new :class:`FrobeniusReport`, ``positivity_ok`` from ``dim_a``; the
    one fill of its constructor and of :func:`frobenius_report`."""
    fields = report.__dict__  # item stores, not the frozen dataclass's setattr per field
    fields["object_index"] = object_index
    fields["multiplicities"] = multiplicities
    fields["dim_a"] = dim_a
    fields["haploid"] = haploid
    fields["positivity_ok"] = dim_a > 0.0
    return report


def frobenius_report(
    ring: FusionRing,
    char: DimChar,
    rep: NimRep,
    m: int,
    certificate: TraceCertificate,
) -> FrobeniusReport:
    """Frobenius data of ``<m, m>`` on an indecomposable module.

    ``dim(A) = Q[m][m]``, read from the certificate's diagonal, and haploidity (unit
    multiplicity one, at the unit of ``rep.ring``) holds by the unit axiom; positivity of
    ``dim(A)`` is the trace-existence obstruction visible on the diagonal; a ``dim(A)``
    negligible at the certificate's ``scale`` and ``tol`` floored at :data:`DEFAULT_TOL`, as
    ``Q`` is rounded, reads 0.  On a certificate that keeps its diagonal, as every solve past
    ``Q[0][0]`` does, the report forms no product: it reads one diagonal entry, the ``scale``
    and a view of ``M``.  A certificate of another character or module raises
    ``StructuralError``.
    """
    _require_own(char, rep, certificate)
    if not is_indecomposable(rep):
        raise UnsupportedError("Frobenius report needs an indecomposable module")
    mults = inner_hom_multiplicities(rep, m, m)
    q_mm = certificate.diagonal.item(m)
    # negligible(|q_mm|, scale, max(tol, DEFAULT_TOL)), written out
    dusty = abs(q_mm) <= max(certificate.tol, DEFAULT_TOL) * max(1.0, certificate.scale)
    dim_a = 0.0 if dusty else q_mm.real
    return _fill_frobenius(_new(FrobeniusReport), m, mults, dim_a, mults.item(rep.ring.unit) == 1)


@dataclass(frozen=True, eq=False, init=False)
class MoritaRescaleReport:
    """Check of the dimension rescaling ``dim <m, n> = scale * d_M[n]``."""

    object_index: int
    scale: complex  #: Q[m][m] / d_M[m] = conj(d_M[m])
    max_residual: float
    ok: bool

    def __init__(self, object_index, scale, max_residual, ok):
        _fill_morita(self, object_index, scale, max_residual, ok)

    def to_dict(self) -> dict:
        return {
            "object": self.object_index,
            "scale": complex_pair(self.scale),
            "max_residual": self.max_residual,
            "ok": self.ok,
        }


def _fill_morita(report: MoritaRescaleReport, object_index, scale, max_residual, ok) -> MoritaRescaleReport:
    """Set the fields of a new :class:`MoritaRescaleReport`; the one fill of its constructor and
    of :func:`morita_rescale_check`."""
    fields = report.__dict__  # item stores, not the frozen dataclass's setattr per field
    fields["object_index"] = object_index
    fields["scale"] = scale
    fields["max_residual"] = max_residual
    fields["ok"] = ok
    return report


def morita_rescale_check(
    ring: FusionRing,
    char: DimChar,
    rep: NimRep,
    m: int,
    certificate: TraceCertificate,
) -> MoritaRescaleReport:
    """Verify ``Q[n][m] = conj(d_M[m]) * d_M[n]`` for every module simple ``n``.

    With the trace normalised by ``sum |d_M|^2 = dim(C)`` the rescale factor ``Q[m][m] / d_M[m]``
    collapses to ``conj(d_M[m])``, so the identity is the anchor-column reconstruction of column
    ``m`` of ``Q``; ``ok`` when its residual is negligible at the certificate's ``scale`` and
    ``tol`` floored at :data:`DEFAULT_TOL`, as ``d_M`` is rounded.  The check forms one product,
    the column ``Q[:, m]`` as :meth:`~modtrace.solver.TraceCertificate.column` forms it, and
    reads the certificate's diagonal and ``scale``.  A certificate of another character or
    module raises ``StructuralError``.
    """
    _require_own(char, rep, certificate)
    if not certificate.matched:
        raise PreconditionError("Morita rescale check requires a matched certificate")
    if not 0 <= m < rep.module_rank:
        raise StructuralError(f"object index {m} out of range for rank {rep.module_rank}")
    d, column = certificate.trace.d, certificate.column(m)
    # numpy's complex division, not Python's: the two differ in the last bit
    scale = complex(column[m] / d[m])
    column -= d.item(m).conjugate() * d  # the column is this call's own
    residuals = np.abs(column)
    max_residual = residuals.item(residuals.argmax())
    # negligible(max_residual, scale, max(tol, DEFAULT_TOL)), written out
    ok = max_residual <= max(certificate.tol, DEFAULT_TOL) * max(1.0, certificate.scale)
    return _fill_morita(_new(MoritaRescaleReport), m, scale, max_residual, ok)
