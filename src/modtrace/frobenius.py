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
    negligible,
    readonly_setstate,
)
from .chars import DimChar
from .fusion import FusionRing
from .nimrep import NimRep, is_indecomposable
from .solver import TraceCertificate


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
        # one dict update instead of the frozen dataclass's setattr per field
        self.__dict__.update(object_index=object_index, multiplicities=multiplicities, dim_a=dim_a,
                             haploid=haploid, positivity_ok=dim_a > 0.0)

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


def frobenius_report(
    ring: FusionRing,
    char: DimChar,
    rep: NimRep,
    m: int,
    certificate: TraceCertificate,
) -> FrobeniusReport:
    """Frobenius data of ``<m, m>`` on an indecomposable module.

    ``dim(A) = Q[m][m]``, from the certificate's diagonal, and haploidity (unit multiplicity
    one, at the unit of ``rep.ring``) holds by the unit axiom; positivity of ``dim(A)`` is the
    trace-existence obstruction visible on the diagonal; a ``dim(A)`` negligible at the
    certificate's ``scale`` and ``tol`` floored at :data:`DEFAULT_TOL`, as ``Q`` is rounded,
    reads 0.  A certificate of another character or module raises ``StructuralError``.
    """
    _require_own(char, rep, certificate)
    if not is_indecomposable(rep):
        raise UnsupportedError("Frobenius report needs an indecomposable module")
    mults = inner_hom_multiplicities(rep, m, m)
    q_mm = certificate.diagonal.item(m)
    dusty = negligible(abs(q_mm), certificate.scale, max(certificate.tol, DEFAULT_TOL))
    return FrobeniusReport(m, mults, 0.0 if dusty else q_mm.real, mults.item(rep.ring.unit) == 1)


@dataclass(frozen=True, eq=False, init=False)
class MoritaRescaleReport:
    """Check of the dimension rescaling ``dim <m, n> = scale * d_M[n]``."""

    object_index: int
    scale: complex  #: Q[m][m] / d_M[m] = conj(d_M[m])
    max_residual: float
    ok: bool

    def __init__(self, object_index, scale, max_residual, ok):
        self.__dict__.update(
            {"object_index": object_index, "scale": scale, "max_residual": max_residual, "ok": ok}
        )

    def to_dict(self) -> dict:
        return {
            "object": self.object_index,
            "scale": complex_pair(self.scale),
            "max_residual": self.max_residual,
            "ok": self.ok,
        }


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
    ``tol`` floored at :data:`DEFAULT_TOL`, as ``d_M`` is rounded.  A certificate of another
    character or module raises ``StructuralError``.
    """
    _require_own(char, rep, certificate)
    if not certificate.matched:
        raise PreconditionError("Morita rescale check requires a matched certificate")
    if not 0 <= m < rep.module_rank:
        raise StructuralError(f"object index {m} out of range for rank {rep.module_rank}")
    d, column = certificate.trace.d, certificate.column(m)
    # numpy's complex division, not Python's: the two differ in the last bit
    scale = complex(column[m] / d[m])
    residuals = np.abs(column - d.item(m).conjugate() * d)
    max_residual = residuals.item(residuals.argmax())
    ok = negligible(max_residual, certificate.scale, max(certificate.tol, DEFAULT_TOL))
    return MoritaRescaleReport(m, scale, max_residual, ok)
