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

from dataclasses import dataclass

import numpy as np

from .common import (
    PreconditionError,
    StructuralError,
    UnsupportedError,
    complex_pair,
    negligible,
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
    return rep.M[:, i, j].copy()


@dataclass(frozen=True, eq=False)
class FrobeniusReport:
    """Numeric Frobenius-algebra data of ``<m, m>`` for one simple ``m``."""

    object_index: int
    multiplicities: np.ndarray  #: multiplicity of each ring simple in <m, m>
    dim_a: float
    haploid: bool
    positivity_ok: bool

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

    ``dim(A) = Q[m][m]`` and haploidity (unit multiplicity one) holds by the
    unit axiom; positivity of ``dim(A)`` is exactly the trace-existence
    obstruction visible on the diagonal; a ``dim(A)`` negligible at scale ``max|Q|`` reads 0.
    """
    if not is_indecomposable(rep):
        raise UnsupportedError("Frobenius report needs an indecomposable module")
    mults = inner_hom_multiplicities(rep, m, m)
    q = certificate.Q
    dim_a = float(q[m, m].real)
    if negligible(abs(q[m, m]), certificate.scale, certificate.tol):
        dim_a = 0.0
    return FrobeniusReport(
        object_index=m,
        multiplicities=mults,
        dim_a=dim_a,
        haploid=bool(mults[ring.unit] == 1),
        positivity_ok=dim_a > 0.0,
    )


@dataclass(frozen=True, eq=False)
class MoritaRescaleReport:
    """Check of the dimension rescaling ``dim <m, n> = scale * d_M[n]``."""

    object_index: int
    scale: complex  #: Q[m][m] / d_M[m] = conj(d_M[m])
    max_residual: float
    ok: bool

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

    With the trace normalised by ``sum |d_M|^2 = dim(C)`` the rescale factor
    ``Q[m][m] / d_M[m]`` collapses to ``conj(d_M[m])``, so the identity is the
    anchor-column reconstruction of ``Q``; ``ok`` when its residual is negligible at ``max|Q|``.
    """
    if not certificate.matched:
        raise PreconditionError("Morita rescale check requires a matched certificate")
    k = rep.module_rank
    if not 0 <= m < k:
        raise StructuralError(f"object index {m} out of range for rank {k}")
    q = certificate.Q
    d = certificate.trace.d
    scale = complex(q[m, m] / d[m])
    max_residual = float(np.abs(q[:, m] - np.conj(d[m]) * d).max())
    return MoritaRescaleReport(
        object_index=m,
        scale=scale,
        max_residual=max_residual,
        ok=negligible(max_residual, certificate.scale, certificate.tol),
    )
