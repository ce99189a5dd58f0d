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

from dataclasses import dataclass

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


@dataclass(frozen=True, eq=False)
class DimChar:
    """A complex dimension vector on the simples of a fusion ring."""

    ring: FusionRing
    d: np.ndarray

    def __post_init__(self):
        try:
            d = np.asarray(self.d, dtype=complex)
        except (TypeError, ValueError) as exc:
            raise StructuralError(f"character entries are not complex numbers: {exc}") from None
        if d.shape != (self.ring.rank,):
            raise StructuralError(
                f"character has length {d.shape}, ring has rank {self.ring.rank}"
            )
        d.flags.writeable = False
        object.__setattr__(self, "d", d)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DimChar):
            return NotImplemented
        return self.ring == other.ring and np.array_equal(self.d, other.d)

    def __repr__(self) -> str:
        vals = ", ".join(f"{z:.6g}" for z in self.d)
        return f"DimChar([{vals}])"


def validate_dim_char(char: DimChar, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Check unit normalisation, multiplicativity, nonzero entries and duality."""
    ring, d = char.ring, char.d
    viols: list[Violation] = []
    if not close(d[ring.unit], 1.0, tol):
        viols.append(Violation("unit", (ring.unit,), complex(d[ring.unit]), 1.0))
    prod = np.einsum("abc,c->ab", ring.N, d)
    outer = np.outer(d, d)
    collect_violations(~close(outer, prod, tol), "multiplicativity", outer, prod, viols)
    collect_violations(np.abs(d) <= tol, "nonzero", d, np.full(ring.rank, "nonzero"), viols)
    dual_d, conj_d = d[ring.dual], np.conj(d)
    collect_violations(~close(dual_d, conj_d, tol), "duality", dual_d, conj_d, viols)
    return ValidationReport(tuple(viols))


def snap_components(values: np.ndarray, tol: float = 1e-13) -> np.ndarray:
    """Clamp real/imaginary parts to 0 or +-1 when within ``tol``.

    Character entries are algebraic numbers; components this close to the
    clamp targets are those values up to roundoff, so clamping only removes
    eigensolver and transcendental-function dust.
    """
    out = np.array(values, dtype=complex)
    for target in (0.0, 1.0, -1.0):
        re, im = out.real.copy(), out.imag.copy()
        re[np.abs(re - target) < tol] = target
        im[np.abs(im - target) < tol] = target
        out = re + 1j * im
    return out


def char_sort_key(d: np.ndarray) -> tuple:
    """Deterministic ordering key: entrywise (re, im) rounded to 9 decimals.

    Characters are listed in descending order of this key, which places the
    all-positive Frobenius-Perron character first (its entries dominate the
    real part of every other character entrywise).
    """
    d = np.asarray(d)
    return tuple((round(re, 9), round(im, 9)) for re, im in zip(d.real.tolist(), d.imag.tolist()))


def _pair_system(ring: FusionRing) -> tuple:
    """The ``a <= b`` index pairs, their row numbers and ``N[a, b]`` as complex rows."""
    a, b = np.triu_indices(ring.rank)
    return a, b, np.arange(a.size), ring.N[a, b].astype(complex)


def _polish_character(ring: FusionRing, d: np.ndarray, pairs: tuple | None = None) -> np.ndarray:
    """Newton refinement of a near-character on the multiplicativity system.

    Keeps the unit entry pinned to 1 and takes damped full-system Gauss-Newton
    steps; the eigensolver start is already accurate, so this only sharpens
    the last few digits.  ``pairs`` is :func:`_pair_system` of ``ring``, built
    here when not given.
    """
    n, unit = ring.rank, ring.unit
    if n == 1:
        return np.array([1.0 + 0.0j])
    free = np.arange(n) != unit
    a, b, rows, pair_N = _pair_system(ring) if pairs is None else pairs
    d = np.array(d, dtype=complex)
    d[unit] = 1.0
    prod = np.empty(a.size, dtype=complex)
    for _ in range(16):
        # d[a] d[b] component-wise, which rounds exactly like a scalar product
        prod.real = d.real[a] * d.real[b] - d.imag[a] * d.imag[b]
        prod.imag = d.real[a] * d.imag[b] + d.imag[a] * d.real[b]
        res = prod - pair_N @ d
        if np.max(np.abs(res)) < 1e-14:
            break
        # row (a, b), column c: d[b] delta(c, a) + d[a] delta(c, b) - N[a, b, c]
        jac = np.zeros_like(pair_N)
        jac[rows, a] += d[b]
        jac[rows, b] += d[a]
        jac -= pair_N
        step, *_ = np.linalg.lstsq(jac[:, free], -res, rcond=None)
        if np.max(np.abs(step)) > 0.5:
            break  # refinement diverging; keep the eigensolver result
        d[free] += step
    return d


def enumerate_characters(ring: FusionRing, tol: float = DEFAULT_TOL) -> list[DimChar]:
    """All pivotal candidates of a commutative fusion ring.

    The ring characters are computed as simultaneous eigenvectors: a random
    real-weighted sum ``M = sum_a w_a N_a`` is diagonalised (retrying with a
    fresh seed on eigenvalue collisions) and ``chi(a) = (N_a v)_k / v_k`` is
    read off at the largest component of each eigenvector.  The resulting
    characters are filtered by the nonzero and duality requirements and
    returned in descending :func:`char_sort_key` order.
    """
    if not ring.is_commutative():
        raise UnsupportedError("character enumeration requires a commutative ring")
    n = ring.rank
    mats = [m.astype(float) for m in fusion_matrices(ring)]
    stack = np.stack(mats)  # stack[a, k, :] is row k of N_a
    pairs = _pair_system(ring)

    for seed in range(ENUMERATION_RETRIES):
        rng = np.random.default_rng(seed)
        weights = rng.standard_normal(n)
        m = sum(w * mat for w, mat in zip(weights, mats))
        vals, vecs = np.linalg.eig(m)
        spread = max(1.0, float(np.max(np.abs(vals))))
        pairwise = np.abs(vals[:, None] - vals[None, :])
        pairwise[np.diag_indices(n)] = np.inf
        if n > 1 and np.min(pairwise) < 1e-8 * spread:
            continue  # collided eigenvalues; retry with a new weight vector

        chars = []
        for i in range(n):
            v = vecs[:, i]
            k = int(np.argmax(np.abs(v)))
            chi = stack[:, k, :] @ v / v[k]
            chars.append(snap_components(_polish_character(ring, chi, pairs)))

        keys = [char_sort_key(c) for c in chars]
        if len(set(keys)) != n:
            continue  # two eigenvectors polished to the same character

        kept = []
        for key, c in zip(keys, chars):
            cand = DimChar(ring, c)
            if validate_dim_char(cand, tol).valid:
                kept.append((key, cand))
        kept.sort(key=lambda pair: pair[0], reverse=True)
        return [cand for _, cand in kept]

    raise NumericError(
        f"degenerate eigenproblem after {ENUMERATION_RETRIES} reseeding attempts"
    )


def conjugate_char(char: DimChar) -> DimChar:
    """The conjugate pivotal candidate, with every dimension complex conjugated.

    This is an involution, and a character is a fixed point exactly when it
    is spherical.
    """
    return DimChar(char.ring, np.conj(char.d))


def is_spherical(char: DimChar, tol: float = DEFAULT_TOL) -> bool:
    """True iff ``d(a) = d(a*)`` for every simple, i.e. all dimensions real."""
    d = char.d
    return bool(np.all(close(d, d[char.ring.dual], tol)))


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
