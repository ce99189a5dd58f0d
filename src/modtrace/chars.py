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
    collect_violations(close(d, 0.0, tol), "nonzero", d, np.full(ring.rank, "nonzero"), viols)
    dual_d, conj_d = d[ring.dual], np.conj(d)
    collect_violations(~close(dual_d, conj_d, tol), "duality", dual_d, conj_d, viols)
    return ValidationReport(tuple(viols))


def snap_components(values: np.ndarray) -> np.ndarray:
    """Clamp real/imaginary parts to 0 or +-1 when within :data:`SNAP_TOL`.

    Character entries are algebraic numbers; components this close to the
    clamp targets are those values up to roundoff, so clamping only removes
    eigensolver and transcendental-function dust.
    """
    out = np.array(values, dtype=complex)
    for target in (0.0, 1.0, -1.0):
        re, im = out.real.copy(), out.imag.copy()
        re[np.abs(re - target) < SNAP_TOL] = target
        im[np.abs(im - target) < SNAP_TOL] = target
        out = re + 1j * im
    return out


def char_sort_key(d: np.ndarray) -> tuple:
    """Deterministic ordering key: the real and imaginary part of each entry
    in turn, rounded to 9 decimals, as one flat tuple.

    Characters are listed in descending order of this key, which places the
    all-positive Frobenius-Perron character first (its entries dominate the
    real part of every other character entrywise).
    """
    return _sort_keys(np.asarray(d, dtype=complex)[None])[0]


def _sort_keys(rows: np.ndarray) -> list[tuple]:
    """:func:`char_sort_key` of every row of a 2-d complex array, from one ``.tolist()``.

    Each key is built as a list and then made a tuple of its full length:
    no short-lived pair tuples, which the interpreter would keep on its
    free lists across the allocator's arenas.
    """
    parts = np.ascontiguousarray(rows).view(float)  # re, im of each entry in turn
    return [tuple([round(x, 9) for x in row]) for row in parts.tolist()]


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

    Candidates failing :func:`validate_dim_char` (zero entries, duality) at
    ``max(tol, DEFAULT_TOL)`` are dropped; the rest are returned in descending
    :func:`char_sort_key` order.  The floor keeps every character at ``tol = 0``:
    computed entries carry rounding error, so an exact check would drop each
    irrational one.
    """
    if not ring.is_commutative():
        raise UnsupportedError("character enumeration requires a commutative ring")
    n = ring.rank
    check_tol = max(tol, DEFAULT_TOL)
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

        kept = []
        for key, c in zip(keys, chars):
            cand = DimChar(ring, c)
            if validate_dim_char(cand, check_tol).valid:
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
