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
    readonly_setstate,
)
from .fusion import FusionRing, fp_dimensions, fusion_matrices, pointed_table

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

    __setstate__ = readonly_setstate


def _axiom_checks(ring: FusionRing, rows: np.ndarray, tol: float, per_block: int):
    """Yield ``(axiom, mask, lhs, rhs)`` on the rows of an ``(m, n)`` array, row first.

    In reporting order: unit, multiplicativity ``per_block`` first indices ``a``
    at a time (indexed ``[row, a - first, b]``), nonzero, duality; the
    tolerance is floored at :data:`DEFAULT_TOL`.  A true ``mask`` entry fails
    at its position after the row, which with ``per_block = n`` is the
    violation's index.
    """
    tol = max(tol, DEFAULT_TOL)
    m, n = rows.shape
    unit = np.zeros((m, n), dtype=bool)
    unit[:, ring.unit] = ~close(rows[:, ring.unit], 1.0, tol)
    yield "unit", unit, rows, np.broadcast_to(1.0, (m, n))
    for first in range(0, n, per_block):
        outer = rows[:, first : first + per_block, None] * rows[:, None, :]  # [row, a, b]
        # one (m, n) @ (n, n) product per a, as the one-row check of each a computes it
        prod = (rows @ ring.N[first : first + per_block].transpose(0, 2, 1)).transpose(1, 0, 2)
        yield "multiplicativity", ~close(outer, prod, tol), outer, prod
    yield "nonzero", close(rows, 0.0, tol), rows, np.broadcast_to("nonzero", (m, n))
    dual, conj = rows[:, ring.dual], rows.conj()
    yield "duality", ~close(dual, conj, tol), dual, conj


def validate_dim_char(char: DimChar, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Check unit normalisation, multiplicativity, nonzero entries and duality.

    ``tol`` is floored at :data:`DEFAULT_TOL`: computed or decimal entries are
    rounded, so an exact check would reject every irrational character.  Overflow and NaN
    raise no warning: a non-finite value fails its check.
    """
    viols: list[Violation] = []
    with np.errstate(over="ignore", invalid="ignore"):
        for axiom, mask, lhs, rhs in _axiom_checks(char.ring, char.d[None], tol, char.ring.rank):
            collect_violations(mask[0], axiom, lhs[0], rhs[0], viols)
    return ValidationReport(tuple(viols))


#: Bytes of one complex ``(m, block, n)`` array of the multiplicativity check in :func:`_passing`.
_CHECK_BYTES = 1 << 16


def _passing(ring: FusionRing, rows: np.ndarray, tol: float) -> np.ndarray:
    """Which rows pass :func:`validate_dim_char`: the :func:`_axiom_checks` masks ORed per row.

    Multiplicativity is checked for as many first indices at once as
    :data:`_CHECK_BYTES` allows.
    """
    m, n = rows.shape
    per_block = max(1, _CHECK_BYTES // (16 * m * n))
    with np.errstate(over="ignore", invalid="ignore"):
        checks = _axiom_checks(ring, rows, tol, per_block)
        return ~np.any([mask.reshape(m, -1).any(axis=1) for _, mask, *_ in checks], axis=0)


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


def _sort_keys(rows: np.ndarray) -> np.ndarray:
    """Per row of a 2-d complex array, the re and im of each entry in turn, rounded to 9 decimals.

    Equal entry for entry to Python's ``round(x, 9)``.  ``np.round(x, 9)`` is
    ``rint(x * 1e9) / 1e9``, which differs from it only when the rounding of
    the product moves it across a half; so the entries whose scaled value
    lies within a few ulps of a half (or is not finite) are redone with ``round``.
    """
    parts = np.ascontiguousarray(rows, dtype=complex).view(float)
    scaled = parts * 1e9
    keys = np.rint(scaled) / 1e9
    clear = np.abs(scaled - np.floor(scaled) - 0.5) > 4 * np.spacing(np.abs(scaled))
    for idx in zip(*np.nonzero(~clear)):
        keys[idx] = round(parts[idx].item(), 9)
    return keys


def _descending(keys: np.ndarray) -> tuple[np.ndarray, bool]:
    """The order of the rows of a key array, descending and stable like
    ``sorted(..., reverse=True)`` on their tuples, and whether two rows are equal."""
    order = np.lexsort(-keys.T[::-1])
    ranked = keys[order]
    return order, bool((ranked[1:] == ranked[:-1]).all(axis=1).any())


def _characters(ring: FusionRing, rows, keys: np.ndarray | None = None) -> list[DimChar]:
    """The rows of a 2-d array as characters, in descending order of their :func:`_sort_keys`
    (``keys``, when the caller has them), which puts the Frobenius-Perron character first.

    Each character carries its :func:`global_dimension` and :func:`c_invariant`
    from one reduction over all rows, bit-equal to the one-row sums.
    """
    rows = np.asarray(rows, dtype=complex)
    order, _ = _descending(_sort_keys(rows) if keys is None else keys)
    dims, cs = (np.abs(rows) ** 2).sum(axis=1), (rows**2).sum(axis=1)
    chars = []
    for i in order:
        char = DimChar(ring, rows[i])
        char.__dict__.update(_dim_c=float(dims[i]), _c=complex(cs[i]))
        chars.append(char)
    return chars


def _linear_characters(mul: np.ndarray, identity: int) -> np.ndarray:
    """All linear characters of the abelian group with table ``mul``, one row each, unsorted.

    Built by extending characters along a chain of subgroups: adjoining an
    element ``x`` with ``x^r`` already covered multiplies the character count
    by ``r``, the new values being the ``r``-th roots of the known value.
    The integer exponents ``e`` (a value is ``exp(2 pi i e / g)``) of every
    character on every covered element form one array, extended by one
    array update per adjoined element.  All values are then read from one
    table of the ``g`` roots of unity, each computed as a scalar, so no
    eigensolver is involved and the only rounding is in that table; the
    cost is O(g^2) plus O(g) scalar exponentials.
    """
    g = len(mul)
    covered = np.array([identity])
    position = np.full(g, -1)
    position[identity] = 0
    exps = np.zeros((1, 1), dtype=np.int64)  # exps[i, p]: exponent of character i at covered[p]

    for x in range(g):
        if position[x] >= 0:
            continue
        # order of x relative to the covered subgroup, and its powers below it
        powers = [identity]
        power = x
        while position[power] < 0:
            powers.append(power)
            power = mul[power, x]
        r, anchor = len(powers), position[power]  # x^r sits at covered[anchor]

        # covered elements a * x^t, t-major: t = 0 keeps the old positions
        covered = mul[covered[None, :], np.array(powers)[:, None]].ravel()
        position[covered] = np.arange(covered.size)
        c = exps[:, anchor]
        assert (c % r == 0).all()  # kappa(x^r) is an r-th power in the exponent lattice
        step = (c[:, None] // r + np.arange(r) * (g // r)) % g  # [i, j]: exponent at x
        t = np.arange(r)[:, None]
        # [i, j, t, p]: character (i, j) at covered[p] * x^t
        exps = (exps[:, None, None, :] + t * step[:, :, None, None]) % g
        exps = exps.reshape(-1, covered.size)

    roots = np.array([np.exp(2j * np.pi * e / g) for e in range(g)])
    values = np.empty(exps.shape, dtype=complex)
    values[:, covered] = roots[exps]
    return snap_components(values)


def enumerate_characters(ring: FusionRing, tol: float = DEFAULT_TOL) -> list[DimChar]:
    """All pivotal candidates of a commutative fusion ring.

    A ring with a :func:`~modtrace.fusion.pointed_table` is the group ring of
    an abelian group, whose characters are its linear characters: they are
    read off the group's exponent chain as exact roots of unity, in O(n^2).
    Any other ring takes the numeric route of :func:`_eigh_characters`.  On
    both routes, candidates failing :func:`validate_dim_char` are dropped and
    the rest sorted by :func:`_characters`.

    The pointed route peaks within ``8 * 16 * n^2 + 8192 * n`` bytes: a few ``(n, n)`` complex
    arrays of candidates and sort keys, and ``np.lexsort``'s buffers for ``2n`` keys; a ring
    without its table memo first peaks in :func:`~modtrace.fusion.pointed_table`, within
    ``2 * _composes_bytes(n, n)``.  The numeric route peaks within ``4 * 8 * n^3 + 16 *
    _CHECK_BYTES + 16 * 16 * n^2``: the complex stack of ``N``, its product with the
    eigenvectors, and the blocks of :func:`_passing`.
    """
    mul = pointed_table(ring)
    # a pointed ring's N[a][b] is the indicator of mul[a, b], so N commutes exactly when mul does
    if not (ring.is_commutative() if mul is None else np.array_equal(mul, mul.T)):
        raise UnsupportedError("character enumeration requires a commutative ring")
    return _eigh_characters(ring, tol) if mul is None else _pointed_characters(ring, mul, tol)


def _pointed_characters(ring: FusionRing, mul: np.ndarray, tol: float) -> list[DimChar]:
    """The pivotal candidates of the ring of the abelian group with table ``mul``."""
    values, tol = _linear_characters(mul, ring.unit), max(tol, DEFAULT_TOL)
    # exact roots of unity are multiplicative and dual up to rounding, so of the checks of
    # validate_dim_char only "unit" (at a NaN tol) and "nonzero" (from tol = 1 on) can fail
    keep = close(values[:, ring.unit], 1.0, tol) & ~close(values, 0.0, tol).any(axis=1)
    return _characters(ring, values[keep])


def _eigh_characters(ring: FusionRing, tol: float) -> list[DimChar]:
    """The pivotal candidates of a commutative ring, read off one Hermitian eigendecomposition.

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
    ``(n^2, n) @ (n, n)`` product and one contraction, O(n^4) in total, and
    all candidates are checked at once by :func:`_passing`; the survivors are
    listed by :func:`_characters`, in the order of the repeat check's keys.
    """
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
        if _descending(keys)[1]:
            continue  # two eigenvectors gave the same character

        keep = _passing(ring, chars, tol)
        return _characters(ring, chars[keep], keys[keep])

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
    """``dim(C) = sum_a |d(a)|^2``; strictly positive.

    A character listed by :func:`enumerate_characters`,
    :func:`~modtrace.groups.group_characters` or :func:`~modtrace.catalog.builtin`
    carries it from construction; any other is computed on its first call and kept.
    """
    dim_c = char.__dict__.get("_dim_c")
    if dim_c is None:
        dim_c = char.__dict__["_dim_c"] = float(np.sum(np.abs(char.d) ** 2))
    return dim_c


def c_invariant(char: DimChar) -> complex:
    """``C = sum_a d(a)^2``; equals ``dim(C)`` for spherical characters, else 0.

    A character listed by :func:`enumerate_characters`,
    :func:`~modtrace.groups.group_characters` or :func:`~modtrace.catalog.builtin`
    carries it from construction; any other is computed on its first call and kept.
    """
    c = char.__dict__.get("_c")
    if c is None:
        c = char.__dict__["_c"] = complex(np.sum(char.d**2))
    return c


def fp_character(ring: FusionRing) -> DimChar:
    """The Frobenius-Perron dimensions packaged as a (real, spherical) character."""
    return DimChar(ring, fp_dimensions(ring).astype(complex))
