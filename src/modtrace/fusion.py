"""Fusion rings: exact integer structure constants and Frobenius-Perron data.

A fusion ring is given by a finite set of simple classes with non-negative
integer structure constants ``N[a][b][c]`` (multiplicity of ``c`` in
``a * b``), a unit and a duality involution.  All ring axioms are checked
exactly (products in float64 only while provably below 2^53); only
dimensions are floating point.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .common import (
    NumericError,
    StructuralError,
    ValidationReport,
    Violation,
    collect_violations,
    readonly_setstate,
    require_budget,
    require_float_exact,
)


@functools.cache
def _sha256_constructor():
    """The SHA-256 constructor of :meth:`FusionRing.content_hash`, looked up once: a failed
    import searches ``sys.path`` again on every attempt."""
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256


def _int_array(data, name: str, shape: tuple | None = None) -> np.ndarray:
    """``data`` as an int64 array, copied unless it was handed over: a read-only C-contiguous
    int64 array of the expected shape that owns its memory, as this package's builders make."""
    handed_over = type(data) is np.ndarray and data.base is None and not data.flags.writeable
    if handed_over and data.dtype == np.int64 and data.flags.c_contiguous and data.shape == shape:
        return data
    try:
        arr = np.asarray(data)
    except ValueError as exc:
        raise StructuralError(f"{name} is not a rectangular array: {exc}") from None
    if arr.dtype.kind not in "iuf":
        raise StructuralError(f"{name} must be an integer array")
    if arr.dtype.kind == "f":
        rounded = np.rint(arr)
        # the range test also rejects inf and nan
        if not (np.all(np.abs(arr) < 2.0**63) and np.array_equal(rounded, arr)):
            raise StructuralError(f"{name} must contain integers within the int64 range only")
        arr = rounded
    arr = arr.astype(np.int64)
    if shape is not None and arr.shape != shape:
        raise StructuralError(f"{name} has shape {arr.shape}, expected {shape}")
    return arr


@dataclass(frozen=True, eq=False)
class FusionRing:
    """Immutable fusion-ring data.

    ``N[a][b][c]`` is the multiplicity of simple ``c`` in the product of
    simples ``a`` and ``b``; ``dual`` is an involution on the simple indices
    and ``unit`` the index of the monoidal unit.  Construction checks shapes,
    index ranges and non-negativity; the ring axioms themselves are checked by
    :func:`validate_fusion_ring`.
    """

    rank: int
    labels: tuple[str, ...]
    unit: int
    dual: np.ndarray
    N: np.ndarray

    def __post_init__(self):
        n = int(_int_array(self.rank, "rank", ()))
        if n < 1:
            raise StructuralError("rank must be a positive integer")
        object.__setattr__(self, "rank", n)
        if not isinstance(self.labels, (list, tuple)):
            raise StructuralError("labels must be a list")
        labels = tuple(str(s) for s in self.labels)
        if len(labels) != n:
            raise StructuralError(f"expected {n} labels, got {len(labels)}")
        object.__setattr__(self, "labels", labels)
        unit = int(_int_array(self.unit, "unit", ()))
        if not 0 <= unit < n:
            raise StructuralError(f"unit index {unit} out of range")
        object.__setattr__(self, "unit", unit)
        dual = _int_array(self.dual, "dual", (n,))
        if dual.min() < 0 or dual.max() >= n:
            raise StructuralError("dual entries out of range")
        dual.flags.writeable = False
        object.__setattr__(self, "dual", dual)
        N = _int_array(self.N, "N", (n, n, n))
        if N.min() < 0:
            raise StructuralError("structure constants must be non-negative")
        N.flags.writeable = False
        object.__setattr__(self, "N", N)

    __setstate__ = readonly_setstate

    def to_dict(self) -> dict:
        return {
            "rank": self.rank,
            "labels": list(self.labels),
            "unit": self.unit,
            "dual": [int(x) for x in self.dual],
            "N": self.N.tolist(),
        }

    def _fields(self) -> dict:
        """:meth:`to_dict` with ``dual`` and ``N`` kept as arrays: what the ring file and the hash write."""
        return {"rank": self.rank, "labels": list(self.labels), "unit": self.unit, "dual": self.dual, "N": self.N}

    def content_hash(self) -> str:
        """First 12 hex digits of the SHA-256 of ``json.dumps(self.to_dict(), separators=(",", ":"))``,
        the compact JSON form, byte-built by :func:`_json_text`; computed once per ring.

        The digest comes from CPython's builtin SHA-256 (``_sha2``, or ``_sha256`` before 3.12),
        as ``random`` takes its ``_sha512``, and from ``hashlib`` only on a build without one:
        ``hashlib`` maps OpenSSL, about 3.6 MB of RSS, for this one hash per ring.
        """
        cached = self.__dict__.get("_hash")
        if cached is None:
            blob = _json_text(self._fields(), ",", ":")
            cached = self.__dict__["_hash"] = _sha256_constructor()(blob.encode()).hexdigest()[:12]
        return cached

    def is_commutative(self) -> bool:
        return bool(np.array_equal(self.N, self.N.transpose(1, 0, 2)))

    def __eq__(self, other) -> bool:
        if other is self:
            return True
        if not isinstance(other, FusionRing):
            return NotImplemented
        return (
            self.rank == other.rank
            and self.labels == other.labels
            and self.unit == other.unit
            and np.array_equal(self.dual, other.dual)
            and np.array_equal(self.N, other.N)
        )

    def __hash__(self) -> int:
        return hash(self.content_hash())

    def __repr__(self) -> str:
        return f"FusionRing(rank={self.rank}, labels={list(self.labels)})"


def _json_array(arr: np.ndarray, comma: str) -> str:
    """``json.dumps(arr.tolist(), separators=(comma, ":"))`` for an integer array, byte-built
    when every entry is a digit 0-9.

    Then the text is that of an all-zero array, built by one bracket join per
    axis, and every entry sits at a fixed stride along each axis: one strided
    write puts the digits in place.  Any other array takes the ``json.dumps``
    path.
    """
    if arr.size == 0 or arr.ndim == 0 or arr.min() < 0 or arr.max() > 9:
        return json.dumps(arr.tolist(), separators=(comma, ":"))
    text, strides = "0", []
    for m in reversed(arr.shape):
        strides.insert(0, len(text) + len(comma))
        text = "[" + comma.join([text] * m) + "]"
    raw = bytearray(text, "ascii")
    digits = as_strided(np.frombuffer(raw, np.uint8)[arr.ndim :], arr.shape, strides)
    np.add(arr, ord("0"), out=digits, casting="unsafe")
    return raw.decode("ascii")


def _json_text(data, comma: str, colon: str) -> str:
    """``json.dumps(data, separators=(comma, colon))``, where an integer array, alone or as a
    value of a top-level object (whose keys are strings), is written by :func:`_json_array`."""

    def value(v) -> str:
        if isinstance(v, np.ndarray) and v.dtype.kind in "iu":
            return _json_array(v, comma)
        return json.dumps(v, separators=(comma, colon))

    if not isinstance(data, dict):
        return value(data)
    return "{" + comma.join(json.dumps(k) + colon + value(v) for k, v in data.items()) + "}"


def _composes_bytes(n: int, k: int) -> int:
    """Bytes of the two ``(n, n, k)`` arrays that :func:`_composes` forms for ``n`` maps of ``k``
    points, at the itemsize of ``np.min_scalar_type(k - 1)`` (for ``k <= 2**32``), worked out
    without a numpy call."""
    return 2 * n * n * k * (1 if k <= 1 << 8 else 2 if k <= 1 << 16 else 4)


def _composes(mul: np.ndarray, act: np.ndarray) -> bool:
    """``act[mul[u, v]] == act[u][act[v]]`` for the maps ``act[u]`` of ``k`` points, in O(n^2 k)
    on a copy of ``act`` at 1-2 bytes an entry; ``_composes(mul, mul)`` is associativity."""
    n, k = act.shape
    require_budget(_composes_bytes(n, k), "composing %d maps of %d points", n, k)
    small = act.astype(np.min_scalar_type(k - 1))
    return np.array_equal(small[mul], np.take(small, small, axis=1))  # [u, v, i]


def _require_group_ring_budget(g: int) -> None:
    """Refuse the ring of a group of order ``g`` from its ``8 * g^3`` bytes of ``N``."""
    require_budget(8 * g**3, "the ring of a group of order %d", g)


def _group_ring(mul: np.ndarray, labels, unit: int, dual: np.ndarray) -> FusionRing:
    """The ring of the group with read-only table ``mul``, identity ``unit`` and inverse
    ``dual``, with ``mul`` recorded as its :func:`pointed_table` rather than derived again."""
    g = len(mul)
    _require_group_ring_budget(g)
    N = np.zeros((g, g, g), dtype=np.int64)
    N[np.arange(g)[:, None], np.arange(g)[None, :], mul] = 1
    N.flags.writeable = False  # handed over: the ring keeps it without a copy
    ring = FusionRing(g, labels, unit, dual.copy(), N)
    ring.__dict__["_mul"] = mul
    return ring


def pointed_table(ring: FusionRing) -> np.ndarray | None:
    """The group table ``mul[a, b]`` of a pointed ring, else ``None``; computed once per ring.

    A ring is pointed when every product of two simples is one simple
    (``N.sum(axis=2) == 1``), so that ``N[a][b]`` is the indicator of
    ``mul = N @ arange(n)``.  The read-only table is returned only when it
    is a group with identity ``ring.unit`` and inverse ``ring.dual``; then the
    ring is that group's ring and satisfies every axiom of
    :func:`validate_fusion_ring`.  Associativity is checked in O(n^3).
    """
    memo = ring.__dict__
    if "_mul" not in memo:
        memo["_mul"] = None
        if (ring.N.sum(axis=2) == 1).all():
            ids = np.arange(ring.rank)
            mul = ring.N @ ids  # the index of each one-hot row, without a copy of N
            unit, dual = ring.unit, ring.dual
            if (
                (mul[unit] == ids).all()
                and (mul[:, unit] == ids).all()
                and (mul[ids, dual] == unit).all()
                and (mul[dual, ids] == unit).all()
                and _composes(mul, mul)
            ):
                mul.flags.writeable = False
                memo["_mul"] = mul
    return memo["_mul"]


def validate_fusion_ring(ring: FusionRing) -> ValidationReport:
    """Check every ring axiom exhaustively and report all violations.

    Checked: unit law, duality (involution, self-dual unit, pairing with the unit), Frobenius
    reciprocity and associativity.  A ring with a :func:`pointed_table` is a group ring and passes
    at once, in O(n^3) time and ``2 * _composes_bytes(n, n)`` bytes.  Any other ring gets the
    dense check, which is exact: associativity is compared one first index ``a`` at a time
    (O(n^3) memory) with float64 matrix products, which are exact because every sum is at most
    ``n * max(N)^2``; a ring where that reaches ``2^53`` is refused with :class:`StructuralError`.
    The dense check peaks within ``5 * 8 * n^3`` bytes, a few int64 copies of ``N`` at a time.
    """
    if pointed_table(ring) is not None:
        return ValidationReport(())
    return _dense_report(ring)


def _dense_report(ring: FusionRing) -> ValidationReport:
    """The dense check of :func:`validate_fusion_ring`: every axiom, entry by entry."""
    n, N, dual, unit = ring.rank, ring.N, ring.dual, ring.unit
    top = int(N.max())
    require_float_exact(n * top * top, "structure constants")
    viols: list[Violation] = []

    eye = np.eye(n, dtype=np.int64)
    collect_violations(N[unit] != eye, "unit_left", N[unit], eye, viols)
    collect_violations(N[:, unit, :] != eye, "unit_right", N[:, unit, :], eye, viols)

    invol = dual[dual]
    ids = np.arange(n)
    collect_violations(invol != ids, "dual_involution", invol, ids, viols)
    if dual[unit] != unit:
        viols.append(Violation("dual_unit", (unit,), int(dual[unit]), unit))
    # pairing with the unit: N[a][b][unit] = 1 iff b = dual(a)
    pairing = N[:, :, unit]
    expected = np.zeros((n, n), dtype=np.int64)
    expected[ids, dual] = 1
    collect_violations(pairing != expected, "dual_pairing", pairing, expected, viols)

    # Frobenius reciprocity: N[a][b][c] = N[a*][c][b] = N[c][b*][a]
    recip1 = N[dual][:, :, :].transpose(0, 2, 1)  # N[a*][c][b] indexed (a,b,c)
    collect_violations(N != recip1, "frobenius_reciprocity", N, recip1, viols)
    recip2 = N[:, dual, :].transpose(2, 1, 0)  # N[c][b*][a] indexed (a,b,c)
    collect_violations(N != recip2, "frobenius_reciprocity", N, recip2, viols)
    del recip1, recip2  # neither is held through the associativity loop

    # (a b) c = a (b c), indexed (b, c, d) for each a
    F = N.astype(np.float64)
    for a in range(n):
        lhs = (F[a] @ F.reshape(n, n * n)).reshape(n, n, n)
        rhs = (F.reshape(n * n, n) @ F[a]).reshape(n, n, n)
        mask = lhs != rhs
        if mask.any():
            collect_violations(
                mask, "associativity", lhs.astype(np.int64), rhs.astype(np.int64), viols, (a,)
            )

    return ValidationReport(tuple(viols))


def fusion_matrices(ring: FusionRing) -> np.ndarray:
    """Left-multiplication matrices ``(N_a)[c][b] = N[a][b][c]``, a read-only ``(n, n, n)`` view.

    Rows index the output simple, columns the input simple, so the matrices
    satisfy ``N_a @ N_b = sum_e N[a][b][e] N_e`` and ``N_{a*} = N_a.T``.
    """
    return ring.N.transpose(0, 2, 1)


def perron_vector(mat: np.ndarray) -> tuple[float, np.ndarray]:
    """Perron eigenpair of a symmetric non-negative irreducible matrix.

    The top eigenpair of a symmetric eigendecomposition; returns the
    eigenvalue and the 2-normalised non-negative eigenvector.
    """
    a = np.asarray(mat, dtype=float)
    if not np.array_equal(a, a.T):
        raise NumericError("Perron vector needs a symmetric matrix")
    vals, vecs = np.linalg.eigh(a)
    lam = float(vals[-1])
    if lam <= 0.0:
        raise NumericError("Perron eigenvalue is not positive")
    return lam, np.abs(vecs[:, -1])


def fp_dimensions(ring: FusionRing) -> np.ndarray:
    """Frobenius-Perron dimension of every simple class.

    On a ring with a :func:`pointed_table` every simple is invertible, so every
    dimension is exactly 1.  Otherwise the Perron vector of ``sum_a N_a`` is a
    simultaneous eigenvector of all left-multiplication matrices; the dimension
    of ``a`` is read off as the eigenvalue ``(N_a v)_k / v_k`` at the largest
    component ``k``.
    """
    if pointed_table(ring) is not None:
        return np.ones(ring.rank)
    mats = fusion_matrices(ring)
    _, v = perron_vector(mats.sum(axis=0).astype(float))
    k = int(np.argmax(v))
    return (mats @ v)[:, k] / v[k]
