"""Finite group tables and the graded-vector-space instance generators.

A group of order ``g`` is a ``g x g`` multiplication table on indices.  Its
group ring is a fusion ring with ``N[a][b][c] = delta(ab, c)`` and duality
given by inversion.  Module categories over the graded-vector-space category
come from subgroups ``H``: simple module objects are the cosets of ``H`` and
a group element acts by left multiplication.  A linear character ``kappa`` of
an abelian group is matched with the coset module of ``H`` exactly when
``kappa`` restricts trivially to ``H`` - the closed-form oracle used to
cross-check the eigenvalue solver.

Cocycle twists are ignored throughout: they constrain which modules exist but
never change the multiplicity matrices, and the trace criterion depends only
on ``kappa`` and ``H``.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np

from .common import (
    DEFAULT_TOL,
    StructuralError,
    UnsupportedError,
)
from .chars import DimChar, _sort_keys, snap_components
from .fusion import FusionRing, _int_array
from .nimrep import NimRep

#: Largest group order accepted by the subgroup enumerator.
SUBGROUP_ORDER_BOUND = 64


@dataclass(frozen=True, eq=False)
class GroupTable:
    """Multiplication table of a finite group, validated on construction."""

    order: int
    mul: np.ndarray
    labels: tuple[str, ...] | None = None
    identity: int = field(init=False)
    inverse: np.ndarray = field(init=False)

    def __post_init__(self):
        g = int(_int_array(self.order, "order", ()))
        if g < 1:
            raise StructuralError("group order must be positive")
        object.__setattr__(self, "order", g)
        mul = _int_array(self.mul, "mul", (g, g))
        if mul.min() < 0 or mul.max() >= g:
            raise StructuralError("multiplication table entries out of range")
        # rows and columns must be permutations
        full = np.arange(g)
        rows_ok = (np.sort(mul, axis=1) == full).all(axis=1)
        cols_ok = (np.sort(mul, axis=0) == full[:, None]).all(axis=0)
        bad = np.flatnonzero(~(rows_ok & cols_ok))
        if bad.size:
            raise StructuralError(f"row/column {bad[0]} is not a permutation")
        # associativity, vectorised: (ab)c = a(bc)
        if not np.array_equal(mul[mul, :], mul[:, mul]):
            raise StructuralError("multiplication table is not associative")
        # e with e*a = a and a*e = a for every a
        units = np.flatnonzero((mul == full).all(axis=1) & (mul == full[:, None]).all(axis=0))
        if not units.size:
            raise StructuralError("table has no identity element")
        identity = units[0]
        hits = mul == identity
        bad = np.flatnonzero(hits.sum(axis=1) != 1)
        if bad.size:
            raise StructuralError(f"element {bad[0]} has no unique inverse")
        inverse = hits.argmax(axis=1).astype(np.int64)
        mul.flags.writeable = False
        inverse.flags.writeable = False
        object.__setattr__(self, "mul", mul)
        object.__setattr__(self, "identity", int(identity))
        object.__setattr__(self, "inverse", inverse)
        if self.labels is not None:
            labels = tuple(str(s) for s in self.labels)
            if len(labels) != g:
                raise StructuralError("label count does not match order")
            object.__setattr__(self, "labels", labels)

    def label(self, a: int) -> str:
        if self.labels is not None:
            return self.labels[a]
        return "e" if a == self.identity else f"g{a}"

    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.mul, self.mul.T))

    def to_dict(self) -> dict:
        return {"order": self.order, "mul": self.mul.tolist()}

    def __eq__(self, other):
        if not isinstance(other, GroupTable):
            return NotImplemented
        return self.order == other.order and np.array_equal(self.mul, other.mul)

    def __repr__(self) -> str:
        return f"GroupTable(order={self.order})"


def cyclic_table(n: int) -> GroupTable:
    """The cyclic group of order ``n`` with exponent labels."""
    if n < 1:
        raise StructuralError("cyclic group order must be positive")
    idx = np.arange(n)
    mul = (idx[:, None] + idx[None, :]) % n
    labels = ["e"] + [f"g{k}" if k > 1 else "g" for k in range(1, n)]
    return GroupTable(n, mul, tuple(labels))


def direct_product(t1: GroupTable, t2: GroupTable) -> GroupTable:
    """Direct product; element ``(a, b)`` gets index ``a * |G2| + b``."""
    g1, g2 = t1.order, t2.order
    # (a, b) * (c, d) = (ac, bd), indexed [a, b, c, d]
    mul = t1.mul[:, None, :, None] * g2 + t2.mul[None, :, None, :]
    mul = mul.reshape(g1 * g2, g1 * g2)
    labels = tuple(
        f"({t1.label(a)},{t2.label(b)})" for a in range(g1) for b in range(g2)
    )
    return GroupTable(g1 * g2, mul, labels)


def group_ring(table: GroupTable) -> FusionRing:
    """The group ring as a fusion ring: permutation structure constants.

    Shared per table: while a ring built from ``table`` is still referenced,
    every call returns that same object, so the characters and coset
    modules of one table share one ring.  The table holds it only weakly,
    so a table kept for later costs no ring's memory in between.
    """
    ref = table.__dict__.get("_ring")
    ring = ref() if ref is not None else None
    if ring is None:
        g = table.order
        N = np.zeros((g, g, g), dtype=np.int64)
        N[np.arange(g)[:, None], np.arange(g)[None, :], table.mul] = 1
        labels = tuple(table.label(a) for a in range(g))
        ring = FusionRing(g, labels, table.identity, table.inverse.copy(), N)
        table.__dict__["_ring"] = weakref.ref(ring)
    return ring


def group_characters(table: GroupTable) -> list[DimChar]:
    """All linear characters of an abelian group, as exact roots of unity.

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
    if not table.is_abelian():
        raise UnsupportedError("character construction requires an abelian group")
    g, mul = table.order, table.mul
    ring = group_ring(table)

    covered = np.array([table.identity])
    position = np.full(g, -1)
    position[table.identity] = 0
    exps = np.zeros((1, 1), dtype=np.int64)  # exps[i, p]: exponent of character i at covered[p]

    for x in range(g):
        if position[x] >= 0:
            continue
        # order of x relative to the covered subgroup, and its powers below it
        powers = [table.identity]
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
    values = snap_components(values)
    keys = _sort_keys(values)
    order = sorted(range(len(keys)), key=keys.__getitem__, reverse=True)
    return [DimChar(ring, values[i]) for i in order]


#: Bytes of the boolean work array one closure step of :func:`subgroups` may use.
_CLOSURE_BYTES = 1 << 21


def _close(table: GroupTable, sets: np.ndarray) -> np.ndarray:
    """The subgroup generated by each row of a boolean ``(m, g)`` membership array.

    Every row must hold the identity.  A row is replaced by the set of its
    pairwise products until that no longer grows; in a finite group a
    product-closed set holding the identity is a subgroup.
    """
    left_div = table.mul[table.inverse]  # [a, b] = a^-1 b
    while True:
        # b is a product a * (a^-1 b) of two members for some member a
        products = (sets[:, :, None] & sets[:, left_div]).any(axis=1)
        if np.array_equal(products, sets):
            return sets
        sets = products


def span(table: GroupTable, generators) -> tuple[int, ...]:
    """The subgroup generated by a set of elements, as a sorted index tuple."""
    gens = sorted({int(x) for x in generators})
    for x in gens:
        if not 0 <= x < table.order:
            raise StructuralError(f"generator {x} out of range")
    mask = np.zeros((1, table.order), dtype=bool)
    mask[0, gens] = True
    mask[0, table.identity] = True
    return tuple(np.flatnonzero(_close(table, mask)[0]).tolist())


def subgroups(table: GroupTable, bound: int = SUBGROUP_ORDER_BOUND) -> list[tuple[int, ...]]:
    """All subgroups, by closure of one-generator extensions.

    ``<H, x>`` depends only on the left coset ``xH``, so each subgroup is
    extended by the smallest element of each coset other than ``H`` itself,
    a whole level of subgroups at a time.  Sorted by size, then
    lexicographically.  Groups of order beyond ``bound`` (default 64) are
    rejected to keep the enumeration tractable.
    """
    g, mul = table.order, table.mul
    if g > bound:
        raise UnsupportedError(
            f"subgroup enumeration is limited to order <= {bound} (got {g})"
        )
    frontier = np.zeros((1, g), dtype=bool)
    frontier[0, table.identity] = True
    found = {frontier[0].tobytes(): frontier[0]}
    # b subgroups extend to at most b * g sets, each closed with a (g, g) step
    per_block = max(1, _CLOSURE_BYTES // g**3)
    while len(frontier):
        new = []
        for lo in range(0, len(frontier), per_block):
            block = frontier[lo : lo + per_block]
            coset_min = np.where(block[:, None, :], mul[None], g).min(axis=2)  # [j, a]: min of aH_j
            reps = np.zeros_like(block)
            reps[np.arange(len(block))[:, None], coset_min] = True
            which, extra = np.nonzero(reps & ~block)
            sets = block[which]
            sets[np.arange(which.size), extra] = True
            for row in _close(table, sets):
                key = row.tobytes()
                if key not in found:
                    found[key] = row
                    new.append(row)
        frontier = np.array(new, dtype=bool).reshape(-1, g)
    subs = [tuple(np.flatnonzero(row).tolist()) for row in found.values()]
    return sorted(subs, key=lambda s: (len(s), s))


def _subgroup_mask(table: GroupTable, H) -> np.ndarray:
    """``H`` as a membership mask; :class:`StructuralError` unless it is a subgroup."""
    idx = np.array(sorted({int(x) for x in H}), dtype=np.int64)
    if not idx.size or idx[0] < 0 or idx[-1] >= table.order:
        raise StructuralError("H must be a non-empty set of element indices")
    mask = np.zeros(table.order, dtype=bool)
    mask[idx] = True
    if not (mask[table.identity] and mask[table.mul[np.ix_(idx, idx)]].all()):
        raise StructuralError("H is not closed under the group product")
    return mask


def vect_g_module(table: GroupTable, H) -> NimRep:
    """The coset module of a subgroup ``H``: group elements permute the cosets.

    Simple module objects are the cosets ``aH`` ordered by their smallest
    element; ``x`` acts by ``aH -> (xa)H``.  The result is an indecomposable
    NIM-rep of the group ring of rank ``|G| / |H|``.
    """
    sub = np.flatnonzero(_subgroup_mask(table, H))
    # coset_of[a] numbers aH by the rank of its smallest element
    reps, coset_of = np.unique(table.mul[:, sub].min(axis=1), return_inverse=True)
    g, k = table.order, reps.size
    M = np.zeros((g, k, k), dtype=np.int64)
    M[np.arange(g)[:, None], coset_of[table.mul[:, reps]], np.arange(k)[None, :]] = 1
    return NimRep(group_ring(table), k, M)


def matched_vectg_oracle(table: GroupTable, H, kappa, tol: float = DEFAULT_TOL) -> bool:
    """Closed-form trace-existence test: ``kappa`` restricts trivially to ``H``.

    Independent of the dimension-matrix machinery; used to cross-validate the
    eigenvalue criterion on group-graded instances.
    """
    values = kappa.d if isinstance(kappa, DimChar) else np.asarray(kappa, dtype=complex)
    elems = np.flatnonzero(_subgroup_mask(table, H))
    return all(abs(values[h] - 1.0) <= tol for h in elems)
