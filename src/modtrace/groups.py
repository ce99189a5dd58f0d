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

from dataclasses import dataclass, field

import numpy as np

from .common import (
    DEFAULT_TOL,
    StructuralError,
    UnsupportedError,
)
from .chars import DimChar, char_sort_key, snap_components
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
        for a in range(g):
            if not np.array_equal(np.sort(mul[a]), full) or not np.array_equal(
                np.sort(mul[:, a]), full
            ):
                raise StructuralError(f"row/column {a} is not a permutation")
        # associativity, vectorised: (ab)c = a(bc)
        if not np.array_equal(mul[mul, :], mul[:, mul]):
            raise StructuralError("multiplication table is not associative")
        identity = None
        for e in range(g):
            if np.array_equal(mul[e], full) and np.array_equal(mul[:, e], full):
                identity = e
                break
        if identity is None:
            raise StructuralError("table has no identity element")
        inverse = np.empty(g, dtype=np.int64)
        for a in range(g):
            hits = np.nonzero(mul[a] == identity)[0]
            if hits.size != 1:
                raise StructuralError(f"element {a} has no unique inverse")
            inverse[a] = hits[0]
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
    mul = np.empty((g1 * g2, g1 * g2), dtype=np.int64)
    for a in range(g1):
        for b in range(g2):
            row = t1.mul[a][:, None] * g2 + t2.mul[b][None, :]
            mul[a * g2 + b] = row.reshape(-1)
    labels = tuple(
        f"({t1.label(a)},{t2.label(b)})" for a in range(g1) for b in range(g2)
    )
    return GroupTable(g1 * g2, mul, labels)


def group_ring(table: GroupTable) -> FusionRing:
    """The group ring as a fusion ring: permutation structure constants."""
    g = table.order
    N = np.zeros((g, g, g), dtype=np.int64)
    idx = np.arange(g)
    for a in range(g):
        N[a, idx, table.mul[a]] = 1
    labels = tuple(table.label(a) for a in range(g))
    return FusionRing(g, labels, table.identity, table.inverse.copy(), N)


def group_characters(table: GroupTable) -> list[DimChar]:
    """All linear characters of an abelian group, as exact roots of unity.

    Built by extending characters along a chain of subgroups: adjoining an
    element ``x`` with ``x^r`` already covered multiplies the character count
    by ``r``, the new values being the ``r``-th roots of the known value.
    All arithmetic is on integer exponents modulo the group order, so no
    eigensolver and no rounding is involved.
    """
    if not table.is_abelian():
        raise UnsupportedError("character construction requires an abelian group")
    g, mul = table.order, table.mul
    ring = group_ring(table)

    covered = [table.identity]
    position = {table.identity: 0}
    chars: list[list[int]] = [[0]]  # exponent of each character on `covered`

    for x in range(g):
        if x in position:
            continue
        # order of x relative to the covered subgroup
        r, power = 1, x
        while power not in position:
            power = mul[power, x]
            r += 1
        anchor = position[power]  # x^r sits at this covered position

        new_covered = list(covered)
        new_position = dict(position)
        offsets = []  # (covered index of a, exponent step t) for each new element a*x^t
        for t in range(1, r):
            for a_idx, a in enumerate(covered):
                elem = a
                for _ in range(t):
                    elem = mul[elem, x]
                new_position[elem] = len(new_covered)
                new_covered.append(elem)
                offsets.append((a_idx, t))

        extended: list[list[int]] = []
        for exps in chars:
            c = exps[anchor]
            assert c % r == 0  # kappa(x^r) is an r-th power in the exponent lattice
            for j in range(r):
                dexp = (c // r + j * (g // r)) % g
                new_exps = list(exps)
                for a_idx, t in offsets:
                    new_exps.append((exps[a_idx] + t * dexp) % g)
                extended.append(new_exps)
        covered, position, chars = new_covered, new_position, extended

    result = []
    for exps in chars:
        values = np.empty(g, dtype=complex)
        for pos, elem in enumerate(covered):
            values[elem] = np.exp(2j * np.pi * exps[pos] / g)
        result.append(DimChar(ring, snap_components(values)))
    result.sort(key=lambda ch: char_sort_key(ch.d), reverse=True)
    return result


def span(table: GroupTable, generators) -> tuple[int, ...]:
    """The subgroup generated by a set of elements, as a sorted index tuple."""
    elems = {table.identity}
    frontier = [table.identity]
    gens = sorted({int(x) for x in generators})
    for x in gens:
        if not 0 <= x < table.order:
            raise StructuralError(f"generator {x} out of range")
    while frontier:
        new = []
        for a in frontier:
            for x in gens:
                b = int(table.mul[a, x])
                if b not in elems:
                    elems.add(b)
                    new.append(b)
        frontier = new
    # words in the generators form the full subgroup: inverses are positive powers
    return tuple(sorted(elems))


def subgroups(table: GroupTable, bound: int = SUBGROUP_ORDER_BOUND) -> list[tuple[int, ...]]:
    """All subgroups, by closure of one-generator extensions.

    Sorted by size, then lexicographically.  Groups of order beyond ``bound``
    (default 64) are rejected to keep the enumeration tractable.
    """
    if table.order > bound:
        raise UnsupportedError(
            f"subgroup enumeration is limited to order <= {bound} (got {table.order})"
        )
    trivial = (table.identity,)
    found = {trivial}
    frontier = [trivial]
    while frontier:
        new = []
        for sub in frontier:
            inside = set(sub)
            for x in range(table.order):
                if x in inside:
                    continue
                bigger = span(table, set(sub) | {x})
                if bigger not in found:
                    found.add(bigger)
                    new.append(bigger)
        frontier = new
    return sorted(found, key=lambda s: (len(s), s))


def _is_subgroup(table: GroupTable, elems: set[int]) -> bool:
    if table.identity not in elems:
        return False
    return all(int(table.mul[a, b]) in elems for a in elems for b in elems)


def vect_g_module(table: GroupTable, H) -> NimRep:
    """The coset module of a subgroup ``H``: group elements permute the cosets.

    Simple module objects are the cosets ``aH`` ordered by their smallest
    element; ``x`` acts by ``aH -> (xa)H``.  The result is an indecomposable
    NIM-rep of the group ring of rank ``|G| / |H|``.
    """
    elems = {int(x) for x in H}
    if not elems or any(not 0 <= x < table.order for x in elems):
        raise StructuralError("H must be a non-empty set of element indices")
    if not _is_subgroup(table, elems):
        raise StructuralError("H is not closed under the group product")
    g = table.order
    coset_of = {}
    coset_reps = []
    for a in range(g):
        if a in coset_of:
            continue
        members = sorted(int(table.mul[a, h]) for h in elems)
        idx = len(coset_reps)
        coset_reps.append(members[0])
        for mbr in members:
            coset_of[mbr] = idx
    k = len(coset_reps)
    M = np.zeros((g, k, k), dtype=np.int64)
    for x in range(g):
        for i, a in enumerate(coset_reps):
            M[x, coset_of[int(table.mul[x, a])], i] = 1
    return NimRep(group_ring(table), k, M)


def matched_vectg_oracle(table: GroupTable, H, kappa, tol: float = DEFAULT_TOL) -> bool:
    """Closed-form trace-existence test: ``kappa`` restricts trivially to ``H``.

    Independent of the dimension-matrix machinery; used to cross-validate the
    eigenvalue criterion on group-graded instances.
    """
    values = kappa.d if isinstance(kappa, DimChar) else np.asarray(kappa, dtype=complex)
    elems = {int(x) for x in H}
    if not _is_subgroup(table, elems):
        raise StructuralError("H is not closed under the group product")
    return all(abs(values[h] - 1.0) <= tol for h in elems)
