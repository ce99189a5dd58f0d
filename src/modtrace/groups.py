"""Finite group tables and the graded-vector-space instance generators.

A group of order ``g`` is a ``g x g`` multiplication table on indices.  Its
group ring is a fusion ring with ``N[a][b][c] = delta(ab, c)``, duality given
by inversion and the table as its ``pointed_table``, so that validation,
modules and characters take the pointed routes.  Module categories over the
graded-vector-space category come from subgroups ``H``: simple module objects
are the cosets of ``H`` and a group element acts by left multiplication.  A
linear character ``kappa`` of an abelian group is matched with the coset
module of ``H`` exactly when ``kappa`` restricts trivially to ``H`` - the
closed-form oracle used to cross-check the eigenvalue solver.

Cocycle twists are ignored throughout: they constrain which modules exist but
never change the multiplicity matrices, and the trace criterion depends only
on ``kappa`` and ``H``.
"""

from __future__ import annotations

import operator
import weakref
from dataclasses import dataclass, field

import numpy as np

from .common import (
    DEFAULT_TOL,
    StructuralError,
    UnsupportedError,
    readonly_setstate,
    require_budget,
)
from .chars import DimChar, _pointed_characters
from .fusion import FusionRing, _composes, _group_ring, _int_array
from .nimrep import NimRep

#: Largest group order accepted by the subgroup enumerator.
SUBGROUP_ORDER_BOUND = 64


@dataclass(frozen=True, eq=False)
class GroupTable:
    """Multiplication table of a finite group.

    ``GroupTable(order, mul, labels)`` checks the table it is given: the entries' range, that
    every row and column is a permutation, and associativity, in O(g^3) time and
    ``_composes_bytes(g, g)`` bytes; then it reads off the identity and the inverses.  Tables
    from callers and from :func:`~modtrace.files.load_group` are checked so.
    :func:`cyclic_table`, :func:`direct_product` and :func:`~modtrace.catalog.s3_table` build
    groups by construction and hand theirs over, with identity and inverse, through
    :meth:`_of_group`, each refused by the bytes of its own table.
    """

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
        if not _composes(mul, mul):
            raise StructuralError("multiplication table is not associative")
        # an associative Latin square is a group: e is the one with 0 * e = 0
        identity = int((mul[0] == 0).argmax())
        inverse = (mul == identity).argmax(axis=1)
        mul.flags.writeable = False
        inverse.flags.writeable = False
        object.__setattr__(self, "mul", mul)
        object.__setattr__(self, "identity", identity)
        object.__setattr__(self, "inverse", inverse)
        if self.labels is not None:
            if not isinstance(self.labels, (list, tuple)):
                raise StructuralError("labels must be a list")
            labels = tuple(str(s) for s in self.labels)
            if len(labels) != g:
                raise StructuralError("label count does not match order")
            object.__setattr__(self, "labels", labels)

    @classmethod
    def _of_group(cls, mul: np.ndarray, labels, identity: int, inverse: np.ndarray) -> GroupTable:
        """The table of a group by construction, kept as handed over, unchecked: read-only int64
        ``mul`` and ``inverse``, a tuple of labels or ``None``, and the identity's index."""
        table = object.__new__(cls)
        vars(table).update(order=len(mul), mul=mul, labels=labels, identity=identity, inverse=inverse)
        return table

    def __getstate__(self) -> dict:
        # pickle refuses the weak reference of the group_ring memo; group_ring rebuilds it
        return {key: value for key, value in self.__dict__.items() if key != "_ring"}

    __setstate__ = readonly_setstate

    def label(self, a: int) -> str:
        if self.labels is not None:
            return self.labels[a]
        return "e" if a == self.identity else f"g{a}"

    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.mul, self.mul.T))

    def __eq__(self, other):
        if not isinstance(other, GroupTable):
            return NotImplemented
        return self.order == other.order and np.array_equal(self.mul, other.mul)

    def __repr__(self) -> str:
        return f"GroupTable(order={self.order})"


def cyclic_table(n: int) -> GroupTable:
    """The cyclic group of order ``n`` with exponent labels, ``a * b = (a + b) mod n``.

    A group by construction, so its table is handed over unchecked, in O(n^2) time: it is
    refused by its ``8 * n^2`` bytes of table, copied from a strided view of ``2 * n``
    residues, and peaks within ``8 * n^2 + 128 * n + 2048`` bytes with its labels, inverse and
    array headers.  ``n`` must be a positive integer; a float is refused with
    :class:`TypeError`.
    """
    n = _require_cyclic_order(n)
    cycle = np.arange(2 * n, dtype=np.int64)
    cycle[n:] -= n  # the residues (a + b) mod n for a + b < 2 * n
    # row a is cycle[a : a + n], so mul[a, b] = cycle[a + b]
    mul = np.ndarray((n, n), np.int64, cycle, strides=cycle.strides * 2).copy()
    inverse = cycle[n:0:-1].copy()  # -a mod n
    mul.flags.writeable = False
    inverse.flags.writeable = False
    labels = ["e"] + [f"g{k}" if k > 1 else "g" for k in range(1, n)]
    return GroupTable._of_group(mul, tuple(labels), 0, inverse)


def _require_cyclic_order(n: int) -> int:
    """``n`` as an ``int``, refused as :func:`cyclic_table` refuses it: a positive integer whose
    ``8 * n^2`` bytes of table are within the budget."""
    if n < 1:
        raise StructuralError("cyclic group order must be positive")
    if isinstance(n, bool):
        raise StructuralError("order must be an integer array")
    n = operator.index(n)
    require_budget(8 * n * n, "the cyclic group of order %d", n)
    return n


def direct_product(t1: GroupTable, t2: GroupTable) -> GroupTable:
    """Direct product; element ``(a, b)`` gets index ``a * |G2| + b``.

    A group by construction, so its table is handed over unchecked, in O(g^2) time and within
    ``8 * g^2`` bytes of table, ``g = |G1| * |G2|``; that is the budget it is refused by.
    """
    g1, g2 = t1.order, t2.order
    require_budget(8 * (g1 * g2) ** 2, "the direct product of groups of order %d and %d", g1, g2)
    # (a, b) * (c, d) = (ac, bd), indexed [a, b, c, d]
    mul = t1.mul[:, None, :, None] * g2 + t2.mul[None, :, None, :]
    mul = mul.reshape(g1 * g2, g1 * g2)
    inverse = (t1.inverse[:, None] * g2 + t2.inverse[None, :]).reshape(g1 * g2)
    mul.flags.writeable = False
    inverse.flags.writeable = False
    left, right = ([t.label(a) for a in range(t.order)] for t in (t1, t2))
    labels = tuple(f"({a},{b})" for a in left for b in right)
    return GroupTable._of_group(mul, labels, t1.identity * g2 + t2.identity, inverse)


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
        labels = tuple(table.label(a) for a in range(table.order))
        ring = _group_ring(table.mul, labels, table.identity, table.inverse)
        table.__dict__["_ring"] = weakref.ref(ring)
    return ring


def group_characters(table: GroupTable) -> list[DimChar]:
    """All linear characters of an abelian group, as exact roots of unity.

    Read off the group's exponent chain by the route that
    :func:`~modtrace.chars.enumerate_characters` takes on the group ring.
    """
    if not table.is_abelian():
        raise UnsupportedError("character construction requires an abelian group")
    return _pointed_characters(group_ring(table), table.mul, DEFAULT_TOL)


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


def subgroups(table: GroupTable) -> list[tuple[int, ...]]:
    """All subgroups, by closure of one-generator extensions.

    ``<H, x>`` depends only on the left coset ``xH``, so each subgroup is
    extended by the smallest element of each coset other than ``H`` itself,
    a whole level of subgroups at a time.  Sorted by size, then
    lexicographically.  Groups of order beyond :data:`SUBGROUP_ORDER_BOUND`
    are rejected to keep the enumeration tractable.
    """
    g, mul = table.order, table.mul
    _require_subgroup_order(g)
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


def _require_subgroup_order(g: int) -> None:
    """Refuse, as :func:`subgroups` does, the subgroups of a group of order ``g`` beyond
    :data:`SUBGROUP_ORDER_BOUND`."""
    if g > SUBGROUP_ORDER_BOUND:
        raise UnsupportedError(
            f"subgroup enumeration is limited to order <= {SUBGROUP_ORDER_BOUND} (got {g})"
        )


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
    NIM-rep of the group ring of rank ``|G| / |H|``: ``G`` acts transitively on
    ``G/H``, so the rep carries that answer of
    :func:`~modtrace.nimrep.is_indecomposable` from construction.
    """
    sub = np.flatnonzero(_subgroup_mask(table, H))
    # coset_of[a] numbers aH by the rank of its smallest element
    reps, coset_of = np.unique(table.mul[:, sub].min(axis=1), return_inverse=True)
    g, k = table.order, reps.size
    M = np.zeros((g, k, k), dtype=np.int64)
    M[np.arange(g)[:, None], coset_of[table.mul[:, reps]], np.arange(k)[None, :]] = 1
    M.flags.writeable = False  # handed over without a copy
    rep = NimRep(group_ring(table), k, M)
    rep.__dict__["_indecomposable"] = True
    return rep


#: Absolute bound of :func:`matched_vectg_oracle` on ``|kappa(h) - 1|``; the oracle's
#: own, apart from :func:`~modtrace.common.negligible`.
ORACLE_TOL = 1e-9


def matched_vectg_oracle(table: GroupTable, H, kappa) -> bool:
    """Closed-form trace-existence test: ``kappa`` restricts trivially to ``H``.

    Independent of the dimension-matrix machinery; used to cross-validate the
    eigenvalue criterion on group-graded instances.
    """
    values = kappa.d if isinstance(kappa, DimChar) else np.asarray(kappa, dtype=complex)
    elems = np.flatnonzero(_subgroup_mask(table, H))
    return all(abs(values[h] - 1.0) <= ORACLE_TOL for h in elems)
