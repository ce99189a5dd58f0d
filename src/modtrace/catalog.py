"""Builtin fusion rings, their pivotal candidates, and builtin groups."""

from __future__ import annotations

import itertools
import math

import numpy as np

from .chars import DimChar, _characters
from .common import UsageError
from .fusion import FusionRing, _require_group_ring_budget
from .groups import GroupTable, cyclic_table, direct_product, group_characters, group_ring

_GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0
_ROOT2 = math.sqrt(2.0)

# Self-dual rings with unit 0: name -> (labels, {(a, b): simples in a * b = b * a
# for non-unit a <= b, each once}, closed-form characters).
_NAMED_RINGS = {
    "fibonacci": (("1", "tau"), {(1, 1): [0, 1]}, [[1.0, _GOLDEN], [1.0, 1.0 - _GOLDEN]]),
    "ising": (
        ("1", "eps", "sigma"),
        {(1, 1): [0], (1, 2): [2], (2, 2): [0, 1]},
        [[1.0, 1.0, _ROOT2], [1.0, 1.0, -_ROOT2]],
    ),
    "rep_s3": (
        ("1", "sgn", "V"),
        {(1, 1): [0], (1, 2): [2], (2, 2): [0, 1, 2]},
        [[1.0, 1.0, 2.0], [1.0, 1.0, -1.0]],
    ),
}


def s3_table() -> GroupTable:
    """The symmetric group on three points; elements are one-line strings in lexicographic order.

    A group by construction: its table is composed from the permutations and handed over,
    with identity ``012`` and inverses, unchecked.
    """
    perms = np.array(list(itertools.permutations(range(3))))

    def index(images):  # of the listed permutation equal to each row of ``images``
        return (images[..., None, :] == perms).all(axis=-1).argmax(axis=-1)

    mul = index(perms[:, perms])  # [i, j, x] = p_i(p_j(x))
    inverse = index(perms.argsort(axis=1))
    mul.flags.writeable = False
    inverse.flags.writeable = False
    labels = tuple("".join(map(str, p)) for p in perms.tolist())
    return GroupTable._of_group(mul, labels, 0, inverse)


_NAMED_GROUPS = {"S3": s3_table, "Z2xZ2": lambda: direct_product(cyclic_table(2), cyclic_table(2))}

#: Names accepted by :func:`builtin` (``zn:<n>`` for 1 <= n <= 322: its ring within the budget).
BUILTIN_RINGS = (*_NAMED_RINGS, "zn:<n>")

#: Names accepted by :func:`builtin_group` (``Z:<n>`` for 1 <= n <= 5792: its table within the budget).
BUILTIN_GROUPS = ("Z:<n>", *_NAMED_GROUPS)


def _cyclic_order(name: str, what: str) -> int:
    """The ``<n>`` of ``zn:<n>`` or ``Z:<n>``; ``what`` names it in the error."""
    try:
        return int(name.partition(":")[2])
    except ValueError:
        raise UsageError(f"bad {what} in {name!r}") from None


def is_builtin_group(name: str) -> bool:
    """True when ``name`` is meant for :func:`builtin_group` rather than a file.

    A malformed ``Z:`` name counts, so that its bad order is reported.
    """
    return name.startswith("Z:") or name in _NAMED_GROUPS


def builtin_group(name: str) -> GroupTable:
    """Look up a builtin group: ``Z:<n>``, ``S3`` or ``Z2xZ2``."""
    if name.startswith("Z:"):
        return cyclic_table(_cyclic_order(name, "cyclic group order"))
    if name in _NAMED_GROUPS:
        return _NAMED_GROUPS[name]()
    raise UsageError(f"unknown builtin group {name!r} (available: {', '.join(BUILTIN_GROUPS)})")


def builtin(name: str) -> tuple[FusionRing, list[DimChar]]:
    """A builtin ring and its pivotal candidates in closed form.

    The character list matches :func:`modtrace.chars.enumerate_characters` in
    content and order; candidates with a zero entry (such as the hook
    character of the ``rep_s3`` ring) are excluded.  ``zn:<n>`` is refused by its ring's
    ``8 * n^3`` bytes before its table is formed, and peaks within ``8 * n^3 + 10 * 16 * n^2 +
    8192 * n`` bytes: its ``N``, made once, and its characters, listed as on the pointed route
    of :func:`~modtrace.chars.enumerate_characters`, beside the group's tables.
    """
    if name in _NAMED_RINGS:
        labels, products, rows = _NAMED_RINGS[name]
        n = len(labels)
        simples = np.arange(n)
        N = np.zeros((n, n, n), dtype=np.int64)
        N[0, simples, simples] = N[simples, 0, simples] = 1  # 1 * b = b * 1 = b
        for (a, b), c in products.items():
            N[a, b, c] = N[b, a, c] = 1
        ring = FusionRing(n, labels, 0, simples, N)
        return ring, _characters(ring, rows)
    if name.startswith("zn:"):
        n = _cyclic_order(name, "cyclic order")
        if n < 1:
            raise UsageError("cyclic order must be positive")
        _require_group_ring_budget(n)  # the ring is the largest step: refused before the table
        table = cyclic_table(n)
        return group_ring(table), group_characters(table)
    raise UsageError(f"unknown builtin ring {name!r} (available: {', '.join(BUILTIN_RINGS)})")
