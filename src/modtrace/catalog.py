"""Builtin fusion rings, their pivotal candidates, and builtin groups."""

from __future__ import annotations

import math

import numpy as np

from .chars import DimChar, _characters
from .common import UsageError
from .fusion import FusionRing
from .groups import GroupTable, cyclic_table, direct_product, group_characters, group_ring

#: Names accepted by :func:`builtin` (``zn:<n>`` works for any n >= 1).
BUILTIN_RINGS = ("fibonacci", "ising", "rep_s3", "zn:<n>")

#: Names accepted by :func:`builtin_group` (``Z:<n>`` works for any n >= 1).
BUILTIN_GROUPS = ("Z:<n>", "S3", "Z2xZ2")

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def fibonacci_ring() -> FusionRing:
    """Two simples 1, tau with tau * tau = 1 + tau."""
    N = np.zeros((2, 2, 2), dtype=np.int64)
    N[0, 0, 0] = N[0, 1, 1] = N[1, 0, 1] = 1
    N[1, 1, 0] = N[1, 1, 1] = 1
    return FusionRing(2, ("1", "tau"), 0, [0, 1], N)


def ising_ring() -> FusionRing:
    """Three simples 1, eps, sigma with sigma * sigma = 1 + eps."""
    N = np.zeros((3, 3, 3), dtype=np.int64)
    for b in range(3):
        N[0, b, b] = 1
        N[b, 0, b] = 1
    N[1, 1, 0] = 1
    N[1, 2, 2] = N[2, 1, 2] = 1
    N[2, 2, 0] = N[2, 2, 1] = 1
    return FusionRing(3, ("1", "eps", "sigma"), 0, [0, 1, 2], N)


def rep_s3_ring() -> FusionRing:
    """Three simples 1, sgn, V with V * V = 1 + sgn + V."""
    N = np.zeros((3, 3, 3), dtype=np.int64)
    for b in range(3):
        N[0, b, b] = 1
        N[b, 0, b] = 1
    N[1, 1, 0] = 1
    N[1, 2, 2] = N[2, 1, 2] = 1
    N[2, 2, 0] = N[2, 2, 1] = N[2, 2, 2] = 1
    return FusionRing(3, ("1", "sgn", "V"), 0, [0, 1, 2], N)


def s3_table() -> GroupTable:
    """The symmetric group on three points; elements are one-line strings."""
    perms = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    index = {p: i for i, p in enumerate(perms)}
    mul = np.empty((6, 6), dtype=np.int64)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            composed = tuple(p[q[x]] for x in range(3))
            mul[i, j] = index[composed]
    labels = tuple("".join(map(str, p)) for p in perms)
    return GroupTable(6, mul, labels)


def is_builtin_group(name: str) -> bool:
    """True when ``name`` is meant for :func:`builtin_group` rather than a file.

    A malformed ``Z:`` name counts, so that its bad order is reported.
    """
    return name.startswith("Z:") or name in BUILTIN_GROUPS


def builtin_group(name: str) -> GroupTable:
    """Look up a builtin group: ``Z:<n>``, ``S3`` or ``Z2xZ2``."""
    if name.startswith("Z:"):
        try:
            n = int(name[2:])
        except ValueError:
            raise UsageError(f"bad cyclic group order in {name!r}") from None
        return cyclic_table(n)
    if name == "S3":
        return s3_table()
    if name == "Z2xZ2":
        return direct_product(cyclic_table(2), cyclic_table(2))
    raise UsageError(f"unknown builtin group {name!r} (available: {', '.join(BUILTIN_GROUPS)})")


def builtin(name: str) -> tuple[FusionRing, list[DimChar]]:
    """A builtin ring and its pivotal candidates in closed form.

    The character list matches :func:`modtrace.chars.enumerate_characters` in
    content and order; candidates with a zero entry (such as the hook
    character of the ``rep_s3`` ring) are excluded.
    """
    if name == "fibonacci":
        ring = fibonacci_ring()
        return ring, _characters(ring, [[1.0, GOLDEN], [1.0, 1.0 - GOLDEN]])
    if name == "ising":
        ring = ising_ring()
        root2 = math.sqrt(2.0)
        return ring, _characters(ring, [[1.0, 1.0, root2], [1.0, 1.0, -root2]])
    if name == "rep_s3":
        ring = rep_s3_ring()
        return ring, _characters(ring, [[1.0, 1.0, 2.0], [1.0, 1.0, -1.0]])
    if name.startswith("zn:"):
        try:
            n = int(name[3:])
        except ValueError:
            raise UsageError(f"bad cyclic order in {name!r}") from None
        if n < 1:
            raise UsageError("cyclic order must be positive")
        table = cyclic_table(n)
        return group_ring(table), group_characters(table)
    raise UsageError(f"unknown builtin ring {name!r} (available: {', '.join(BUILTIN_RINGS)})")
