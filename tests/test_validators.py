"""The chunked ring and NIM-rep validators against their full-tensor references."""

import tracemalloc

import numpy as np
import pytest

import modtrace as mt
from helpers import (
    NAMED_RINGS,
    fusion_violations_reference,
    nimrep_violations_reference,
    typed_violations,
)

RINGS = NAMED_RINGS + tuple(f"zn:{n}" for n in range(1, 13)) + ("S3",)


def _ring(name):
    if name == "S3":
        return mt.group_ring(mt.builtin_group("S3"))
    return mt.builtin(name)[0]


def _corrupt(arr, rng):
    """A copy with one to three entries set to random small values."""
    out = arr.copy()
    flat = out.reshape(-1)
    for pos in rng.choice(flat.size, size=min(flat.size, rng.integers(1, 4)), replace=False):
        flat[pos] = rng.integers(0, 3)
    return out


@pytest.mark.parametrize("name", RINGS)
def test_ring_violations_match_full_tensor_reference(name):
    ring = _ring(name)
    rng = np.random.default_rng(sum(map(ord, name)))
    seen = set()
    for trial in range(20):
        dual = ring.dual.copy()
        if trial % 5 == 4 and ring.rank > 1:
            a, b = rng.choice(ring.rank, size=2, replace=False)
            dual[[a, b]] = dual[[b, a]]
        broken = mt.FusionRing(ring.rank, ring.labels, ring.unit, dual, _corrupt(ring.N, rng))
        got = mt.validate_fusion_ring(broken).violations
        expected = fusion_violations_reference(broken)
        assert typed_violations(got) == typed_violations(expected)
        seen.update(v.axiom for v in expected)
    assert "associativity" in seen or ring.rank == 1


@pytest.mark.parametrize("name", RINGS)
def test_nimrep_violations_match_pairwise_reference(name):
    ring = _ring(name)
    rep = mt.regular_module(ring)
    rng = np.random.default_rng(sum(map(ord, name)) + 1)
    seen = set()
    for trial in range(20):
        M = _corrupt(rep.M, rng)
        if trial % 5 == 4:
            M[:, :, rng.integers(rep.module_rank)] = 0
        broken = mt.NimRep(ring, rep.module_rank, M)
        got = mt.validate_nimrep(broken).violations
        expected = nimrep_violations_reference(broken)
        assert typed_violations(got) == typed_violations(expected)
        seen.update(v.axiom for v in expected)
    # a rank-1 module has a single symmetric entry, so duality cannot fail
    assert {"unit", "composition", "action"} | ({"duality"} if ring.rank > 1 else set()) <= seen


def test_dim_char_violation_sides_are_python_scalars():
    ring, chars = mt.builtin("zn:6")
    d = np.array(chars[1].d)
    d[2] = 0.0
    report = mt.validate_dim_char(mt.DimChar(ring, d))
    assert {v.axiom for v in report.violations} == {"multiplicativity", "nonzero", "duality"}
    for v in report.violations:
        assert type(v.lhs) is complex
        assert type(v.rhs) is (str if v.axiom == "nonzero" else complex)


def test_ring_validation_memory_stays_cubic():
    ring = mt.builtin("zn:32")[0]
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        assert mt.validate_fusion_ring(ring).valid
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MB"
