import hashlib
import itertools
import json
import sys

import numpy as np
import pytest

import modtrace as mt
from modtrace import fusion
from helpers import NAMED_RINGS, PHI, ROOT2, fibonacci_broken


def brute_force_associative(ring) -> list:
    """Independent elementwise check of sum_e N[a][b][e] N[e][c][d] = sum_f N[b][c][f] N[a][f][d]."""
    n, N = ring.rank, ring.N
    bad = []
    for a, b, c, d in itertools.product(range(n), repeat=4):
        lhs = sum(int(N[a, b, e]) * int(N[e, c, d]) for e in range(n))
        rhs = sum(int(N[b, c, f]) * int(N[a, f, d]) for f in range(n))
        if lhs != rhs:
            bad.append((a, b, c, d, lhs, rhs))
    return bad


def test_z2_group_ring_valid():
    ring = mt.group_ring(mt.cyclic_table(2))
    assert mt.validate_fusion_ring(ring).valid


def test_fibonacci_valid_against_brute_force():
    ring = mt.builtin("fibonacci")[0]
    assert brute_force_associative(ring) == []
    assert mt.validate_fusion_ring(ring).valid


def test_bumped_fibonacci_is_still_a_valid_ring():
    # tau (x) tau = 1 + 2 tau presents the commutative ring Z[x]/(x^2 - 2x - 1),
    # which satisfies every ring axiom; brute force and validator must agree.
    ring = fibonacci_broken()
    assert brute_force_associative(ring) == []
    assert mt.validate_fusion_ring(ring).valid


def test_nonassociative_table_fails_associativity():
    # corrupt rep_s3 so that sgn (x) V = sgn + V: then (sgn sgn) V = V but
    # sgn (sgn V) = 1 + sgn + V.
    base = mt.builtin("rep_s3")[0]
    N = base.N.copy()
    N[1, 2, 1] = 1
    ring = mt.FusionRing(3, base.labels, 0, base.dual.copy(), N)
    bad = brute_force_associative(ring)
    assert any(idx[:2] == (1, 1) for idx in bad)
    report = mt.validate_fusion_ring(ring)
    assert not report.valid
    assoc_idx = [v.index for v in report.violations if v.axiom == "associativity"]
    assert set(idx[:4] for idx in bad) == set(assoc_idx)


@pytest.mark.parametrize("name", NAMED_RINGS)
def test_builtin_rings_valid(name):
    ring, _ = mt.builtin(name)
    assert mt.validate_fusion_ring(ring).valid


def test_fusion_matrices_z2():
    ring = mt.group_ring(mt.cyclic_table(2))
    mats = mt.fusion_matrices(ring)
    assert np.array_equal(mats[0], np.eye(2, dtype=int))
    assert np.array_equal(mats[1], [[0, 1], [1, 0]])


def test_fusion_matrices_fibonacci():
    ring = mt.builtin("fibonacci")[0]
    assert np.array_equal(mt.fusion_matrices(ring)[1], [[0, 1], [1, 1]])


def test_fusion_matrices_ising():
    ring = mt.builtin("ising")[0]
    assert np.array_equal(
        mt.fusion_matrices(ring)[2], [[0, 0, 1], [0, 0, 1], [1, 1, 0]]
    )


@pytest.mark.parametrize("name", NAMED_RINGS + ("zn:5", "zn:6"))
def test_matrix_algebra_exact(name):
    ring, _ = mt.builtin(name)
    mats = mt.fusion_matrices(ring)
    assert np.array_equal(mats[ring.unit], np.eye(ring.rank, dtype=int))
    for a in range(ring.rank):
        assert np.array_equal(mats[ring.dual[a]], mats[a].T)
        for b in range(ring.rank):
            rhs = sum(int(ring.N[a, b, e]) * mats[e] for e in range(ring.rank))
            assert np.array_equal(mats[a] @ mats[b], rhs)


def test_fp_dimensions_group_ring_all_ones():
    for n in (1, 2, 3, 7):
        ring = mt.group_ring(mt.cyclic_table(n))
        assert np.array_equal(mt.fp_dimensions(ring), np.ones(n))  # exact: every simple is invertible


def test_fp_dimensions_fibonacci():
    ring = mt.builtin("fibonacci")[0]
    dims = mt.fp_dimensions(ring)
    assert dims[0] == 1.0
    assert abs(dims[1] - PHI) < 1e-10


def test_fp_dimensions_ising():
    ring = mt.builtin("ising")[0]
    assert np.max(np.abs(mt.fp_dimensions(ring) - [1.0, 1.0, ROOT2])) < 1e-10


@pytest.mark.parametrize("name", NAMED_RINGS + ("zn:4", "zn:8"))
def test_fp_dimensions_contracts(name):
    ring, _ = mt.builtin(name)
    dims = mt.fp_dimensions(ring)
    assert dims[ring.unit] == 1.0
    assert np.all(dims >= 1.0 - 1e-12)
    # multiplicativity and dual invariance
    for a in range(ring.rank):
        assert abs(dims[ring.dual[a]] - dims[a]) < 1e-10
        for b in range(ring.rank):
            total = float(ring.N[a, b] @ dims)
            assert abs(dims[a] * dims[b] - total) < 1e-9
    # the dimension vector is a simultaneous eigenvector of every fusion matrix
    for a, mat in enumerate(mt.fusion_matrices(ring)):
        assert np.max(np.abs(mat @ dims - dims[a] * dims)) < 1e-9


def test_structural_errors():
    with pytest.raises(mt.StructuralError):
        mt.FusionRing(2, ("1", "x"), 0, [0, 1], np.zeros((2, 2, 2), dtype=int) - 1)
    with pytest.raises(mt.StructuralError):
        mt.FusionRing(2, ("1", "x"), 0, [0, 1], np.zeros((3, 3, 3), dtype=int))
    with pytest.raises(mt.StructuralError):
        mt.FusionRing(2, ("1",), 0, [0, 1], np.zeros((2, 2, 2), dtype=int))
    with pytest.raises(mt.StructuralError):
        mt.FusionRing(2, ("1", "x"), 5, [0, 1], np.zeros((2, 2, 2), dtype=int))
    with pytest.raises(mt.StructuralError):
        mt.FusionRing(0, (), 0, [], np.zeros((0, 0, 0), dtype=int))


def test_ring_equality_and_hash():
    r1 = mt.builtin("fibonacci")[0]
    r2 = mt.builtin("fibonacci")[0]
    r3 = mt.builtin("ising")[0]
    assert r1 == r2
    assert r1.content_hash() == r2.content_hash()
    assert r1 != r3
    assert r1.content_hash() != r3.content_hash()
    # built separately, equal rings hash equal, so a ring works as a dict key or set member
    assert r1 is not r2 and hash(r1) == hash(r2)
    assert len({r1, r2, r3}) == 2


# Every emitted character and module file stores its ring's hash.
PINNED_HASHES = {
    "fibonacci": "25d758f7c00c",
    "ising": "504b5771be20",
    "rep_s3": "c4e2967fbfd5",
    "zn:1": "e909a3c805ad",
    "zn:12": "a98161a5915c",
    "zn:32": "de13b9fd2fb0",
}
PINNED_GROUP_HASHES = {"S3": "d882465cfcc8", "Z2xZ2": "81bf5668f49a"}


def test_builtin_content_hashes_are_pinned():
    assert {name: mt.builtin(name)[0].content_hash() for name in PINNED_HASHES} == PINNED_HASHES
    rings = {name: mt.group_ring(mt.builtin_group(name)) for name in PINNED_GROUP_HASHES}
    assert {name: ring.content_hash() for name, ring in rings.items()} == PINNED_GROUP_HASHES


def test_content_hash_is_computed_once_and_unchanged():
    ring = mt.builtin("zn:6")[0]
    first = ring.content_hash()
    assert ring.content_hash() is first
    blob = json.dumps(ring.to_dict(), separators=(",", ":"), sort_keys=False)
    assert first == hashlib.sha256(blob.encode()).hexdigest()[:12]


def test_content_hash_without_the_builtin_sha256_takes_hashlib(monkeypatch):
    # a build without CPython's builtin SHA-256 (_sha2 from 3.12, _sha256 before) imports hashlib's
    for name in ("_sha2", "_sha256"):
        monkeypatch.setitem(sys.modules, name, None)
    oracle, blobs = hashlib.sha256, []
    monkeypatch.setattr(hashlib, "sha256", lambda blob: blobs.append(blob) or oracle(blob))
    fusion._sha256_constructor.cache_clear()
    try:
        ring = mt.builtin("zn:12")[0]
        assert ring.content_hash() == PINNED_HASHES["zn:12"] == oracle(blobs[0]).hexdigest()[:12]
    finally:
        fusion._sha256_constructor.cache_clear()
    assert blobs == [json.dumps(ring.to_dict(), separators=(",", ":")).encode()]


def test_unit_law_violation_reported():
    N = np.zeros((2, 2, 2), dtype=int)
    N[0, 0, 0] = N[0, 1, 1] = N[1, 0, 1] = 1
    N[1, 1, 0] = 1
    N[0, 1, 0] = 1  # unit row corrupted
    ring = mt.FusionRing(2, ("1", "x"), 0, [0, 1], N)
    report = mt.validate_fusion_ring(ring)
    assert not report.valid
    assert any(v.axiom == "unit_left" for v in report.violations)
