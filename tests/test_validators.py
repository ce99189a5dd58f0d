"""The chunked ring and NIM-rep validators against their full-tensor references."""

import numpy as np
import pytest

import modtrace as mt
from modtrace import fusion, nimrep
from modtrace.fusion import pointed_table
from helpers import (
    NAMED_RINGS,
    abelian_tables_up_to,
    allocation_peak,
    fusion_violations_reference,
    nimrep_violations_reference,
    su2_ring,
    typed_violations,
)

RINGS = NAMED_RINGS + tuple(f"zn:{n}" for n in range(1, 13)) + ("S3",)


def _ring(name):
    if name == "S3":
        return mt.group_ring(mt.builtin_group("S3"))
    return mt.builtin(name)[0]


def _corrupt(arr, rng, high=3):
    """A copy with one to three entries set to random values below ``high``."""
    out = arr.copy()
    flat = out.reshape(-1)
    for pos in rng.choice(flat.size, size=min(flat.size, rng.integers(1, 4)), replace=False):
        flat[pos] = rng.integers(0, high)
    return out


def _ring_trials(ring, rng, trials, high=3) -> set:
    """Compare ``trials`` seeded corruptions of ``ring`` with the reference; returns the axioms seen."""
    seen = set()
    for trial in range(trials):
        dual = ring.dual.copy()
        if trial % 5 == 4 and ring.rank > 1:
            a, b = rng.choice(ring.rank, size=2, replace=False)
            dual[[a, b]] = dual[[b, a]]
        broken = mt.FusionRing(ring.rank, ring.labels, ring.unit, dual, _corrupt(ring.N, rng, high))
        got = mt.validate_fusion_ring(broken).violations
        expected = fusion_violations_reference(broken)
        assert typed_violations(got) == typed_violations(expected)
        seen.update(v.axiom for v in expected)
    return seen


def _nimrep_trials(rep, rng, trials, high=3) -> set:
    """Compare ``trials`` seeded corruptions of ``rep`` with the reference; returns the axioms seen."""
    seen = set()
    for trial in range(trials):
        M = _corrupt(rep.M, rng, high)
        if trial % 5 == 4:
            M[:, :, rng.integers(rep.module_rank)] = 0
        broken = mt.NimRep(rep.ring, rep.module_rank, M)
        got = mt.validate_nimrep(broken).violations
        expected = nimrep_violations_reference(broken)
        assert typed_violations(got) == typed_violations(expected)
        seen.update(v.axiom for v in expected)
    return seen


@pytest.mark.parametrize("name", RINGS)
def test_ring_violations_match_full_tensor_reference(name):
    ring = _ring(name)
    seen = _ring_trials(ring, np.random.default_rng(sum(map(ord, name))), 20)
    assert "associativity" in seen or ring.rank == 1


@pytest.mark.parametrize("name", RINGS)
def test_nimrep_violations_match_pairwise_reference(name):
    ring = _ring(name)
    seen = _nimrep_trials(mt.regular_module(ring), np.random.default_rng(sum(map(ord, name)) + 1), 20)
    # a rank-1 module has a single symmetric entry, so duality cannot fail
    assert {"unit", "composition", "action"} | ({"duality"} if ring.rank > 1 else set()) <= seen


@pytest.mark.parametrize("name", RINGS)
def test_violations_match_reference_with_entries_up_to_2_20(name):
    """The float64 products stay exact with corrupted entries up to 2^20."""
    ring = _ring(name)
    rng = np.random.default_rng(sum(map(ord, name)) + 2)
    seen = _ring_trials(ring, rng, 5, 2**20 + 1)
    seen |= _nimrep_trials(mt.regular_module(ring), rng, 5, 2**20 + 1)
    assert "associativity" in seen or ring.rank == 1
    assert "composition" in seen


@pytest.mark.parametrize("n", [16, 24])
def test_violations_match_reference_beyond_rank_12(n):
    """One seeded corruption of ``Z:n`` and of its regular module, for the per-index reshapes."""
    ring = mt.builtin(f"zn:{n}")[0]
    rng = np.random.default_rng(n)
    assert "associativity" in _ring_trials(ring, rng, 1, 2**20 + 1)
    assert "composition" in _nimrep_trials(mt.regular_module(ring), rng, 1, 2**20 + 1)


def test_nimrep_violations_match_reference_when_module_rank_differs():
    """Coset and direct-sum modules, where ``k != n`` would expose a swapped reshape."""
    table = mt.cyclic_table(12)
    reps = [mt.vect_g_module(table, H) for H in mt.subgroups(table)]
    fib = mt.builtin("fibonacci")[0]
    reps.append(mt.direct_sum(mt.regular_module(fib), mt.regular_module(fib)))
    rng = np.random.default_rng(12)
    for rep in reps:
        _nimrep_trials(rep, rng, 5)
        _nimrep_trials(rep, rng, 2, 2**20 + 1)
    assert {rep.module_rank for rep in reps} == {1, 2, 3, 4, 6, 12}


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
    # SU(2)_k is not pointed, so the dense check runs: its peak is a few copies of N and one
    # associativity slice, within the 5 * 8 * n^3 bytes written in validate_fusion_ring
    for k in (31, 63):
        ring, n = su2_ring(k), k + 1
        assert pointed_table(ring) is None
        reports = []
        peak = allocation_peak(lambda: reports.append(mt.validate_fusion_ring(ring)))
        assert reports[0].valid
        assert peak <= 5 * 8 * n**3, f"n = {n}: peak {peak / (8 * n**3):.2f} * 8n^3 bytes"


def test_module_validation_memory_stays_cubic():
    # the dense NIM-rep check on SU(2)_k's regular module holds M in float64 and the two
    # products of one u, within the dense ring check's 5 * 8 * n^3 bytes
    for k in (31, 63):
        rep, n = mt.regular_module(su2_ring(k)), k + 1
        reports = []
        peak = allocation_peak(lambda: reports.append(mt.validate_nimrep(rep)))
        assert reports[0].valid
        assert peak <= 5 * 8 * n**3, f"n = {n}: peak {peak / (8 * n**3):.2f} * 8n^3 bytes"


@pytest.mark.parametrize("g", [32, 64])
def test_pointed_validation_peaks_at_the_composition_check(g):
    # the group table and the permutations are read as N @ arange(n) and arange(k) @ M, so
    # neither validator copies a whole tensor: the peak is _composes's two small copies and
    # the mask of its comparison
    built = mt.builtin(f"zn:{g}")[0]
    fresh = mt.FusionRing(g, built.labels, built.unit, built.dual, built.N)  # no table yet
    rep = mt.regular_module(built)
    bound = 2 * fusion._composes_bytes(g, g)
    assert allocation_peak(lambda: mt.validate_fusion_ring(fresh)) <= bound
    assert pointed_table(fresh) is not None
    assert allocation_peak(lambda: mt.validate_nimrep(rep)) <= bound


# -- exactness guard: every float64 partial sum must stay below 2^53 ----------


def _z2_ring(top):
    """The group ring of Z/2 with ``N[1][0][1]`` set to ``top``, so ``(x 1) 1 = top^2 x``."""
    ring = mt.builtin("zn:2")[0]
    N = ring.N.copy()
    N[1, 0, 1] = top
    return mt.FusionRing(2, ring.labels, 0, ring.dual, N)


def _z2_module(top):
    """The regular module of Z/2 with ``M[1][1][1]`` set to ``top``."""
    rep = mt.regular_module(mt.builtin("zn:2")[0])
    M = rep.M.copy()
    M[1, 1, 1] = top
    return mt.NimRep(rep.ring, 2, M)


def test_ring_beyond_float_exact_bound_is_refused():
    N = mt.builtin("fibonacci")[0].N.copy()
    N[1, 1, 1] = 2**40
    with pytest.raises(mt.StructuralError, match="2\\^53"):
        mt.validate_fusion_ring(mt.FusionRing(2, ("1", "t"), 0, [0, 1], N))
    # rank 2: 2 * top^2 < 2^53 exactly when top < 2^26
    with pytest.raises(mt.StructuralError):
        mt.validate_fusion_ring(_z2_ring(2**26))
    largest = _z2_ring(2**26 - 1)
    got = mt.validate_fusion_ring(largest).violations
    assert got and typed_violations(got) == typed_violations(fusion_violations_reference(largest))


def test_module_beyond_float_exact_bound_is_refused():
    rep = mt.regular_module(mt.builtin("fibonacci")[0])
    M = rep.M.copy()
    M[1, 1, 1] = 2**40
    with pytest.raises(mt.StructuralError, match="2\\^53"):
        mt.validate_nimrep(mt.NimRep(rep.ring, 2, M))
    # k = 2: the bound is max(2 * top^2, 2 * 1 * top), below 2^53 exactly when top < 2^26
    with pytest.raises(mt.StructuralError):
        mt.validate_nimrep(_z2_module(2**26))
    largest = _z2_module(2**26 - 1)
    got = mt.validate_nimrep(largest).violations
    assert got and typed_violations(got) == typed_violations(nimrep_violations_reference(largest))


# -- the pointed shortcut: group rings and permutation modules -----------------


def test_pointed_table_is_the_group_table_of_every_group_ring():
    tables = [table for _, table in abelian_tables_up_to(24)] + [mt.builtin_group("S3")]
    for table in tables:
        ring = mt.group_ring(table)
        assert pointed_table(ring) is table.mul  # recorded by the group ring, not derived again
        # an equal ring built from N alone derives the same table from N
        rebuilt = mt.FusionRing(ring.rank, ring.labels, ring.unit, ring.dual, ring.N)
        mul = pointed_table(rebuilt)
        assert np.array_equal(mul, table.mul) and not mul.flags.writeable
        assert pointed_table(rebuilt) is mul  # once per ring
    for name in NAMED_RINGS:
        assert pointed_table(mt.builtin(name)[0]) is None


def _z12_ring(mul, dual):
    n = len(mul)
    N = np.zeros((n, n, n), dtype=np.int64)
    N[np.arange(n)[:, None], np.arange(n)[None, :], mul] = 1
    return mt.FusionRing(n, [f"g{a}" for a in range(n)], 0, dual, N)


def _ring_axioms_failed(ring) -> set:
    """The axioms ``validate_fusion_ring`` reports failed; its report must be the dense check's."""
    assert pointed_table(ring) is None
    got = mt.validate_fusion_ring(ring).violations
    assert got == fusion._dense_report(ring).violations
    assert typed_violations(got) == typed_violations(fusion_violations_reference(ring))
    return {v.axiom for v in got}


def test_pointed_ring_with_a_nonassociative_table_gets_the_dense_report():
    mul = mt.cyclic_table(12).mul.copy()
    mul[1, [2, 3]] = mul[1, [3, 2]]  # still a Latin square with identity 0 and inverses -a
    ring = _z12_ring(mul, (-np.arange(12)) % 12)
    assert (ring.N.sum(axis=2) == 1).all()
    assert "associativity" in _ring_axioms_failed(ring)


def test_pointed_ring_whose_dual_is_not_the_inverse_gets_the_dense_report():
    ring = _z12_ring(mt.cyclic_table(12).mul, np.arange(12))  # every simple self-dual
    assert "dual_pairing" in _ring_axioms_failed(ring)


def _module_axioms_failed(rep) -> set:
    """The axioms ``validate_nimrep`` reports failed; its report must be the dense check's."""
    assert pointed_table(rep.ring) is not None
    got = mt.validate_nimrep(rep).violations
    assert got == nimrep._dense_report(rep).violations
    assert typed_violations(got) == typed_violations(nimrep_violations_reference(rep))
    return {v.axiom for v in got}


def test_group_ring_module_that_is_not_a_permutation_action_gets_the_dense_report():
    rep = mt.regular_module(mt.builtin("zn:12")[0])
    M = rep.M.copy()
    M[1, 5, 0] = 1  # u = 1 sends simple 0 to simples 1 and 5
    assert "composition" in _module_axioms_failed(mt.NimRep(rep.ring, 12, M))


def test_group_ring_module_whose_permutations_do_not_compose_gets_the_dense_report():
    rep = mt.vect_g_module(mt.cyclic_table(12), (0, 4, 8))  # k = 4
    M = rep.M.copy()
    M[1] = M[2]  # every M_u still a permutation matrix, but M_1 M_1 != M_2
    assert "composition" in _module_axioms_failed(mt.NimRep(rep.ring, 4, M))


def _z2_permutation_module(perm) -> mt.NimRep:
    """The rep of ``Z:2`` on ``len(perm)`` points whose generator sends point ``i`` to ``perm[i]``."""
    k = len(perm)
    M = np.zeros((2, k, k), dtype=np.int64)
    M[0] = np.eye(k, dtype=np.int64)
    M[1, perm, np.arange(k)] = 1
    return mt.NimRep(mt.group_ring(mt.cyclic_table(2)), k, M)


def test_composition_check_on_300_points(monkeypatch):
    # beyond 256 points the action is compared at 2 bytes an entry
    assert np.min_scalar_type(300 - 1) == np.uint16
    three_cycle = np.arange(300)
    three_cycle[:3] = [1, 2, 0]  # its square is not the identity
    rep = _z2_permutation_module(three_cycle)
    assert "composition" in _module_axioms_failed(rep)
    # M_1 M_1 against M_0 = 1: wrong exactly where the square of the 3-cycle moves a point
    square = np.zeros((300, 300), dtype=np.int64)
    square[three_cycle[three_cycle], np.arange(300)] = 1
    expected = [
        mt.Violation("composition", (1, 1, int(j), int(i)), int(square[j, i]), int(i == j))
        for j, i in zip(*np.nonzero(square != np.eye(300, dtype=np.int64)))
    ]
    assert [v for v in mt.validate_nimrep(rep).violations if v.axiom == "composition"] == expected

    # a composing involution passes without the dense check; a shift by 150 does not
    # commute with reduction mod 256, so a 1-byte copy of its action would not compose
    monkeypatch.setattr(nimrep, "_dense_report", lambda rep: pytest.fail("dense check ran"))
    assert mt.validate_nimrep(_z2_permutation_module((np.arange(300) + 150) % 300)).valid
