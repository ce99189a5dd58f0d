import numpy as np
import pytest

import modtrace as mt
from helpers import NAMED_RINGS, allocation_peak, ring_families


def test_regular_module_z2_valid():
    ring = mt.group_ring(mt.cyclic_table(2))
    rep = mt.regular_module(ring)
    assert mt.validate_nimrep(rep).valid
    assert np.array_equal(rep.M, np.stack(mt.fusion_matrices(ring)))


def test_single_object_module_over_z2():
    table = mt.cyclic_table(2)
    rep = mt.vect_g_module(table, (0, 1))
    assert rep.module_rank == 1
    assert np.array_equal(rep.M, [[[1]], [[1]]])
    assert mt.validate_nimrep(rep).valid


def test_asymmetric_selfdual_action_fails_duality():
    ring = mt.builtin("fibonacci")[0]
    M = np.stack([np.eye(2, dtype=int), np.array([[0, 1], [2, 1]])])
    rep = mt.NimRep(ring, 2, M)
    report = mt.validate_nimrep(rep)
    assert not report.valid
    assert any(v.axiom == "duality" for v in report.violations)


def test_composition_violation_detected():
    ring = mt.group_ring(mt.cyclic_table(2))
    M = np.stack([np.eye(2, dtype=int), np.eye(2, dtype=int)])  # g acts trivially
    # M_g M_g = I = M_e is fine, but duality/composition with N is fine too;
    # break composition instead: g acts by a non-involutive permutation is
    # impossible at rank 2, so corrupt the unit matrix.
    M2 = M.copy()
    M2[0] = np.array([[1, 1], [0, 1]])
    rep = mt.NimRep(ring, 2, M2)
    report = mt.validate_nimrep(rep)
    assert any(v.axiom == "unit" for v in report.violations)


def test_regular_modules_of_builtins():
    fib = mt.builtin("fibonacci")[0]
    assert np.array_equal(mt.regular_module(fib).M[1], [[0, 1], [1, 1]])
    ising = mt.builtin("ising")[0]
    assert np.array_equal(
        mt.regular_module(ising).M[2], [[0, 0, 1], [0, 0, 1], [1, 1, 0]]
    )
    z3 = mt.group_ring(mt.cyclic_table(3))
    for m in mt.regular_module(z3).M:
        assert np.array_equal(np.sort(m.sum(axis=0)), np.ones(3, dtype=int))
        assert np.array_equal(np.sort(m.sum(axis=1)), np.ones(3, dtype=int))


@pytest.mark.parametrize("name", NAMED_RINGS + ("zn:4", "zn:6"))
def test_regular_module_always_valid(name):
    ring, _ = mt.builtin(name)
    report = mt.validate_nimrep(mt.regular_module(ring))
    assert report.valid
    assert report.violations == ()


def test_direct_sum_blocks():
    table = mt.cyclic_table(2)
    rep1 = mt.vect_g_module(table, (0,))  # regular, two cosets
    rep2 = mt.vect_g_module(table, (0, 1))  # one coset
    total = mt.direct_sum(rep1, rep2)
    assert total.module_rank == 3
    expected_g = np.zeros((3, 3), dtype=int)
    expected_g[0, 1] = expected_g[1, 0] = 1
    expected_g[2, 2] = 1
    assert np.array_equal(total.M[1], expected_g)
    assert mt.validate_nimrep(total).valid
    assert not mt.is_indecomposable(total)


def test_direct_sum_ring_mismatch():
    rep1 = mt.regular_module(mt.builtin("fibonacci")[0])
    rep2 = mt.regular_module(mt.builtin("ising")[0])
    with pytest.raises(mt.StructuralError):
        mt.direct_sum(rep1, rep2)


def test_empty_module_rejected():
    ring = mt.builtin("fibonacci")[0]
    with pytest.raises(mt.StructuralError):
        mt.NimRep(ring, 0, np.zeros((2, 0, 0), dtype=int))


def test_indecomposable_examples():
    fib = mt.builtin("fibonacci")[0]
    reg = mt.regular_module(fib)
    assert mt.is_indecomposable(reg)
    total = mt.direct_sum(reg, reg)
    assert not mt.is_indecomposable(total)
    assert not mt.is_indecomposable(total)  # the answer kept from the first call
    table = mt.cyclic_table(2)
    assert mt.is_indecomposable(mt.vect_g_module(table, (0,)))


def test_indecomposable_detects_disconnected_larger_sum():
    table = mt.cyclic_table(3)
    regular = mt.vect_g_module(table, (0,))
    single = mt.vect_g_module(table, (0, 1, 2))
    assert mt.is_indecomposable(regular)
    total = mt.direct_sum(regular, single)
    assert total.module_rank == 4
    assert not mt.is_indecomposable(total)
    assert not mt.is_indecomposable(mt.direct_sum(single, regular))


def test_direct_sum_of_regulars_has_two_components():
    fib = mt.builtin("fibonacci")[0]
    reg = mt.regular_module(fib)
    total = mt.direct_sum(reg, reg).action_sum()
    assert np.array_equal(total[:2, 2:], np.zeros((2, 2), dtype=int))
    assert np.array_equal(total[2:, :2], np.zeros((2, 2), dtype=int))


@pytest.mark.parametrize("name", NAMED_RINGS + ("zn:5",))
def test_action_sum_symmetric(name):
    ring, _ = mt.builtin(name)
    rep = mt.regular_module(ring)
    total = rep.action_sum()
    assert np.array_equal(total, total.T)


def test_fp_compatibility_on_indecomposables():
    for name, ring, _chars, base in ring_families(max_zn=6):
        fp = mt.fp_dimensions(ring)
        for _label, rep in base:
            if not mt.is_indecomposable(rep):
                continue
            _, w = mt.perron_vector(rep.action_sum().astype(float))
            for u in range(ring.rank):
                resid = np.max(np.abs(rep.M[u].T @ w - fp[u] * w))
                assert resid < 1e-8, (name, u, resid)


def test_builders_hand_over_the_arrays_they_own():
    # the builders make N and M once and the constructors keep them: a zn:64 ring, its
    # regular module and a coset module each peak at about one g^3 tensor, not two
    g = 64
    tensor = 8 * g**3
    ring = mt.builtin(f"zn:{g}")[0]
    table = mt.cyclic_table(g)
    assert allocation_peak(lambda: mt.builtin(f"zn:{g}")) < 1.5 * tensor
    assert allocation_peak(lambda: mt.regular_module(ring)) < 1.2 * tensor
    assert allocation_peak(lambda: mt.vect_g_module(table, (0,))) < 2.2 * tensor  # M and the ring, which the table holds weakly
    reg = mt.regular_module(ring)
    assert allocation_peak(lambda: mt.direct_sum(reg, reg)) < 4.2 * tensor  # M of rank 2g is four tensors


def test_a_callers_array_is_copied_and_stays_writable():
    ring = mt.builtin("zn:4")[0]
    given = ring.N.copy()
    view = ring.N.copy()[:]
    view.flags.writeable = False  # read-only, but a view of a writable array
    for N in (given, view, given.astype(np.int32)):
        twin = mt.FusionRing(4, ring.labels, ring.unit, ring.dual, N)
        assert not np.shares_memory(twin.N, N) and not twin.N.flags.writeable
    assert given.flags.writeable
    M = mt.regular_module(ring).M.copy()
    rep = mt.NimRep(ring, 4, M)
    assert not np.shares_memory(rep.M, M) and M.flags.writeable
    M[0, 0, 0] = 7
    assert rep.M[0, 0, 0] == 1
