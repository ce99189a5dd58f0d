import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modtrace as mt
from modtrace import catalog, groups
from modtrace.catalog import s3_table
from helpers import (
    abelian_tables_up_to,
    coset_matrices_reference,
    group_characters_reference,
    span_reference,
    subgroups_reference,
)


def test_table_validation_rejects_garbage():
    with pytest.raises(mt.StructuralError, match="row/column 0 is not a permutation"):
        mt.GroupTable(2, [[0, 0], [1, 1]])  # rows not permutations
    with pytest.raises(mt.StructuralError, match="row/column 1 is not a permutation"):
        mt.GroupTable(3, [[0, 1, 2], [1, 2, 0], [2, 2, 1]])  # column 1 and row 2 fail
    with pytest.raises(mt.StructuralError):
        mt.GroupTable(3, [[0, 1, 2], [1, 2, 0], [2, 1, 0]])  # not associative
    with pytest.raises(mt.StructuralError):
        mt.GroupTable(2, [[1, 0], [0, 0]])


def test_table_identity_and_inverse():
    t = mt.cyclic_table(4)
    assert t.identity == 0
    assert np.array_equal(t.inverse, [0, 3, 2, 1])
    assert t.is_abelian()
    s3 = s3_table()
    assert not s3.is_abelian()
    assert s3.order == 6


def test_group_ring_z2_z3():
    for n in (2, 3):
        ring = mt.group_ring(mt.cyclic_table(n))
        assert mt.validate_fusion_ring(ring).valid
        assert np.allclose(mt.fp_dimensions(ring), np.ones(n), atol=1e-12)
        for mat in mt.fusion_matrices(ring):
            assert np.array_equal(mat.sum(axis=0), np.ones(n, dtype=int))


def test_group_ring_is_shared_per_table():
    for table in (mt.cyclic_table(6), s3_table()):
        ring = mt.group_ring(table)
        assert mt.group_ring(table) is ring
        assert all(mt.vect_g_module(table, H).ring is ring for H in mt.subgroups(table))
        if table.is_abelian():
            assert all(ch.ring is ring for ch in mt.group_characters(table))
    # an equal table built again gets its own, equal ring
    assert mt.group_ring(mt.cyclic_table(6)) is not mt.group_ring(mt.cyclic_table(6))
    assert mt.group_ring(mt.cyclic_table(6)) == mt.group_ring(mt.cyclic_table(6))
    # the table alone keeps no ring alive
    table = mt.cyclic_table(6)
    gone = weakref.ref(mt.group_ring(table))
    gc.collect()
    assert gone() is None
    assert mt.group_ring(table) == mt.group_ring(mt.cyclic_table(6))


def test_direct_product_table_by_definition():
    t1, t2 = s3_table(), mt.cyclic_table(4)
    expected = [
        [int(t1.mul[a, c]) * 4 + int(t2.mul[b, d]) for c in range(6) for d in range(4)]
        for a in range(6)
        for b in range(4)
    ]
    product = mt.direct_product(t1, t2)
    assert product.mul.tolist() == expected
    assert product.identity == 0
    inverses = [int(t1.inverse[a]) * 4 + int(t2.inverse[b]) for a in range(6) for b in range(4)]
    assert product.inverse.tolist() == inverses


def test_group_ring_s3_noncommutative():
    ring = mt.group_ring(s3_table())
    assert mt.validate_fusion_ring(ring).valid
    assert not ring.is_commutative()
    with pytest.raises(mt.UnsupportedError):
        mt.enumerate_characters(ring)


def test_group_characters_z1_z2_z3():
    assert len(mt.group_characters(mt.cyclic_table(1))) == 1
    z2 = mt.group_characters(mt.cyclic_table(2))
    assert np.array_equal(np.array([c.d for c in z2]).real, [[1, 1], [1, -1]])
    z3 = mt.group_characters(mt.cyclic_table(3))
    omega = np.exp(2j * np.pi / 3)
    assert np.allclose(z3[1].d, [1, omega, omega**2], atol=1e-12)
    assert np.allclose(z3[2].d, [1, omega**2, omega], atol=1e-12)


def test_group_characters_exactness_z4():
    chars = mt.group_characters(mt.cyclic_table(4))
    assert len(chars) == 4
    assert chars[1].d[1] == 1j  # snapped to the exact root of unity
    for char in chars:
        assert mt.validate_dim_char(char).valid


def test_group_characters_nonabelian_rejected():
    with pytest.raises(mt.UnsupportedError):
        mt.group_characters(s3_table())


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8])
def test_group_characters_match_enumeration(n):
    table = mt.cyclic_table(n)
    closed = mt.group_characters(table)
    numeric = mt.enumerate_characters(mt.group_ring(table))
    assert len(closed) == len(numeric) == n
    for lhs, rhs in zip(closed, numeric):
        assert np.max(np.abs(lhs.d - rhs.d)) < 1e-9


def _group_character_tables():
    tables = abelian_tables_up_to(24) + [("Z:64", mt.cyclic_table(64))]
    z2_6 = mt.cyclic_table(2)
    for _ in range(5):
        z2_6 = mt.direct_product(z2_6, mt.cyclic_table(2))
    return tables + [("Z2^6", z2_6)]


@pytest.mark.parametrize("name,table", _group_character_tables())
def test_group_characters_match_loop_reference_bit_for_bit(name, table):
    got = mt.group_characters(table)
    expected = group_characters_reference(table)
    assert [ch.d.tobytes() for ch in got] == [ch.d.tobytes() for ch in expected]
    assert all(ch.ring is mt.group_ring(table) for ch in got)


def test_group_characters_product_group():
    table = mt.direct_product(mt.cyclic_table(2), mt.cyclic_table(2))
    chars = mt.group_characters(table)
    assert len(chars) == 4
    values = sorted(tuple(int(round(x.real)) for x in c.d) for c in chars)
    assert values == [
        (1, -1, -1, 1),
        (1, -1, 1, -1),
        (1, 1, -1, -1),
        (1, 1, 1, 1),
    ]


def test_subgroups_z2_z4():
    assert mt.subgroups(mt.cyclic_table(2)) == [(0,), (0, 1)]
    z4 = mt.subgroups(mt.cyclic_table(4))
    assert z4 == [(0,), (0, 2), (0, 1, 2, 3)]


def test_subgroups_s3():
    subs = mt.subgroups(s3_table())
    assert len(subs) == 6
    sizes = sorted(len(s) for s in subs)
    assert sizes == [1, 2, 2, 2, 3, 6]


def test_subgroups_bound():
    with pytest.raises(mt.UnsupportedError):
        mt.subgroups(mt.cyclic_table(65))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=12),
    data=st.data(),
)
def test_span_returns_a_subgroup(n, data):
    table = mt.cyclic_table(n)
    gens = data.draw(
        st.sets(st.integers(min_value=0, max_value=n - 1), max_size=4)
    )
    sub = mt.span(table, gens)
    assert sub == span_reference(table, gens)
    assert table.identity in sub
    assert set(gens) <= set(sub)
    inside = set(sub)
    for a in inside:
        for b in inside:
            assert int(table.mul[a, b]) in inside
    assert mt.span(table, sub) == sub


def _reference_tables():
    s3 = s3_table()
    tables = abelian_tables_up_to(24)
    tables.append(("S3", s3))
    tables += [(f"S3xZ{n}", mt.direct_product(s3, mt.cyclic_table(n))) for n in (2, 3, 4)]
    return tables + [("S3xS3", mt.direct_product(s3, s3)), ("Z64", mt.cyclic_table(64))]


REFERENCE_TABLES = _reference_tables()


@pytest.mark.parametrize("table", [t for _, t in REFERENCE_TABLES], ids=[n for n, _ in REFERENCE_TABLES])
def test_subgroups_and_coset_modules_match_loop_reference(table):
    subs = mt.subgroups(table)
    assert subs == subgroups_reference(table)
    for H in subs:
        got, expected = mt.vect_g_module(table, H).M, coset_matrices_reference(table, H)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


def test_subgroups_in_blocks_of_one(monkeypatch):
    # the smallest budget closes one subgroup's extensions at a time
    monkeypatch.setattr(groups, "_CLOSURE_BYTES", 1)
    for table in (mt.direct_product(s3_table(), s3_table()), abelian_tables_up_to(16)[-1][1]):
        assert mt.subgroups(table) == subgroups_reference(table)


def test_vect_g_module_examples():
    table = mt.cyclic_table(2)
    full = mt.vect_g_module(table, (0, 1))
    assert full.module_rank == 1
    assert np.array_equal(full.M, [[[1]], [[1]]])
    trivial = mt.vect_g_module(table, (0,))
    assert trivial == mt.regular_module(mt.group_ring(table))

    z4 = mt.cyclic_table(4)
    half = mt.vect_g_module(z4, (0, 2))
    assert half.module_rank == 2
    swap = np.array([[0, 1], [1, 0]])
    assert np.array_equal(half.M[1], swap)
    assert np.array_equal(half.M[3], swap)
    assert np.array_equal(half.M[2], np.eye(2, dtype=int))
    assert mt.validate_nimrep(half).valid
    assert mt.is_indecomposable(half)


def test_vect_g_module_nonabelian_nonnormal_subgroup():
    table = s3_table()
    two = next(s for s in mt.subgroups(table) if len(s) == 2)
    rep = mt.vect_g_module(table, two)
    assert rep.module_rank == 3
    assert mt.validate_nimrep(rep).valid
    assert mt.is_indecomposable(rep)


def test_vect_g_module_rejects_non_subgroup():
    table = mt.cyclic_table(4)
    with pytest.raises(mt.StructuralError):
        mt.vect_g_module(table, (0, 1))  # not closed: 1+1=2 missing


def test_matched_oracle_examples():
    z2 = mt.cyclic_table(2)
    sign = mt.group_characters(z2)[1]
    assert not mt.matched_vectg_oracle(z2, (0, 1), sign)
    assert mt.matched_vectg_oracle(z2, (0,), sign)

    z4 = mt.cyclic_table(4)
    i_char = next(
        c for c in mt.group_characters(z4) if abs(c.d[1] - 1j) < 1e-12
    )
    assert not mt.matched_vectg_oracle(z4, (0, 2), i_char)


def test_trivial_character_flexible_over_all_subgroup_modules():
    for table in (mt.cyclic_table(6), mt.direct_product(mt.cyclic_table(2), mt.cyclic_table(2))):
        ring = mt.group_ring(table)
        triv = mt.group_characters(table)[0]
        mods = [mt.vect_g_module(table, H) for H in mt.subgroups(table)]
        assert mt.matched_report(ring, triv, mods).flexible


def test_matched_trace_equals_character_on_coset_reps():
    # normalising the trace at the coset of the identity recovers the
    # character values at the coset representatives
    table = mt.cyclic_table(6)
    ring = mt.group_ring(table)
    for char in mt.group_characters(table):
        for H in mt.subgroups(table):
            if not mt.matched_vectg_oracle(table, H, char):
                continue
            rep = mt.vect_g_module(table, H)
            cert = mt.solve_module_trace(ring, char, rep)
            assert cert.matched
            # coset representatives: smallest element of each coset
            seen = set()
            reps = []
            for a in range(table.order):
                if a in seen:
                    continue
                coset = {int(table.mul[a, h]) for h in H}
                seen |= coset
                reps.append(min(coset))
            identity_coset = reps.index(min(int(h) for h in H))
            normalised = cert.trace.unit_normalized(identity_coset)
            expected = np.array([char.d[r] for r in reps])
            assert np.max(np.abs(normalised - expected)) < 1e-9


def test_builtin_group_names():
    assert mt.builtin_group("Z:5").order == 5
    assert mt.builtin_group("S3").order == 6
    assert mt.builtin_group("Z2xZ2").order == 4
    with pytest.raises(mt.UsageError):
        mt.builtin_group("Q8")
    for name in ("Z:5", "Z:x", "S3", "Z2xZ2"):
        assert catalog.is_builtin_group(name)
    for name in ("Q8", "Z2xZ4", "s3", "group.json", "z:5"):
        assert not catalog.is_builtin_group(name)
    with pytest.raises(mt.UsageError):
        mt.builtin("unknown-ring")
