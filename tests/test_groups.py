import gc
import itertools
import pickle
import tracemalloc
import weakref

import numpy as np
import pytest

import modtrace as mt
from modtrace import catalog, common, groups
from modtrace.catalog import s3_table
from modtrace.chars import _eigh_characters
from modtrace.fusion import _composes_bytes
from helpers import (
    abelian_tables_up_to,
    allocation_peak,
    coset_matrices_reference,
    group_characters_reference,
    subgroups_reference,
    sweep_tables,
)


def test_table_validation_rejects_garbage():
    with pytest.raises(mt.StructuralError, match="row/column 0 is not a permutation"):
        mt.GroupTable(2, [[0, 0], [1, 1]])  # rows not permutations
    with pytest.raises(mt.StructuralError, match="row/column 1 is not a permutation"):
        mt.GroupTable(3, [[0, 1, 2], [1, 2, 0], [2, 2, 1]])  # column 1 and row 2 fail
    with pytest.raises(mt.StructuralError, match="multiplication table is not associative"):
        mt.GroupTable(3, [[0, 2, 1], [2, 1, 0], [1, 0, 2]])  # a * b = -a - b mod 3, a Latin square
    with pytest.raises(mt.StructuralError, match="row/column 1 is not a permutation"):
        mt.GroupTable(2, [[1, 0], [0, 0]])


def _latin_squares(n):
    """Every Latin square of order ``n``, row by row over the permutations of ``range(n)``."""
    squares = [[]]
    for _ in range(n):
        squares = [
            rows + [list(row)]
            for rows in squares
            for row in itertools.permutations(range(n))
            if all(row[c] != r[c] for r in rows for c in range(n))
        ]
    return squares


@pytest.mark.parametrize("n, count, groups", [(1, 1, 1), (2, 2, 2), (3, 12, 3), (4, 576, 16)])
def test_every_associative_latin_square_is_a_group(n, count, groups):
    # an associative Latin square always has an identity and unique inverses,
    # so GroupTable needs no refusal for either
    squares = _latin_squares(n)
    assert len(squares) == count
    accepted = 0
    for mul in squares:
        triples = itertools.product(range(n), repeat=3)
        if not all(mul[mul[a][b]][c] == mul[a][mul[b][c]] for a, b, c in triples):
            with pytest.raises(mt.StructuralError, match="multiplication table is not associative"):
                mt.GroupTable(n, mul)
            continue
        table = mt.GroupTable(n, mul)
        (e,) = [e for e in range(n) if all(mul[e][a] == a == mul[a][e] for a in range(n))]
        inverse = [[b for b in range(n) if mul[a][b] == e == mul[b][a]] for a in range(n)]
        assert table.identity == e
        assert [[int(b)] for b in table.inverse] == inverse
        accepted += 1
    assert accepted == groups


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
        assert np.array_equal(mt.fp_dimensions(ring), np.ones(n))
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


def test_group_table_pickles_after_its_ring_is_built():
    # the ring memo is a weak reference, which pickle refuses; it is left out and rebuilt.
    # The tables that direct_product and s3_table hand over pickle as a checked one does
    for table in (mt.cyclic_table(6), mt.direct_product(s3_table(), mt.cyclic_table(4)), s3_table()):
        ring = mt.group_ring(table)
        twin = pickle.loads(pickle.dumps(table))
        assert twin == table and "_ring" not in vars(twin)
        assert (twin.labels, twin.identity) == (table.labels, table.identity)
        assert np.array_equal(twin.inverse, table.inverse)
        assert not twin.mul.flags.writeable and not twin.inverse.flags.writeable
        assert mt.group_ring(twin) == ring and mt.group_ring(twin) is mt.group_ring(twin)
        assert mt.group_ring(table) is ring


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
    numeric = _eigh_characters(mt.group_ring(table), mt.DEFAULT_TOL)
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


def test_byte_budget_is_checked_at_each_group_step(monkeypatch):
    # Z:16 is built as a 16^2 int64 table (2,048 bytes); checking that table composes two 16^3
    # arrays of 1 byte (8,192 bytes), and its ring is a 16^3 int64 tensor (32,768 bytes).  Each
    # budget in between admits one more step
    mul = mt.cyclic_table(16).mul
    monkeypatch.setattr(common, "BYTE_BUDGET", 2_047)
    with pytest.raises(mt.UnsupportedError, match="the cyclic group of order 16 needs 2,048 bytes"):
        mt.cyclic_table(16)
    monkeypatch.setattr(common, "BYTE_BUDGET", 8_191)
    assert mt.cyclic_table(16).order == 16  # built under a budget its check would exceed
    with pytest.raises(mt.UnsupportedError, match="composing 16 maps of 16 points needs 8,192 bytes"):
        mt.GroupTable(16, mul)
    monkeypatch.setattr(common, "BYTE_BUDGET", 8_192)
    table = mt.cyclic_table(16)
    assert mt.GroupTable(16, mul) == table
    with pytest.raises(mt.UnsupportedError, match="the ring of a group of order 16 needs 32,768 bytes"):
        mt.group_ring(table)
    monkeypatch.setattr(common, "BYTE_BUDGET", 32_768)
    assert mt.group_ring(table).rank == 16
    for k in (1, 2, 256, 257, 65_536, 65_537, 2**32):
        assert _composes_bytes(1, k) == 2 * k * np.min_scalar_type(k - 1).itemsize, k


def test_direct_product_is_refused_before_its_table_is_formed(monkeypatch):
    # Z:30 x Z:30 has a 900 x 900 int64 table (6,480,000 bytes); under a smaller budget the
    # product is refused from the orders alone, before any of it is allocated
    z30 = mt.cyclic_table(30)
    monkeypatch.setattr(common, "BYTE_BUDGET", 6_479_999)
    tracemalloc.start()
    try:
        with pytest.raises(mt.UnsupportedError, match="groups of order 30 and 30 needs 6,480,000 bytes"):
            mt.direct_product(z30, z30)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_direct_product_builds_at_the_size_of_its_table():
    # Z:30 x Z:30 is a group by construction: its 900 x 900 table (6,480,000 bytes) is built
    # under the default budget, where the full check would compose 2,916,000,000 bytes
    z30, g = mt.cyclic_table(30), 900
    built = []
    peak = allocation_peak(lambda: built.append(mt.direct_product(z30, z30)))
    assert peak <= 2 * 8 * g**2
    table, ids = built[0], np.arange(g)
    assert table.order == g and table.labels[31] == "(g,g)"
    assert (table.mul[table.identity] == ids).all() and (table.mul[:, table.identity] == ids).all()
    assert (table.mul[ids, table.inverse] == table.identity).all()
    assert np.array_equal(table.mul[::31, ::31], 31 * z30.mul)  # the diagonal copy of Z:30
    with pytest.raises(mt.UnsupportedError, match="composing 900 maps of 900 points needs 2,916,000,000 bytes"):
        mt.GroupTable(g, table.mul)


def test_cyclic_table_refuses_the_orders_its_check_refused():
    # the orders accepted and refused as when each cyclic table went through GroupTable's check:
    # a bool is not an integer order, and a float is not an index
    for order in (0, -2, False):
        with pytest.raises(mt.StructuralError, match="^cyclic group order must be positive$"):
            mt.cyclic_table(order)
    with pytest.raises(mt.StructuralError, match="^order must be an integer array$"):
        mt.cyclic_table(True)
    for order in (3.0, np.float64(2.0), np.True_):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            mt.cyclic_table(order)
    for order in (np.int64(4), np.uint8(4), np.array(4)):
        table = mt.cyclic_table(order)
        assert type(table.order) is int and table == mt.cyclic_table(4)
        assert table.labels == ("e", "g", "g2", "g3") and table.inverse.tolist() == [0, 3, 2, 1]


def test_cyclic_table_builds_at_the_size_of_its_table(monkeypatch):
    # the 300 x 300 int64 table is 720,000 bytes; checking it would compose 108,000,000
    for n in (1, 64, 300):
        assert allocation_peak(lambda: mt.cyclic_table(n)) <= 8 * n * n + 128 * n + 2048, n
    assert _composes_bytes(300, 300) == 108_000_000
    # one byte under its table, Z:300 is refused before any of it is allocated
    monkeypatch.setattr(common, "BYTE_BUDGET", 719_999)
    tracemalloc.start()
    try:
        with pytest.raises(mt.UnsupportedError, match="the cyclic group of order 300 needs 720,000 bytes"):
            mt.cyclic_table(300)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 720_000  # none of the table


def test_sweep_tables_are_built_without_the_table_check(monkeypatch):
    # every group of the catalog sweep is built by construction: GroupTable's O(g^3) check,
    # which runs in __post_init__, is never called
    calls = []
    check = mt.GroupTable.__post_init__

    def counted(self):
        calls.append(self.order)
        check(self)

    monkeypatch.setattr(mt.GroupTable, "__post_init__", counted)
    assert len(sweep_tables()) == 41
    assert calls == []
    mt.GroupTable(2, [[0, 1], [1, 0]])
    assert calls == [2]  # the counter sees a checked table


def _reference_tables():
    s3 = s3_table()
    tables = abelian_tables_up_to(24)
    tables.append(("S3", s3))
    tables += [(f"S3xZ{n}", mt.direct_product(s3, mt.cyclic_table(n))) for n in (2, 3, 4)]
    return tables + [("S3xS3", mt.direct_product(s3, s3)), ("Z64", mt.cyclic_table(64))]


REFERENCE_TABLES = _reference_tables()


def test_handed_over_tables_equal_the_checked_tables():
    # cyclic_table, direct_product and s3_table build groups by construction and skip the
    # check; each table equals the one the check derives from the same mul and labels
    s3, sweep = mt.builtin_group("S3"), sweep_tables()
    assert len(sweep) == 41
    tables = sweep + REFERENCE_TABLES
    tables += [("Z2xZ2", mt.builtin_group("Z2xZ2")), ("S3xS3", mt.direct_product(s3, s3))]
    tables += [(f"Z{n}", mt.cyclic_table(n)) for n in [*range(1, 65), 128, 300]]
    for name, table in tables:
        checked = mt.GroupTable(table.order, table.mul.copy(), table.labels)
        assert table.mul.dtype == table.inverse.dtype == np.int64, name
        assert table.mul.flags.c_contiguous, name
        assert np.array_equal(table.mul, checked.mul), name
        assert (table.labels, table.identity) == (checked.labels, checked.identity), name
        assert type(table.order) is type(table.identity) is int, name
        assert np.array_equal(table.inverse, checked.inverse), name
        assert not (table.mul.flags.writeable or table.inverse.flags.writeable), name


@pytest.mark.parametrize("table", [t for _, t in REFERENCE_TABLES], ids=[n for n, _ in REFERENCE_TABLES])
def test_subgroups_and_coset_modules_match_loop_reference(table):
    subs = mt.subgroups(table)
    assert subs == subgroups_reference(table)
    for H in subs:
        got, expected = mt.vect_g_module(table, H).M, coset_matrices_reference(table, H)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


def test_coset_modules_carry_the_searched_indecomposability():
    # recorded at construction: equal to the search on a copy that carries nothing
    for name, table in REFERENCE_TABLES:
        for H in mt.subgroups(table):
            rep = mt.vect_g_module(table, H)
            recorded = rep.__dict__["_indecomposable"]
            fresh = mt.NimRep(rep.ring, rep.module_rank, rep.M)
            assert "_indecomposable" not in fresh.__dict__
            assert recorded is mt.is_indecomposable(fresh) is True, (name, H)


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
        assert mt.matched_report(triv, mods).flexible


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
            normalised = cert.trace.d / cert.trace.d[identity_coset]
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
