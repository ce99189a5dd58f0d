import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modtrace as mt
from helpers import (
    NAMED_RINGS,
    PHI,
    ROOT2,
    abelian_tables_up_to,
    allocation_peak,
    enumerate_characters_reference,
    group_characters_reference,
    su2_characters,
    su2_ring,
)
from modtrace import files, fusion
from modtrace.chars import (
    ENUMERATION_RETRIES,
    _CHECK_BYTES,
    _descending,
    _eigh_characters,
    _linear_characters,
    _passing,
    _sort_keys,
)
from modtrace.common import close
from modtrace.fusion import pointed_table

OMEGA = complex(math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3))

ALL_RINGS = NAMED_RINGS + tuple(f"zn:{n}" for n in range(1, 9))


def test_validate_z2_sign_character():
    ring = mt.group_ring(mt.cyclic_table(2))
    char = mt.DimChar(ring, [1.0, -1.0])
    assert mt.validate_dim_char(char).valid


def test_validate_fibonacci_golden():
    ring = mt.builtin("fibonacci")[0]
    assert mt.validate_dim_char(mt.DimChar(ring, [1.0, PHI])).valid


def test_zero_entry_rejected():
    ring = mt.builtin("fibonacci")[0]
    report = mt.validate_dim_char(mt.DimChar(ring, [1.0, 0.0]))
    assert not report.valid
    assert any(v.axiom == "nonzero" for v in report.violations)


def test_bad_multiplicativity_rejected():
    ring = mt.builtin("fibonacci")[0]
    report = mt.validate_dim_char(mt.DimChar(ring, [1.0, 2.0]))
    assert any(v.axiom == "multiplicativity" for v in report.violations)


def test_length_mismatch_is_structural():
    ring = mt.builtin("fibonacci")[0]
    with pytest.raises(mt.StructuralError):
        mt.DimChar(ring, [1.0, 1.0, 1.0])


def test_dim_char_copies_the_callers_array():
    ring = mt.builtin("fibonacci")[0]
    values = np.array([1.0, PHI], dtype=complex)
    ch = mt.DimChar(ring, values)
    dim_c = mt.global_dimension(ch)
    assert values.flags.writeable
    assert not np.shares_memory(values, ch.d)
    values[1] = 5.0
    assert ch.d[1] == PHI
    assert mt.global_dimension(ch) == dim_c == float(np.sum(np.abs(ch.d) ** 2))


def test_enumerate_z2():
    ring = mt.group_ring(mt.cyclic_table(2))
    chars = mt.enumerate_characters(ring)
    assert len(chars) == 2
    assert np.allclose(chars[0].d, [1, 1], atol=1e-12)
    assert np.allclose(chars[1].d, [1, -1], atol=1e-12)


def test_enumerate_fibonacci():
    ring = mt.builtin("fibonacci")[0]
    chars = mt.enumerate_characters(ring)
    assert len(chars) == 2
    assert np.allclose(chars[0].d, [1, PHI], atol=1e-10)
    assert np.allclose(chars[1].d, [1, 1 - PHI], atol=1e-10)


def test_enumerate_ising():
    ring = mt.builtin("ising")[0]
    chars = mt.enumerate_characters(ring)
    # the third ring character (1, -1, 0) has a zero entry and is filtered
    assert len(chars) == 2
    assert np.allclose(chars[0].d, [1, 1, ROOT2], atol=1e-10)
    assert np.allclose(chars[1].d, [1, 1, -ROOT2], atol=1e-10)


def test_enumerate_rep_s3():
    ring = mt.builtin("rep_s3")[0]
    chars = mt.enumerate_characters(ring)
    # the hook character (1, -1, 0) is filtered by the nonzero requirement
    assert len(chars) == 2
    assert np.allclose(chars[0].d, [1, 1, 2], atol=1e-10)
    assert np.allclose(chars[1].d, [1, 1, -1], atol=1e-10)


def test_enumerate_z3_matches_roots_of_unity():
    ring = mt.group_ring(mt.cyclic_table(3))
    chars = mt.enumerate_characters(ring)
    assert len(chars) == 3
    assert np.allclose(chars[0].d, [1, 1, 1], atol=1e-10)
    assert np.allclose(chars[1].d, [1, OMEGA, OMEGA**2], atol=1e-10)
    assert np.allclose(chars[2].d, [1, OMEGA**2, OMEGA], atol=1e-10)


def test_enumerate_rejects_noncommutative():
    from modtrace.catalog import s3_table

    ring = mt.group_ring(s3_table())
    with pytest.raises(mt.UnsupportedError, match="^character enumeration requires a commutative ring$"):
        mt.enumerate_characters(ring)


def test_pointed_ring_commutativity_is_read_from_its_table(monkeypatch):
    def boom(self):
        raise AssertionError("the n^3 commutativity test ran on a pointed ring")

    monkeypatch.setattr(mt.FusionRing, "is_commutative", boom)
    assert len(mt.enumerate_characters(mt.group_ring(mt.cyclic_table(12)))) == 12


def test_conjugate_z3():
    ring = mt.group_ring(mt.cyclic_table(3))
    char = mt.DimChar(ring, [1, OMEGA, OMEGA**2])
    conj = mt.conjugate_char(char)
    assert np.allclose(conj.d, [1, OMEGA**2, OMEGA], atol=1e-12)
    assert mt.validate_dim_char(conj).valid


def test_conjugate_fixes_real_characters():
    ring = mt.builtin("fibonacci")[0]
    char = mt.DimChar(ring, [1.0, PHI])
    assert np.array_equal(mt.conjugate_char(char).d, char.d)
    z2 = mt.group_ring(mt.cyclic_table(2))
    sgn = mt.DimChar(z2, [1.0, -1.0])
    assert np.array_equal(mt.conjugate_char(sgn).d, sgn.d)


@pytest.mark.parametrize("name", ALL_RINGS)
def test_involution_and_spherical_fixed_points(name):
    ring, _ = mt.builtin(name)
    for char in mt.enumerate_characters(ring):
        double = mt.conjugate_char(mt.conjugate_char(char))
        assert np.max(np.abs(double.d - char.d)) < 1e-10
        fixed = np.max(np.abs(mt.conjugate_char(char).d - char.d)) < 1e-9
        assert fixed == mt.is_spherical(char)


def test_is_spherical_examples():
    ising = mt.builtin("ising")[0]
    assert mt.is_spherical(mt.DimChar(ising, [1, 1, -ROOT2]))
    z3 = mt.group_ring(mt.cyclic_table(3))
    assert not mt.is_spherical(mt.DimChar(z3, [1, OMEGA, OMEGA**2]))
    for name in NAMED_RINGS:
        ring, _ = mt.builtin(name)
        assert mt.is_spherical(mt.fp_character(ring))


def test_global_dimension_examples():
    for n in (1, 2, 5):
        ring = mt.group_ring(mt.cyclic_table(n))
        for char in mt.group_characters(mt.cyclic_table(n)):
            assert abs(mt.global_dimension(char) - n) < 1e-12
    fib = mt.builtin("fibonacci")[0]
    assert abs(mt.global_dimension(mt.DimChar(fib, [1, PHI])) - (PHI + 2)) < 1e-10
    ising = mt.builtin("ising")[0]
    assert abs(mt.global_dimension(mt.DimChar(ising, [1, 1, ROOT2])) - 4) < 1e-12


def test_c_invariant_examples():
    ising = mt.builtin("ising")[0]
    assert abs(mt.c_invariant(mt.DimChar(ising, [1, 1, ROOT2])) - 4) < 1e-12
    z3 = mt.group_ring(mt.cyclic_table(3))
    assert abs(mt.c_invariant(mt.DimChar(z3, [1, OMEGA, OMEGA**2]))) < 1e-12
    z2 = mt.group_ring(mt.cyclic_table(2))
    assert abs(mt.c_invariant(mt.DimChar(z2, [1, -1])) - 2) < 1e-12


@pytest.mark.parametrize("name", ALL_RINGS)
def test_c_dichotomy(name):
    ring, _ = mt.builtin(name)
    for char in mt.enumerate_characters(ring):
        c = mt.c_invariant(char)
        dim_c = mt.global_dimension(char)
        assert min(abs(c - dim_c), abs(c)) < 1e-7
        if mt.is_spherical(char):
            assert abs(c - dim_c) < 1e-7
        else:
            assert abs(c) < 1e-7


@pytest.mark.parametrize("name", ALL_RINGS)
def test_fp_character_is_valid(name):
    ring, _ = mt.builtin(name)
    assert mt.validate_dim_char(mt.fp_character(ring)).valid


@pytest.mark.parametrize("name", ALL_RINGS)
def test_builtin_chars_match_enumeration(name):
    ring, listed = mt.builtin(name)
    enumerated = mt.enumerate_characters(ring)
    assert len(listed) == len(enumerated)
    for lhs, rhs in zip(listed, enumerated):
        assert np.max(np.abs(lhs.d - rhs.d)) < 1e-9


# entries of the sort keys' hard cases: any magnitude up to 1e6, values within
# rounding of a half at the ninth decimal, exact halves there, tiny negatives and -0.0
_KEY_PARTS = st.one_of(
    st.floats(-1e6, 1e6),
    st.integers(-(10**15), 10**15).map(lambda k: (k + 0.5) / 1e9),
    st.integers(-(2**19), 2**19).map(lambda j: (2 * j + 1) / 2**10),
    st.floats(-1e-9, 0.0),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5e-9]),
)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_sort_keys_round_order_and_repeat_like_python_round(data):
    n = data.draw(st.integers(1, 3))
    row = st.lists(_KEY_PARTS, min_size=2 * n, max_size=2 * n)
    pool = data.draw(st.lists(row, min_size=1, max_size=5))
    # repeated rows, some nudged below the ninth decimal: equal keys either way
    pick = st.tuples(st.sampled_from(range(len(pool))), st.sampled_from([0.0, 3e-13]))
    picks = data.draw(st.lists(pick, max_size=8))
    parts = np.array([[x + nudge for x in pool[i]] for i, nudge in picks]).reshape(-1, 2 * n)
    reference = [tuple(round(x, 9) for x in row) for row in parts.tolist()]
    keys = _sort_keys(parts.view(complex))
    assert keys.shape == parts.shape
    assert keys.tolist() == [list(key) for key in reference]
    assert np.array_equal(np.signbit(keys), np.signbit(np.array(reference).reshape(parts.shape)))
    order, repeated = _descending(keys)
    assert order.tolist() == sorted(range(len(reference)), key=reference.__getitem__, reverse=True)
    assert repeated == (len(set(reference)) != len(reference))


def _round12(chars):
    return [[(files.round12(z.real), files.round12(z.imag)) for z in ch.d] for ch in chars]


def _reference_rings():
    rings = [mt.builtin(name)[0] for name in NAMED_RINGS]
    return rings + [mt.group_ring(table) for _, table in abelian_tables_up_to(24)]


def test_enumeration_matches_reference_after_round12():
    # equal at the 12 significant digits of every CLI output and emitted file
    for ring in _reference_rings():
        got, expected = mt.enumerate_characters(ring), enumerate_characters_reference(ring)
        assert _round12(got) == _round12(expected), ring


def test_enumeration_multiplicativity_residual():
    for ring in _reference_rings():
        for ch in mt.enumerate_characters(ring):
            d = ch.d
            residual = np.abs(np.outer(d, d) - np.einsum("abc,c->ab", ring.N, d)).max()
            assert residual <= 1e-13, (ring, residual)


def _elementary_abelian(k):
    table = mt.cyclic_table(2)
    for _ in range(k - 1):
        table = mt.direct_product(table, mt.cyclic_table(2))
    return table


@pytest.mark.parametrize("name", ["Z:64", "Z:128", "Z2^6"])
def test_enumeration_matches_group_characters_after_round12(name):
    # the eigh route, which pointed rings no longer take, against the exact characters
    table = _elementary_abelian(6) if name == "Z2^6" else mt.builtin_group(name)
    got = _eigh_characters(mt.group_ring(table), mt.DEFAULT_TOL)
    assert _round12(got) == _round12(mt.group_characters(table))


def _route_tables():
    return abelian_tables_up_to(24) + [(f"Z:{n}", mt.cyclic_table(n)) for n in (32, 64, 128)]


@pytest.mark.parametrize("name, table", _route_tables(), ids=[name for name, _ in _route_tables()])
def test_pointed_and_eigh_routes_agree_after_round12(name, table):
    ring = mt.group_ring(table)
    assert pointed_table(ring) is not None
    got = mt.enumerate_characters(ring)
    assert _round12(got) == _round12(_eigh_characters(ring, mt.DEFAULT_TOL))
    expected = [ch.d.tobytes() for ch in group_characters_reference(table)]
    assert [ch.d.tobytes() for ch in got] == expected
    assert [ch.d.tobytes() for ch in mt.group_characters(table)] == expected


def _carried_lists():
    """``(label, characters)`` for every list that carries dim(C) and C: both routes."""
    for name, table in abelian_tables_up_to(24) + [("Z:128", mt.cyclic_table(128))]:
        yield f"{name}/group", mt.group_characters(table)
        yield f"{name}/enumerated", mt.enumerate_characters(mt.group_ring(table))
    for name in NAMED_RINGS:
        ring, chars = mt.builtin(name)
        yield f"{name}/builtin", chars
        yield f"{name}/enumerated", mt.enumerate_characters(ring)
    for k in range(1, 41):
        yield f"SU2_{k}", mt.enumerate_characters(su2_ring(k))


def test_character_lists_carry_exact_dim_c_and_c():
    # recorded from one reduction over all rows, bit-equal to the one-row sums
    count = 0
    for label, chars in _carried_lists():
        for char in chars:
            dim_c, c = char.__dict__["_dim_c"], char.__dict__["_c"]
            assert type(dim_c) is float and type(c) is complex, label
            assert dim_c == float(np.sum(np.abs(char.d) ** 2)), label
            assert c == complex(np.sum(char.d**2)), label
            assert mt.global_dimension(char) is dim_c and mt.c_invariant(char) is c
            count += 1
    assert count > 700


def test_characters_built_by_hand_stay_lazy():
    ring = mt.builtin("fibonacci")[0]
    for char in (mt.DimChar(ring, [1.0, PHI]), mt.fp_character(ring)):
        assert "_dim_c" not in char.__dict__ and "_c" not in char.__dict__
        assert mt.global_dimension(char) == float(np.sum(np.abs(char.d) ** 2))
        assert mt.c_invariant(char) == complex(np.sum(char.d**2))


@pytest.mark.parametrize("tol", [-1.0, 0.0, 1e-9, 0.3, 1 - 1e-12, 1.0, 2.0, math.inf, math.nan])
def test_pointed_route_keeps_what_the_full_check_passes(tol):
    # the pointed route evaluates only the checks exact roots of unity can fail
    kept = 0 <= max(tol, mt.DEFAULT_TOL) < 1
    for _, table in abelian_tables_up_to(24):
        ring = mt.group_ring(table)
        expected = _passing(ring, _linear_characters(table.mul, table.identity), tol)
        assert expected.all() == kept and expected.any() == kept
        assert len(mt.enumerate_characters(ring, tol)) == expected.sum()


def test_enumeration_matches_su2_closed_forms():
    # a family beyond group rings: every character of SU(2)_k is real, and
    # those with a zero entry (m not coprime to k + 2) are dropped
    for k in range(1, 41):
        ring = su2_ring(k)
        assert mt.validate_fusion_ring(ring).valid
        got = [ch.d for ch in mt.enumerate_characters(ring)]
        assert _close_sets(got, su2_characters(k), tol=1e-10), k


def _patched_eigh(monkeypatch, spoil, calls_spoiled):
    """``np.linalg.eigh`` whose result is passed through ``spoil(vals, vecs)``
    on the call numbers ``calls_spoiled`` admits; returns the call log."""
    real_eigh, calls = np.linalg.eigh, []

    def eigh(h):
        vals, vecs = real_eigh(h)
        if calls_spoiled(len(calls)):
            spoil(vals, vecs)
        calls.append(len(calls))
        return vals, vecs

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    return calls


def _collide(vals, vecs):
    # a degenerate eigenspace may come back in any basis: rotate two vectors
    vals[1] = vals[0]
    c, s = np.cos(0.3), np.sin(0.3)
    vecs[:, [0, 1]] = vecs[:, [0, 1]] @ np.array([[c, -s], [s, c]])


def _repeat(vals, vecs):
    vecs[:, 1] = vecs[:, 0]


def test_enumeration_reseeds_on_collided_eigenvalues(monkeypatch):
    # mixed eigenvectors read off distinct non-characters, which validation
    # would drop silently; the collision must force the next seed instead.
    # A non-pointed ring: a group ring's characters come from no eigensolver.
    ring, closed = mt.builtin("ising")
    calls = _patched_eigh(monkeypatch, _collide, lambda call: call == 0)
    assert _round12(mt.enumerate_characters(ring)) == _round12(closed)
    assert calls == [0, 1]
    calls = _patched_eigh(monkeypatch, _collide, lambda call: True)
    with pytest.raises(mt.NumericError):
        mt.enumerate_characters(ring)
    assert len(calls) == ENUMERATION_RETRIES


def test_enumeration_reseeds_on_repeated_characters(monkeypatch):
    # separated eigenvalues, but two equal eigenvectors give one character twice
    ring, closed = mt.builtin("rep_s3")
    calls = _patched_eigh(monkeypatch, _repeat, lambda call: call == 0)
    assert _round12(mt.enumerate_characters(ring)) == _round12(closed)
    assert calls == [0, 1]


def _close_sets(got, exact, tol=1e-9):
    unused = list(range(len(got)))
    for target in exact:
        hit = next((i for i in unused if np.max(np.abs(got[i] - target)) <= tol), None)
        if hit is None:
            return False
        unused.remove(hit)
    return not unused


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_enumerate_elementary_abelian_matches_group_characters(k):
    table = _elementary_abelian(k)
    ring = mt.group_ring(table)
    got = [ch.d for ch in _eigh_characters(ring, mt.DEFAULT_TOL)]
    exact = [ch.d for ch in mt.group_characters(table)]
    assert len(got) == 2**k
    assert _close_sets(got, exact)


def _violations_by_loops(char, tol=1e-9):
    """Entry-by-entry reference for validate_dim_char, in its reporting order."""
    ring, d = char.ring, char.d
    n = ring.rank
    viols = []
    if not close(d[ring.unit], 1.0, tol):
        viols.append(mt.Violation("unit", (ring.unit,), complex(d[ring.unit]), 1.0))
    prod = np.einsum("abc,c->ab", ring.N, d)
    outer = np.outer(d, d)
    for a in range(n):
        for b in range(n):
            if not close(outer[a, b], prod[a, b], tol):
                viols.append(
                    mt.Violation("multiplicativity", (a, b), complex(outer[a, b]), complex(prod[a, b]))
                )
    for a in range(n):
        if abs(d[a]) <= tol:
            viols.append(mt.Violation("nonzero", (a,), complex(d[a]), "nonzero"))
    for a in range(n):
        if not close(d[ring.dual[a]], np.conj(d[a]), tol):
            viols.append(
                mt.Violation("duality", (a,), complex(d[ring.dual[a]]), complex(np.conj(d[a])))
            )
    return viols


def test_validate_dim_char_reports_every_violation_in_order():
    ring, chars = mt.builtin("zn:6")
    d = np.array(chars[1].d)
    d[0] = 1.1  # unit
    d[2] = 0.0  # nonzero, and duality with its dual 4
    d[3] *= 1.5  # multiplicativity only: 3 is self-dual and stays real
    d[5] = 1e-9 * d[5]  # below the nonzero tolerance, and duality with 1
    report = mt.validate_dim_char(mt.DimChar(ring, d))
    expected = _violations_by_loops(mt.DimChar(ring, d))
    assert {v.axiom for v in expected} == {"unit", "multiplicativity", "nonzero", "duality"}
    assert list(report.violations) == expected
    assert all(type(i) is int for v in report.violations for i in v.index)


def test_validate_dim_char_matches_loops_on_multi_term_products():
    # products of SU(2)_8 simples have several terms, and the batched check sums
    # them in another order: each right-hand side may differ by the rounding of its sum
    ring = su2_ring(8)
    d = np.array(mt.enumerate_characters(ring)[0].d)
    d[4] *= 1.5
    d[5] = 0.0
    got = mt.validate_dim_char(mt.DimChar(ring, d)).violations
    expected = _violations_by_loops(mt.DimChar(ring, d))
    assert [v[:3] for v in got] == [v[:3] for v in expected]
    bound = ring.rank * np.finfo(float).eps * np.einsum("abc,c->ab", ring.N, np.abs(d))
    for g, e in zip(got, expected):
        if e.axiom == "multiplicativity":
            assert abs(g.rhs - e.rhs) <= bound[e.index], e
        else:
            assert g.rhs == e.rhs


def _broken_rows(ring, d):
    """Rows made from the valid character ``d`` by breaking one axiom each, keyed by that axiom."""
    rows = {axiom: np.array(d) for axiom in ("unit", "multiplicativity", "nonzero", "duality")}
    rows["unit"][ring.unit] = 1.1
    rows["multiplicativity"][-1] *= 1.5
    rows["nonzero"][-1] = 1e-10
    rows["duality"][-1] += 0.5j  # the last simple's dual entry is no longer its conjugate
    return rows


@pytest.mark.parametrize("name", ["rep_s3", "fibonacci", "zn:6"])
def test_enumeration_keep_mask_matches_validate_dim_char(name):
    ring, chars = mt.builtin(name)
    broken = _broken_rows(ring, chars[-1].d)
    for axiom, row in broken.items():
        assert axiom in {v.axiom for v in mt.validate_dim_char(mt.DimChar(ring, row)).violations}
    rows = [ch.d for ch in chars] + list(broken.values())
    if name == "rep_s3":
        rows.append(np.array([1.0, -1.0, 0.0]))  # the hook: multiplicative, with a zero entry
        hook = mt.validate_dim_char(mt.DimChar(ring, rows[-1]))
        assert [v.axiom for v in hook.violations] == ["nonzero"]
    rows = np.array(rows, dtype=complex)
    for tol in (0.0, 1e-9, 0.3):
        expected = [mt.validate_dim_char(mt.DimChar(ring, row), tol).valid for row in rows]
        assert _passing(ring, rows, tol).tolist() == expected, tol
    assert expected.count(True) > len(chars)  # tol = 0.3 forgives a broken row


def test_enumerate_rep_s3_drops_the_hook():
    ring, listed = mt.builtin("rep_s3")
    got = mt.enumerate_characters(ring)
    assert [ch.d.tolist() for ch in got] == [ch.d.tolist() for ch in listed]
    assert [ch.d.tolist() for ch in got] == [[1, 1, 2], [1, 1, -1]]


@pytest.mark.parametrize("n", [32, 64])
def test_character_layers_peak_within_their_byte_formulas(n):
    # the formulas written in enumerate_characters and builtin: the pointed route on zn:<n> with
    # and without its table memo, the numeric route on SU(2)_{n-1}, and builtin zn:<n>
    mt.builtin("zn:4"), mt.enumerate_characters(su2_ring(3))  # loads the layers before the count
    built = mt.builtin(f"zn:{n}")[0]
    fresh = mt.FusionRing(n, built.labels, built.unit, built.dual, built.N)
    su2 = su2_ring(n - 1)
    pointed = 8 * 16 * n**2 + 8192 * n
    assert allocation_peak(lambda: mt.enumerate_characters(built)) <= pointed
    assert allocation_peak(lambda: mt.enumerate_characters(fresh)) <= max(pointed, 2 * fusion._composes_bytes(n, n))
    assert pointed_table(fresh) is not None and pointed_table(su2) is None
    assert allocation_peak(lambda: mt.enumerate_characters(su2)) <= 4 * 8 * n**3 + 16 * _CHECK_BYTES + 16 * 16 * n**2
    assert allocation_peak(lambda: mt.builtin(f"zn:{n}")) <= 8 * n**3 + 10 * 16 * n**2 + 8192 * n
