import math

import numpy as np
import pytest

import modtrace as mt
from helpers import NAMED_RINGS, PHI, ROOT2, abelian_tables_up_to, enumerate_characters_reference
from modtrace.chars import _pair_system, _polish_character
from modtrace.common import close

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
    with pytest.raises(mt.UnsupportedError):
        mt.enumerate_characters(ring)


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


def test_enumeration_matches_per_matrix_reference_bit_for_bit():
    rings = [mt.builtin(name)[0] for name in NAMED_RINGS]
    rings += [mt.group_ring(table) for _, table in abelian_tables_up_to(24)]
    for ring in rings:
        got, expected = mt.enumerate_characters(ring), enumerate_characters_reference(ring)
        assert [ch.d.tobytes() for ch in got] == [ch.d.tobytes() for ch in expected], ring


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
    # Z2^k has a real eigenbasis, so polishing must work on a complex copy
    table = mt.cyclic_table(2)
    for _ in range(k - 1):
        table = mt.direct_product(table, mt.cyclic_table(2))
    ring = mt.group_ring(table)
    got = [ch.d for ch in mt.enumerate_characters(ring)]
    exact = [ch.d for ch in mt.group_characters(table)]
    assert len(got) == 2**k
    assert _close_sets(got, exact)


def _polish_by_loops(ring, d):
    """Entry-by-entry reference for the Gauss-Newton polish of a near-character."""
    n, N, unit = ring.rank, ring.N, ring.unit
    free = [a for a in range(n) if a != unit]
    pairs = [(a, b) for a in range(n) for b in range(a, n)]
    d = np.array(d, dtype=complex)
    d[unit] = 1.0
    for _ in range(16):
        res = np.array([d[a] * d[b] - N[a, b] @ d for a, b in pairs])
        if np.max(np.abs(res)) < 1e-14:
            break
        jac = np.zeros((len(pairs), len(free)), dtype=complex)
        for row, (a, b) in enumerate(pairs):
            for col, c in enumerate(free):
                jac[row, col] = (c == a) * d[b] + (c == b) * d[a] - N[a, b, c]
        step, *_ = np.linalg.lstsq(jac, -res, rcond=None)
        if np.max(np.abs(step)) > 0.5:
            break
        d[free] += step
    return d


@pytest.mark.parametrize("name", ["fibonacci", "ising", "rep_s3", "zn:5", "zn:8"])
def test_polish_matches_loop_reference(name):
    ring, chars = mt.builtin(name)
    rng = np.random.default_rng(7)
    pairs = _pair_system(ring)  # shared by every character, as enumeration does
    for char in chars:
        start = char.d + 1e-6 * (rng.standard_normal(ring.rank) + 1j * rng.standard_normal(ring.rank))
        got = _polish_character(ring, start)
        assert np.array_equal(got, _polish_by_loops(ring, start))
        assert got.tobytes() == _polish_character(ring, start, pairs).tobytes()
        assert np.max(np.abs(got - char.d)) < 1e-12
    real = _polish_character(ring, chars[0].d.real + 1e-6)  # a real start is polished too
    assert np.max(np.abs(real - chars[0].d)) < 1e-12


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
