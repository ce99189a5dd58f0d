import math

import numpy as np
import pytest

import modtrace as mt
from helpers import (
    NAMED_RINGS,
    PHI,
    ROOT2,
    abelian_tables_up_to,
    enumerate_characters_reference,
    sort_key_reference,
    su2_characters,
    su2_ring,
)
from modtrace import files
from modtrace.chars import ENUMERATION_RETRIES
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


def test_char_sort_key_is_flat_and_orders_like_pairs():
    assert mt.char_sort_key([1.0, 1j, -0.5 + 2e-10j]) == (1.0, 0.0, 0.0, 1.0, -0.5, 0.0)
    rng = np.random.default_rng(3)
    rows = np.round(rng.standard_normal((40, 3)) + 1j * rng.standard_normal((40, 3)), 1)
    flat = sorted(range(40), key=lambda i: mt.char_sort_key(rows[i]))
    pairs = sorted(range(40), key=lambda i: sort_key_reference(rows[i]))
    assert flat == pairs


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
    table = _elementary_abelian(6) if name == "Z2^6" else mt.builtin_group(name)
    got = mt.enumerate_characters(mt.group_ring(table))
    assert _round12(got) == _round12(mt.group_characters(table))


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
    # would drop silently; the collision must force the next seed instead
    ring, closed = mt.builtin("zn:5")
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
    got = [ch.d for ch in mt.enumerate_characters(ring)]
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
