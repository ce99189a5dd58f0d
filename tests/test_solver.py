import copy
import dataclasses
import json
import math
import pickle
import struct
import sys
import tracemalloc

import numpy as np
import pytest

import helpers
import modtrace as mt
from helpers import (
    PHI,
    ROOT2,
    abelian_tables_up_to,
    allocation_peak,
    diagnostics_bruteforce,
    dimension_matrix_reference,
    fp_module_trace,
    instance_universe,
    max_minor_bruteforce,
    q_property_report,
    su2_characters,
    su2_ring,
    trace_exists_bruteforce,
)
from modtrace import solver
from modtrace.common import negligible
from modtrace.fusion import pointed_table


def fib_setup():
    ring = mt.builtin("fibonacci")[0]
    golden = mt.DimChar(ring, [1.0, PHI])
    galois = mt.DimChar(ring, [1.0, 1.0 - PHI])
    return ring, golden, galois, mt.regular_module(ring)


def z2_setup():
    table = mt.cyclic_table(2)
    ring = mt.group_ring(table)
    triv, sign = mt.group_characters(table)
    return table, ring, triv, sign


def test_dimension_matrix_fibonacci_regular():
    ring, golden, _, reg = fib_setup()
    q = mt.dimension_matrix(golden, reg)
    assert np.allclose(q, [[1, PHI], [PHI, PHI**2]], atol=1e-12)


def test_dimension_matrix_z2_subgroup():
    table, ring, _, sign = z2_setup()
    single = mt.vect_g_module(table, (0, 1))
    q = mt.dimension_matrix(sign, single)
    assert np.allclose(q, [[0.0]], atol=1e-12)
    reg = mt.vect_g_module(table, (0,))
    q2 = mt.dimension_matrix(sign, reg)
    assert np.allclose(q2, [[1, -1], [-1, 1]], atol=1e-12)


def test_dimension_matrix_ring_mismatch():
    ring, golden, _, _ = fib_setup()
    other = mt.regular_module(mt.builtin("ising")[0])
    with pytest.raises(mt.StructuralError):
        mt.dimension_matrix(golden, other)


@pytest.mark.parametrize("foreign", [0, 1, 2], ids=["ring", "char", "rep"])
def test_solve_ring_mismatch(foreign):
    ring, golden, _, reg = fib_setup()
    ising = mt.builtin("ising")[0]
    args = [ring, golden, reg]
    args[foreign] = [ising, mt.DimChar(ising, [1, 1, ROOT2]), mt.regular_module(ising)][foreign]
    with pytest.raises(mt.StructuralError):
        mt.solve_module_trace(*args)


def test_dimension_matrix_is_read_only_complex():
    ring, golden, _, reg = fib_setup()
    cert = mt.solve_module_trace(ring, golden, reg)
    assert "Q" not in vars(cert)  # formed on first read, then kept
    q = mt.dimension_matrix(golden, reg)
    assert cert.Q is cert.Q and np.array_equal(cert.Q, q)
    assert q is not cert.Q and not np.shares_memory(q, cert.Q)  # a new array per call
    # the module keeps no complex copy of M, only its diagonal as one
    kept = [a for a in vars(reg).values() if isinstance(a, np.ndarray) and a.dtype == complex]
    assert len(kept) == 1 and not np.shares_memory(kept[0], reg.M)
    assert np.array_equal(kept[0][:, -2:], reg.M.diagonal(0, 1, 2))
    for a in (q, cert.Q, cert.diagonal, cert.trace.d, kept[0]):
        assert isinstance(a, np.ndarray) and a.dtype == complex
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0] = 0


def _oracle_inputs():
    """``(label, ring, char, rep, one_term)`` over the builtin universe (direct sums
    included), every abelian group of order <= 24 and S3 x Z_n for n <= 4 with all
    their characters and coset modules, and the SU(2)_k regular modules for k <= 12.

    ``one_term`` marks the regular modules of group rings, where every entry of
    ``Q`` is a single term ``d(g) * 1``.
    """
    for label, ring, char, rep in instance_universe(max_zn=12):
        yield label, ring, char, rep, label.startswith("zn:") and label.endswith("/H0")
    s3 = mt.builtin_group("S3")
    tables = abelian_tables_up_to(24) + [("S3", s3)] + [
        (f"S3xZ{n}", mt.direct_product(s3, mt.cyclic_table(n))) for n in range(2, 5)
    ]
    for name, table in tables:
        ring = mt.group_ring(table)
        chars = mt.group_characters(table) if table.is_abelian() else [mt.fp_character(ring)]
        for h, H in enumerate(mt.subgroups(table)):
            rep = mt.vect_g_module(table, H)
            for c, char in enumerate(chars):
                yield f"{name}/char{c}/H{h:02d}", ring, char, rep, len(H) == 1
    for k in range(1, 13):
        ring = su2_ring(k)
        rep = mt.regular_module(ring)
        for c, d in enumerate(su2_characters(k)):
            yield f"SU2_{k}/char{c}/regular", ring, mt.DimChar(ring, d), rep, False


def test_dimension_matrix_matches_einsum_oracle():
    # the BLAS product sums in another order than the einsum, so an entry with more
    # than one term may change in the last bits; a single-term entry may not
    inputs = list(_oracle_inputs())
    assert len(inputs) > 6000
    eps = np.finfo(float).eps
    bounds, one_term = [], 0
    for label, ring, char, rep, single in inputs:
        q, ref = mt.dimension_matrix(char, rep), dimension_matrix_reference(char, rep)
        n, k = ring.rank, rep.module_rank
        bound = n * eps * (np.abs(char.d) @ rep.M.reshape(n, k * k)).reshape(k, k)
        assert np.all(np.abs(q - ref) <= bound), label
        if single:
            assert q.tobytes() == ref.tobytes(), label
            one_term += 1
        bounds.append(bound)
    assert one_term > 100

    # the verdict read from the diagonal against the all-minors test on the einsum Q
    certs = [mt.solve_module_trace(ring, char, rep) for _, ring, char, rep, _ in inputs]
    for (label, ring, char, rep, _), cert, bound in zip(inputs, certs, bounds):
        ref = dimension_matrix_reference(char, rep)
        assert cert.diagnostics == diagnostics_bruteforce(ref), label
        assert cert.matched == (cert.diagnostics == ()), label
        a, b = (cert.trace.anchor, int(ref.diagonal().real.argmax())) if cert.matched else (0, 0)
        if a != b:
            # the largest diagonal entry is tied in exact arithmetic; the dust decides.  On a
            # group ring a matched diagonal is a sum of exact ones, so any order ties exactly
            assert pointed_table(ring) is None, label
            assert abs(ref[a, a] - ref[b, b]) <= bound[a, a] + bound[b, b], label
    assert {cert.matched for cert in certs} == {True, False}


def test_op_records_equal_their_definitions_bit_for_bit():
    # every number of a catalog_sweep op, recomputed from Q with plain numpy in the
    # operand order of its definition; == on each, no tolerance
    objects = early = 0
    for label, ring, char, rep, _ in _oracle_inputs():
        cert = mt.solve_module_trace(ring, char, rep)
        # a zero Q[0][0] returns at once; the full path keeps the diagonal and its scale, and
        # the diagnostics of a match; Q and everything read from it wait for their first read
        returned_early = "diagonal" not in vars(cert)
        assert not {"Q", "min_entry", "max_minor"} & set(vars(cert)), label
        assert ("diagnostics" in vars(cert)) == cert.matched, label
        early += returned_early
        q = cert.Q
        assert returned_early == negligible(abs(q[0, 0]), 0.0), label
        mag = np.abs(q)
        r, s = np.unravel_index(mag.argmax(), q.shape)
        minors = np.abs(q[r, s] * q - q[:, s, None] * q[r])
        assert cert.diagonal.tobytes() == q.diagonal().tobytes(), label
        assert all(cert.column(j).tobytes() == q[:, j].tobytes() for j in range(len(q))), label
        # each is one plain product, with the numpy call of its definition
        diagonal = char.d.dot(rep.M.diagonal(0, 1, 2).astype(complex))
        assert cert.diagonal.tobytes() == diagonal.tobytes(), label
        for j in range(len(q)):
            column = char.d.dot(rep.M[:, :, j])
            column[j] = diagonal[j]
            assert cert.column(j).tobytes() == column.tobytes(), (label, j)
        scale = np.abs(q.diagonal()).max()
        assert (cert.scale, cert.min_entry, cert.max_minor) == (scale, mag.min(), minors.max()), label
        diagnostics = cert.diagnostics
        assert diagnostics == diagnostics_bruteforce(q), label
        out = cert.to_dict()  # reads both again, as the CLI does
        assert out["residuals"]["max_minor"] == minors.max() and out["diagnostics"] == list(diagnostics)
        assert cert.diagnostics is diagnostics, label
        if not cert.matched:
            continue
        p = int(q.diagonal().real.argmax())
        d = q[:, p] / np.sqrt(q[p, p].real)
        assert cert.trace.anchor == p and cert.trace.d.tobytes() == d.tobytes(), label
        if not mt.is_indecomposable(rep):
            continue
        for m in range(rep.module_rank):
            frob = mt.frobenius_report(ring, char, rep, m, cert)
            dim_a = 0.0 if abs(q[m, m]) <= cert.tol * max(1.0, cert.scale) else q[m, m].real
            assert (frob.dim_a, frob.haploid) == (dim_a, rep.M[ring.unit, m, m] == 1), label
            morita = mt.morita_rescale_check(ring, char, rep, m, cert)
            assert morita.scale == q[m, m] / d[m], label
            assert morita.max_residual == np.abs(q[:, m] - np.conj(d[m]) * d).max(), label
            objects += 1
    assert objects > 10000 and early > 3000


def test_records_stay_frozen():
    ring, golden, _, reg = fib_setup()
    cert = mt.solve_module_trace(ring, golden, reg)
    records = [
        cert,
        cert.trace,
        mt.frobenius_report(ring, golden, reg, 1, cert),
        mt.morita_rescale_check(ring, golden, reg, 1, cert),
    ]
    for record in records:
        for field in dataclasses.fields(record):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, field.name, getattr(record, field.name))
    with pytest.raises(dataclasses.FrozenInstanceError):
        cert.spherical_by_c = False
    with pytest.raises(ValueError):
        cert.trace.d[0] = 0

    copy = dataclasses.replace(cert, tol=1e-3)
    assert type(copy) is mt.TraceCertificate and copy.tol == 1e-3
    assert (copy.char, copy.rep, copy.trace, copy.matched) == (cert.char, cert.rep, cert.trace, True)
    assert copy.Q.tobytes() == cert.Q.tobytes()
    assert list(cert.to_dict()) == [
        "matched", "dimC", "C", "spherical_by_C", "d", "anchor", "residuals", "diagnostics"
    ]

    # anything but a read-only complex array comes out as a read-only complex copy
    writable = np.array([1, 1j])
    for given in ([1, 1j], writable, np.array([1, 2])):
        d = mt.ModuleTrace(given, 0).d
        assert d.dtype == complex and not d.flags.writeable
        assert not np.shares_memory(d, np.asarray(given))
    assert writable.flags.writeable


@pytest.mark.parametrize("position", ["hermitian", "square", "eigen"])
def test_q_property_report_fails_on_nan_residual(position, monkeypatch):
    ring, golden, _, reg = fib_setup()
    q = mt.dimension_matrix(golden, reg)
    nan = float("nan")
    if position == "eigen":
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: np.array([0.0, nan]))
    else:
        residuals = (nan, 0.0) if position == "hermitian" else (0.0, nan)
        monkeypatch.setattr(helpers, "q_structural_residuals", lambda m, dim_c: residuals)
    report = q_property_report(q, mt.global_dimension(golden))
    assert report.passed is False


def test_q_properties_fibonacci():
    ring, golden, _, reg = fib_setup()
    q = mt.dimension_matrix(golden, reg)
    report = q_property_report(q, mt.global_dimension(golden))
    assert report.passed
    assert report.residual_square < 1e-9
    assert report.residual_hermitian < 1e-9


def test_q_properties_zero_matrix():
    table, ring, _, sign = z2_setup()
    single = mt.vect_g_module(table, (0, 1))
    q = mt.dimension_matrix(sign, single)
    report = q_property_report(q, 2.0)
    assert report.passed  # 0^2 = 2 * 0 and all eigenvalues are 0


def test_q_properties_ising_rank_one():
    ring = mt.builtin("ising")[0]
    char = mt.DimChar(ring, [1, 1, ROOT2])
    q = mt.dimension_matrix(char, mt.regular_module(ring))
    expected = np.array([[1, 1, ROOT2], [1, 1, ROOT2], [ROOT2, ROOT2, 2]])
    assert np.allclose(q, expected, atol=1e-12)
    assert np.allclose(q @ q, 4 * q, atol=1e-12)
    assert q_property_report(q, 4.0).passed


def test_solve_z2_single_object_unmatched():
    table, ring, _, sign = z2_setup()
    single = mt.vect_g_module(table, (0, 1))
    cert = mt.solve_module_trace(ring, sign, single)
    assert not cert.matched
    assert cert.trace is None
    assert "zero entry in Q" in cert.diagnostics
    assert "zero diagonal" in cert.diagnostics


def test_solve_z2_regular_matched():
    table, ring, _, sign = z2_setup()
    reg = mt.vect_g_module(table, (0,))
    cert = mt.solve_module_trace(ring, sign, reg)
    assert cert.matched
    assert np.allclose(cert.trace.d, [1, -1], atol=1e-12)
    assert abs(cert.dim_c - 2.0) < 1e-12


def test_solve_fibonacci_golden():
    ring, golden, _, reg = fib_setup()
    cert = mt.solve_module_trace(ring, golden, reg)
    assert cert.matched
    assert np.allclose(cert.trace.d, [1.0, PHI], atol=1e-10)
    assert abs(cert.dim_c - (PHI + 2)) < 1e-10


def test_solve_fibonacci_galois():
    ring, _, galois, reg = fib_setup()
    cert = mt.solve_module_trace(ring, galois, reg)
    assert cert.matched
    assert np.allclose(cert.trace.d, [1.0, 1.0 - PHI], atol=1e-10)
    assert abs(cert.dim_c - (3.0 - PHI)) < 1e-10


def test_trace_normalisation_and_anchor():
    for label, ring, char, rep in instance_universe(max_zn=5, with_sums=False):
        cert = mt.solve_module_trace(ring, char, rep)
        if not cert.matched:
            continue
        d = cert.trace.d
        assert abs(np.sum(np.abs(d) ** 2) - cert.dim_c) < 1e-8, label
        assert abs(np.trace(cert.Q).real - cert.dim_c) < 1e-8, label
        anchor = cert.trace.anchor
        assert abs(d[anchor].imag) < 1e-10 and d[anchor].real > 0, label
        # compatible with the module action: M_u^T d_M = d(u) d_M
        action = np.einsum("uji,j->ui", rep.M, d)
        assert np.max(np.abs(action - np.outer(char.d, d))) < 1e-8, label


def test_fp_module_trace_examples():
    fib = mt.builtin("fibonacci")[0]
    assert np.allclose(
        fp_module_trace(mt.regular_module(fib)), [1.0, PHI], atol=1e-10
    )
    ising = mt.builtin("ising")[0]
    assert np.allclose(
        fp_module_trace(mt.regular_module(ising)), [1, 1, ROOT2], atol=1e-10
    )
    z2 = mt.group_ring(mt.cyclic_table(2))
    assert np.allclose(fp_module_trace(mt.regular_module(z2)), [1, 1], atol=1e-12)


def test_fp_module_trace_rejects_decomposable():
    fib = mt.builtin("fibonacci")[0]
    reg = mt.regular_module(fib)
    with pytest.raises(mt.UnsupportedError):
        fp_module_trace(mt.direct_sum(reg, reg))


def test_matched_report_z2():
    table, ring, triv, sign = z2_setup()
    mods = [mt.vect_g_module(table, (0,)), mt.vect_g_module(table, (0, 1))]
    rep_triv = mt.matched_report(triv, mods)
    assert rep_triv.flexible
    assert all(c.matched for c in rep_triv.certificates)
    rep_sign = mt.matched_report(sign, mods)
    assert not rep_sign.flexible
    assert [c.matched for c in rep_sign.certificates] == [True, False]
    assert "supplied" in rep_sign.note


def test_matched_report_fibonacci_fp():
    ring = mt.builtin("fibonacci")[0]
    report = mt.matched_report(mt.fp_character(ring), [mt.regular_module(ring)])
    assert report.flexible


def test_matched_report_empty_list():
    ring, golden, _, _ = fib_setup()
    with pytest.raises(mt.StructuralError):
        mt.matched_report(golden, [])


@pytest.mark.parametrize("n", [4, 12])
def test_exact_tolerance_matches_trivial_character_on_every_coset_module(n):
    # Q is an exact integer matrix here, so every residual is exactly 0
    table = mt.cyclic_table(n)
    ring = mt.group_ring(table)
    trivial = mt.group_characters(table)[0]
    assert np.array_equal(trivial.d, np.ones(n))
    for sub in mt.subgroups(table):
        cert = mt.solve_module_trace(ring, trivial, mt.vect_g_module(table, sub), 0.0)
        assert cert.matched and cert.spherical_by_c, sub
        assert cert.residuals["max_minor"] == 0.0 and cert.tol == 0.0


def test_exact_tolerance_agrees_with_vectg_oracle_on_z4():
    # the characters of Z:4 take the exact values 1, i, -1, -i
    table = mt.cyclic_table(4)
    ring = mt.group_ring(table)
    pairs = [(char, sub) for char in mt.group_characters(table) for sub in mt.subgroups(table)]
    assert len(pairs) == 12
    for char, sub in pairs:
        cert = mt.solve_module_trace(ring, char, mt.vect_g_module(table, sub), 0.0)
        assert cert.matched == mt.matched_vectg_oracle(table, sub, char), (char, sub)


@pytest.mark.parametrize("g", [8, 9, 12, 15, 16])
def test_verdicts_are_constant_on_galois_orbits(g):
    # chi -> chi^t for t coprime to g is a field automorphism of Q(zeta_g); it keeps
    # the kernel of chi, so it keeps the verdict on every coset module
    table = mt.cyclic_table(g)
    ring = mt.group_ring(table)
    units = [t for t in range(2, g) if math.gcd(t, g) == 1]
    seen = set()
    for sub in mt.subgroups(table):
        rep = mt.vect_g_module(table, sub)
        for c, char in enumerate(mt.group_characters(table)):
            matched = mt.solve_module_trace(ring, char, rep).matched
            for t in units:
                image = mt.DimChar(ring, char.d**t)
                assert mt.solve_module_trace(ring, image, rep).matched is matched, (sub, c, t)
            seen.add(matched)
    assert seen == {True, False}


def test_verdicts_agree_under_the_conjugate_pivotal_structure():
    count = 0
    for label, ring, char, rep in instance_universe(max_zn=12):
        matched = mt.solve_module_trace(ring, char, rep).matched
        assert mt.solve_module_trace(ring, mt.conjugate_char(char), rep).matched is matched, label
        count += matched
    assert count > 100


def test_eigenvector_scale_uniqueness():
    rng = np.random.default_rng(7)
    checked = 0
    for label, ring, char, rep in instance_universe(max_zn=6, with_sums=False):
        cert = mt.solve_module_trace(ring, char, rep)
        if not cert.matched:
            continue
        q, d = cert.Q, cert.trace.d
        k = rep.module_rank
        noise = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        candidate = q @ noise / cert.dim_c  # projection onto the trace eigenspace
        if np.min(np.abs(candidate)) < 1e-8:
            continue
        ratio = candidate[cert.trace.anchor] / d[cert.trace.anchor]
        assert np.max(np.abs(candidate - ratio * d)) < 1e-8 * max(1.0, abs(ratio)), label
        checked += 1
    assert checked >= 30


def test_direct_sum_block_consistency():
    table = mt.cyclic_table(6)
    ring = mt.group_ring(table)
    subs = mt.subgroups(table)
    chars = mt.group_characters(table)
    pairs = 0
    for char in chars:
        matched_mods = [
            mt.vect_g_module(table, H)
            for H in subs
            if mt.matched_vectg_oracle(table, H, char)
        ]
        for a in range(len(matched_mods)):
            for b in range(a, len(matched_mods)):
                rep1, rep2 = matched_mods[a], matched_mods[b]
                total = mt.direct_sum(rep1, rep2)
                big = mt.dimension_matrix(char, total)
                k1 = rep1.module_rank
                q1 = mt.dimension_matrix(char, rep1)
                q2 = mt.dimension_matrix(char, rep2)
                assert np.allclose(big[:k1, :k1], q1, atol=1e-12)
                assert np.allclose(big[k1:, k1:], q2, atol=1e-12)
                assert np.max(np.abs(big[:k1, k1:])) < 1e-12
                # the combined rep fails the rank-1 test even though each
                # block is matched; each block still extracts its own vector
                cert_total = mt.solve_module_trace(ring, char, total)
                assert not cert_total.matched
                c1 = mt.solve_module_trace(ring, char, rep1)
                c2 = mt.solve_module_trace(ring, char, rep2)
                assert c1.matched and c2.matched
                recon = np.zeros_like(big)
                recon[:k1, :k1] = np.outer(c1.trace.d, np.conj(c1.trace.d))
                recon[k1:, k1:] = np.outer(c2.trace.d, np.conj(c2.trace.d))
                assert np.max(np.abs(big - recon)) < 1e-8
                pairs += 1
    assert pairs > 0


def test_minor_test_agrees_with_bruteforce_on_small_instances():
    # the two existence tests are equivalent on indecomposable modules only:
    # a direct sum of matched blocks has a nowhere-zero eigenvector but a
    # block-diagonal (rank >= 2) dimension matrix.
    pool = [
        item
        for item in instance_universe(max_zn=6)
        if item[3].module_rank <= 3 and mt.is_indecomposable(item[3])
    ]
    rng = np.random.default_rng(0)
    picks = rng.integers(0, len(pool), size=200)
    disagreements = []
    for idx in picks:
        label, ring, char, rep = pool[idx]
        cert = mt.solve_module_trace(ring, char, rep)
        oracle = trace_exists_bruteforce(cert.Q, cert.dim_c)
        if cert.matched != oracle:
            disagreements.append(label)
    assert disagreements == []


def _assert_pivoted_test_matches_all_minors(cert, label, valid=True):
    q = cert.Q
    # the minors are quadratic in Q, so their scale is max|Q|**2
    s = float(np.max(np.abs(q)))
    bound = mt.DEFAULT_TOL * max(1.0, s * s)
    if valid:  # the verdict reads the trace as the rank only where Q^2 = dim(C) Q
        assert cert.diagnostics == diagnostics_bruteforce(q), label
    pivoted = cert.residuals["max_minor"] > bound
    assert pivoted == (max_minor_bruteforce(q) > bound), label


def test_pivoted_rank_test_matches_all_minors_on_universe():
    count = 0
    for label, ring, char, rep in instance_universe(with_sums=True):
        _assert_pivoted_test_matches_all_minors(mt.solve_module_trace(ring, char, rep), label)
        count += 1
    assert count > 500


def test_pivoted_rank_test_matches_all_minors_on_random_characters():
    # the criterion-8 instances, plus the same modules under random complex
    # (invalid) characters, whose Q is neither hermitian nor semidefinite
    pool = [
        item
        for item in instance_universe(max_zn=6)
        if item[3].module_rank <= 3 and mt.is_indecomposable(item[3])
    ]
    rng = np.random.default_rng(0)
    for idx in rng.integers(0, len(pool), size=200):
        label, ring, char, rep = pool[idx]
        _assert_pivoted_test_matches_all_minors(mt.solve_module_trace(ring, char, rep), label)
        d = rng.standard_normal(ring.rank) + 1j * rng.standard_normal(ring.rank)
        noisy = mt.DimChar(ring, d)
        _assert_pivoted_test_matches_all_minors(
            mt.solve_module_trace(ring, noisy, rep), label + "/random", valid=False
        )


def test_pivoted_rank_test_on_zero_q():
    table, ring, _, sign = z2_setup()
    single = mt.vect_g_module(table, (0, 1))
    cert = mt.solve_module_trace(ring, sign, single)
    assert np.array_equal(cert.Q, [[0.0]])
    assert cert.residuals["max_minor"] == 0.0
    assert cert.diagnostics == ("zero entry in Q", "zero diagonal")


def _off_diagonal_inputs(m0, m1, d1):
    # Q = m0 + d1 * m1 over the Z2 group ring, from an (invalid) NIM-rep
    ring = mt.group_ring(mt.cyclic_table(2))
    return ring, mt.DimChar(ring, [1.0, d1]), mt.NimRep(ring, len(m0), [m0, m1])


def _off_diagonal_instance(m0, m1, d1):
    return mt.solve_module_trace(*_off_diagonal_inputs(m0, m1, d1))


def test_pivoted_rank_test_with_off_diagonal_largest_entry():
    # none of these Q satisfies Q^2 = dim(C) Q, so the verdict is the diagonal's:
    # round(tr(Q) / dim(C)) is 2, 0 and 0, whatever the minors say
    eye = np.eye(2, dtype=int)
    rank_one = _off_diagonal_instance(eye, [[0, 4], [1, 0]], 0.5)  # [[1, 2], [0.5, 1]], dim(C) 1.25
    assert np.argmax(np.abs(rank_one.Q)) == 1
    assert rank_one.residuals["max_minor"] == 0.0
    assert not rank_one.matched and rank_one.diagnostics == ("rank exceeds 1",)
    _assert_pivoted_test_matches_all_minors(rank_one, "rank one", valid=False)

    rank_two = _off_diagonal_instance(eye, [[0, 1], [1, 0]], 2.0)  # [[1, 2], [2, 1]], dim(C) 5
    assert rank_two.residuals["max_minor"] == pytest.approx(3.0)
    assert not rank_two.matched and rank_two.diagnostics == ("zero diagonal",)
    _assert_pivoted_test_matches_all_minors(rank_two, "rank two", valid=False)

    # a nilpotent shift: zero diagonal, so no diagonal pivot sees its rank 2
    shift = np.diag([1, 1], k=1)
    nilpotent = _off_diagonal_instance(shift, np.zeros((3, 3), dtype=int), 1.0)
    assert nilpotent.residuals["max_minor"] == 1.0
    assert nilpotent.diagnostics == ("zero entry in Q", "zero diagonal")
    _assert_pivoted_test_matches_all_minors(nilpotent, "nilpotent", valid=False)


def _eager_residuals(cert) -> dict:
    """The check residuals as the solver computed them before they became lazy."""
    m, dim_c = cert.Q, cert.dim_c
    mag = np.abs(m)
    r, s = divmod(int(mag.argmax()), m.shape[1])
    out = {
        "hermitian": float(np.abs(m - m.conj().T).max()),
        "q_square": float(np.abs(m @ m - dim_c * m).max()),
        "max_minor": float(np.abs(m[r, s] * m - m[:, s, None] * m[None, r, :]).max()),
        "min_entry": float(mag.min()),
    }
    if cert.matched:
        p = int(m.diagonal().real.argmax())
        d = m[:, p] / np.sqrt(m[p, p].real)
        out["right_eigen"] = float(np.abs(m @ d - dim_c * d).max())
        out["left_eigen"] = float(np.abs(m.T @ d - cert.c * d).max())
        out["reconstruction"] = float(np.abs(m - d[:, None] * d.conj()[None, :]).max())
    return out


def test_lazy_residuals_equal_the_eager_formulas_on_universe():
    count = 0
    for label, ring, char, rep in instance_universe(max_zn=12):
        cert = mt.solve_module_trace(ring, char, rep)
        expected = _eager_residuals(cert)
        assert list(cert.residuals.items()) == list(expected.items()), label
        assert cert.residuals is cert.residuals  # computed once
        assert list(cert.to_dict()["residuals"].items()) == list(expected.items()), label
        count += 1
    assert count > 900


def test_rank_diagnostic_reads_the_trace_at_any_tolerance():
    # the rank is the integer round(tr(Q) / dim(C)): at tol = max_minor / s**1.5 the minors
    # are negligible at s**2, and at tol = 0 their dust is not; neither moves the rank
    checked = 0
    for label, ring, char, rep in instance_universe(max_zn=6):
        cert = mt.solve_module_trace(ring, char, rep)
        if cert.matched or cert.scale < 1.5 or cert.max_minor < 1.0:
            continue
        rank = round(np.trace(cert.Q).real / cert.dim_c)
        assert rank >= 2, label
        for tol in (0.0, cert.max_minor / cert.scale**1.5):
            loose = mt.solve_module_trace(ring, char, rep, tol)
            assert not loose.matched and "max_minor" not in vars(loose), label
            expected = ("rank exceeds 1",)
            if np.abs(cert.Q).min() <= tol * cert.scale:
                expected += ("zero entry in Q",)
            if cert.Q.diagonal().real.max() <= tol * cert.scale:
                expected += ("zero diagonal",)
            assert loose.diagnostics == expected, label
        checked += 1
    assert checked > 20


def test_rank_branch_on_an_indecomposable_module_with_no_zero_in_q():
    # Rep(Z3) as a module over Rep(S3), by restriction: M = (I, I, J - I).  Under (1, 1, -1)
    # Q = 3I - J has no zero entry and rank 2, so the rank test alone rejects it
    ring = mt.builtin("rep_s3")[0]
    eye = np.eye(3, dtype=np.int64)
    rep = mt.NimRep(ring, 3, [eye, eye, 1 - eye])
    assert mt.validate_nimrep(rep).valid and mt.is_indecomposable(rep)
    cert = mt.solve_module_trace(ring, mt.DimChar(ring, [1.0, 1.0, -1.0]), rep)
    assert not cert.matched
    assert cert.diagnostics == ("rank exceeds 1",)
    assert cert.diagonal.tolist() == [2, 2, 2]
    assert np.array_equal(cert.Q, 3 * eye - 1)


def _z4_deferred():
    table = mt.cyclic_table(4)
    order_four = mt.group_characters(table)[1]
    assert order_four.d[1] == 1j
    return mt.solve_module_trace(
        mt.group_ring(table), order_four, mt.vect_g_module(table, (0, 2))
    )


def test_deferred_certificate_fills_its_rank_test_on_first_read():
    cert = _z4_deferred()
    assert not cert.matched and cert.trace is None
    assert "max_minor" not in vars(cert) and "diagnostics" not in vars(cert)
    diagnostics = cert.diagnostics
    assert diagnostics == ("zero entry in Q", "zero diagonal")
    # the rank is read from the trace, so the minors wait for their own read
    assert "max_minor" not in vars(cert) and vars(cert)["diagnostics"] is diagnostics
    max_minor = cert.max_minor
    assert vars(cert)["max_minor"] == 0.0
    assert cert.max_minor is max_minor and cert.diagnostics is diagnostics
    with pytest.raises(AttributeError, match="no_such_field"):
        cert.no_such_field


def test_deferred_certificate_is_a_frozen_dataclass():
    cert = _z4_deferred()
    assert repr(cert).startswith("TraceCertificate(matched=False, char=DimChar(")
    assert repr(cert).endswith(f"trace=None, tol={cert.tol!r})")

    cert = _z4_deferred()
    copy = dataclasses.replace(cert, tol=0.5)
    assert copy.tol == 0.5 and (copy.max_minor, copy.diagnostics) == (cert.max_minor, cert.diagnostics)

    cert = _z4_deferred()
    for name in ("max_minor", "diagnostics", "matched"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cert, name, None)
    assert "max_minor" not in vars(cert)
    assert cert.to_dict()["diagnostics"] == ["zero entry in Q", "zero diagonal"]


_FIELDS = ("matched", "char", "rep", "trace", "tol")


def _one_path_certificates():
    """A zero-entry verdict, a rank-2 verdict with no zero entry and a match, each built fresh."""
    ring, golden, _, reg = fib_setup()
    eye = np.eye(2, dtype=int)
    return [
        ("zero entry", _z4_deferred),
        ("rank two", lambda: _off_diagonal_instance(eye, [[0, 1], [1, 0]], 2.0)),
        ("matched", lambda: mt.solve_module_trace(ring, golden, reg)),
    ]


def _derived_bits(cert) -> tuple:
    """``max_minor``, ``diagnostics`` and ``residuals``, every float as its bytes."""
    residuals = [(name, struct.pack("<d", x)) for name, x in cert.residuals.items()]
    return struct.pack("<d", cert.max_minor), cert.diagnostics, residuals


def test_certificate_has_five_fields_and_derives_the_rest():
    assert tuple(f.name for f in dataclasses.fields(mt.TraceCertificate)) == _FIELDS
    full = {"diagonal", "scale"}
    stored = {"zero entry": set(), "rank two": full, "matched": full | {"diagnostics"}}
    for label, build in _one_path_certificates():
        cert = build()
        # a zero Q[0][0] returns at once; the full path stores the diagonal and its scale,
        # and diagnostics on a match
        assert set(vars(cert)) == set(_FIELDS) | stored[label], label
        assert cert.matched is (label == "matched")
        repr(cert)
        assert set(vars(cert)) == set(_FIELDS) | stored[label], label  # repr computes nothing


def test_records_set_the_flags_their_fields_decide():
    # matched is trace is not None, positivity_ok is dim_a > 0 and flexible is all matched:
    # neither a constructor nor dataclasses.replace takes them
    ring, golden, _, reg = fib_setup()
    cert = mt.solve_module_trace(ring, golden, reg)
    report = mt.frobenius_report(ring, golden, reg, 1, cert)
    matched = mt.matched_report(golden, [reg])
    unmatched = dataclasses.replace(cert, trace=None)
    assert cert.matched and report.positivity_ok and matched.flexible
    assert not unmatched.matched and repr(unmatched).startswith("TraceCertificate(matched=False, ")
    assert not dataclasses.replace(report, dim_a=0.0).positivity_ok
    assert not dataclasses.replace(matched, certificates=(cert, unmatched)).flexible
    assert mt.MatchedReport((cert,)).flexible
    for record, flag in ((cert, "matched"), (report, "positivity_ok"), (matched, "flexible")):
        with pytest.raises(ValueError, match=flag):
            dataclasses.replace(record, **{flag: True})
    for build in (
        lambda: mt.TraceCertificate(True, golden, reg, cert.trace, cert.tol),
        lambda: mt.TraceCertificate(golden, reg, cert.trace, cert.tol, matched=True),
        lambda: mt.FrobeniusReport(1, report.multiplicities, 1.0, True, True),
        lambda: mt.FrobeniusReport(1, report.multiplicities, 1.0, True, positivity_ok=True),
        lambda: mt.MatchedReport((cert,), True),
        lambda: mt.MatchedReport((cert,), flexible=True),
    ):
        with pytest.raises(TypeError):
            build()


def test_frobenius_records_at_exact_tolerance_equal_those_at_the_default():
    # dim(A) is a rounded Q[m][m]: at tol = 0 a dust entry still reads 0, and so does positivity
    records = 0
    for label, ring, char, rep, _ in _oracle_inputs():
        if not mt.is_indecomposable(rep):
            continue
        exact, default = (mt.solve_module_trace(ring, char, rep, tol) for tol in (0.0, mt.DEFAULT_TOL))
        for m in range(rep.module_rank):
            got = mt.frobenius_report(ring, char, rep, m, exact).to_dict()
            assert got == mt.frobenius_report(ring, char, rep, m, default).to_dict(), (label, m)
            records += 1
    assert records > 10000


def test_certificate_copies_read_the_same_derived_values():
    for label, build in _one_path_certificates():
        for read_first in (False, True):
            cert = build()
            if read_first:
                _derived_bits(cert)
            copies = {
                "replace": dataclasses.replace(cert, tol=cert.tol),
                "copy": copy.copy(cert),
                "pickle": pickle.loads(pickle.dumps(cert)),
            }
            expected = _derived_bits(cert)
            for how, twin in copies.items():
                assert _derived_bits(twin) == expected, (label, read_first, how)


def _eager_derived(cert) -> dict:
    """The derived values and output of a certificate from its full ``Q``: ``scale`` is the
    largest ``|Q[i][i]|``, the pivot of the minors the largest entry of ``|Q|``, and the rank
    the integer ``round(tr(Q) / dim(C))``."""
    q, tol = cert.Q, cert.tol
    mag = np.abs(q)
    top = int(mag.argmax())
    scale, min_entry = np.abs(q.diagonal()).max(), mag.item(mag.argmin())
    r, s = divmod(top, q.shape[1])
    max_minor = np.abs(q[r, s] * q - q[:, s, None] * q[r]).max()
    trace = q.diagonal().real.sum()
    diagnostics = ("rank exceeds 1",) if round(trace / cert.dim_c) >= 2 else ()
    if negligible(min_entry, scale, tol):
        diagnostics += ("zero entry in Q",)
    if round(trace / cert.dim_c) == 0 or negligible(q.real.diagonal().max(), scale, tol):
        diagnostics += ("zero diagonal",)
    residuals = _eager_residuals(cert)
    out = {
        "matched": cert.matched,
        "dimC": cert.dim_c,
        "C": [cert.c.real, cert.c.imag],
        "spherical_by_C": negligible(abs(cert.c - cert.dim_c), cert.dim_c, tol),
    }
    if cert.trace is not None:
        out["d"] = [[z.real, z.imag] for z in cert.trace.d.tolist()]
        out["anchor"] = cert.trace.anchor
    out["residuals"] = residuals
    out["diagnostics"] = list(diagnostics)
    return {
        "scale": struct.pack("<d", scale),
        "min_entry": struct.pack("<d", min_entry),
        "max_minor": struct.pack("<d", max_minor),
        "diagnostics": diagnostics,
        "residuals": json.dumps(residuals),
        "to_dict": json.dumps(out),
    }


def test_early_return_keeps_every_derived_value_bit_for_bit():
    # a negligible Q[0][0] returns before the diagonal is kept; the full path stores what it
    # computed.  Either way every derived value and the output equal their definitions on the
    # full Q, and a copy, which derives its diagnostics, agrees with the verdict; at tol = 0 too
    inputs = list(_oracle_inputs())
    for tol, least_early in ((mt.DEFAULT_TOL, 3000), (0.0, 2000)):
        early = full_zero = 0
        for label, ring, char, rep, _ in inputs:
            cert = mt.solve_module_trace(ring, char, rep, tol)
            returned_early = "diagonal" not in vars(cert)
            if returned_early:
                assert set(vars(cert)) == set(_FIELDS), label
                early += 1
            elif not cert.matched:
                full_zero += 1
            assert returned_early == negligible(abs(cert.Q[0, 0]), 0.0, tol), label
            assert dataclasses.replace(cert).diagnostics == cert.diagnostics, label
            got = {
                "to_dict": json.dumps(cert.to_dict()),
                "scale": struct.pack("<d", cert.scale),
                "min_entry": struct.pack("<d", cert.min_entry),
                "max_minor": struct.pack("<d", cert.max_minor),
                "diagnostics": cert.diagnostics,
                "residuals": json.dumps(cert.residuals),
            }
            assert got == _eager_derived(cert), label
            assert cert.matched == (cert.diagnostics == ()), label
        # both unmatched routes are taken: a zero Q[0][0], and the rest of the diagonal
        assert early > least_early and full_zero > 300, tol


def test_verdict_path_forms_no_k_by_k_array(monkeypatch):
    # the solve, frobenius_report and morita_rescale_check read the diagonal and columns of Q
    # only; the output forms Q once, on its first read
    fib, golden, _, reg = fib_setup()
    z4, z6 = mt.cyclic_table(4), mt.cyclic_table(6)
    inputs = {
        "zero entry": (mt.group_ring(z4), mt.group_characters(z4)[1], mt.vect_g_module(z4, (0, 2))),
        "rank two": _off_diagonal_inputs(np.eye(2, dtype=int), [[0, 1], [1, 0]], 2.0),
        "matched": (fib, golden, reg),
        "zero entry on the full path": (fib, golden, mt.direct_sum(reg, reg)),
        "coset": (mt.group_ring(z6), mt.group_characters(z6)[2], mt.vect_g_module(z6, (0, 3))),
    }
    verdicts = set()
    for label, (ring, char, rep) in inputs.items():
        formed, shapes = [], []
        with monkeypatch.context() as patch:
            patch.setattr(solver, "dimension_matrix", lambda *args, _dm=solver.dimension_matrix: formed.append(1) or _dm(*args))
            patch.setattr(np, "abs", lambda x, *args, _abs=np.abs: shapes.append(np.shape(x)) or _abs(x, *args))
            cert = mt.solve_module_trace(ring, char, rep)
            if mt.is_indecomposable(rep):
                for m in range(rep.module_rank):
                    mt.frobenius_report(ring, char, rep, m, cert)
                    if cert.matched:
                        mt.morita_rescale_check(ring, char, rep, m, cert)
            assert not formed and all(len(shape) < 2 for shape in shapes), label
            first = json.dumps(cert.to_dict())
        assert len(formed) == 1, label
        assert first == _eager_derived(cert)["to_dict"], label
        verdicts.add(cert.matched)
    assert verdicts == {True, False}


def test_verdict_path_memory_is_linear_in_the_module():
    # the first solve of the zn:64 regular module, with frobenius_report and morita_rescale_check,
    # holds operands of (n, k) complex entries: 16 n k bytes each, not 16 n k^2 for a copy of M
    ring, chars = mt.builtin("zn:64")
    rep, char = mt.regular_module(ring), chars[5]
    fib, golden, _, reg = fib_setup()
    warm = mt.solve_module_trace(fib, golden, reg)  # loads the layers before the count
    mt.morita_rescale_check(fib, golden, reg, 0, warm)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        cert = mt.solve_module_trace(ring, char, rep)
        mt.frobenius_report(ring, char, rep, 3, cert)
        mt.morita_rescale_check(ring, char, rep, 3, cert)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert cert.matched and peak <= 4 * 16 * 64 * 64, peak


@pytest.mark.parametrize("g", [32, 64])
def test_output_memory_is_linear_in_the_module(g):
    # to_dict forms Q from its diagonal and column products, over (n, k) operands: O(nk + k^2)
    # bytes, where a complex copy of M would take 16 n k^2
    ring, chars = mt.builtin(f"zn:{g}")
    cert = mt.solve_module_trace(ring, chars[5], mt.regular_module(ring))
    fib, golden, _, reg = fib_setup()
    mt.solve_module_trace(fib, golden, reg).to_dict()  # loads the layers before the count
    n = k = g
    assert allocation_peak(cert.to_dict) <= 8 * 16 * (n * k + k * k)


def test_nan_at_the_first_entry_takes_the_full_path():
    # NaN is never negligible, so the early return leaves it to the full test
    ring, _, _, reg = fib_setup()
    cert = mt.solve_module_trace(ring, mt.DimChar(ring, [math.nan, 1.0]), reg)
    assert math.isnan(cert.Q[0, 0].real) and "scale" in vars(cert)
    assert not cert.matched and cert.trace is None


def test_pickled_records_stay_read_only():
    ring, golden, _, reg = fib_setup()
    cert = mt.solve_module_trace(ring, golden, reg)
    cert.Q  # a derived array travels with its record
    table = mt.cyclic_table(4)
    records = [
        cert, cert.trace, reg, golden, ring, table, mt.group_ring(table),
        mt.frobenius_report(ring, golden, reg, 1, cert),
    ]
    for record in records:
        for how, twin in (("pickle", pickle.loads(pickle.dumps(record))), ("deepcopy", copy.deepcopy(record))):
            arrays = {name: a for name, a in vars(twin).items() if isinstance(a, np.ndarray)}
            assert arrays, (record, how)
            for name, a in arrays.items():
                assert not a.flags.writeable, (type(record).__name__, how, name)
                assert np.array_equal(a, vars(record)[name]), (type(record).__name__, how, name)
    twin = pickle.loads(pickle.dumps(cert))
    with pytest.raises(ValueError):
        twin.Q[0, 0] = 5
    assert twin.matched and twin.diagnostics == ()
    # a copy of a hand-built record gets a read-only view and leaves the given array as it was
    writable = np.ones(2, dtype=int)
    shallow = copy.copy(mt.FrobeniusReport(0, writable, 1.0, True))
    assert not shallow.multiplicities.flags.writeable and writable.flags.writeable


def test_verdict_path_computes_no_check_residual():
    # only TraceCertificate.residuals computes the check residuals, and it keeps them in
    # __dict__; a zero-entry verdict keeps its rank test there too, on its first read
    fib, golden, _, fib_reg = fib_setup()
    table, z2, _, sign = z2_setup()
    pairs = [(fib, golden, fib_reg, True), (z2, sign, mt.vect_g_module(table, (0, 1)), False)]
    for ring, char, rep, matched in pairs:
        cert = mt.solve_module_trace(ring, char, rep)
        assert cert.matched is matched
        assert (cert.trace is not None) is matched and cert.dim_c > 0 and isinstance(cert.c, complex)
        assert mt.frobenius_report(ring, char, rep, 0, cert).positivity_ok is matched
        if matched:
            assert mt.morita_rescale_check(ring, char, rep, 0, cert).ok
        else:
            with pytest.raises(mt.PreconditionError):
                mt.morita_rescale_check(ring, char, rep, 0, cert)
        assert not {"residuals", "Q", "min_entry", "max_minor"} & set(vars(cert))
        assert ("diagnostics" in vars(cert)) == matched
        assert cert.diagnostics == (() if matched else ("zero entry in Q", "zero diagonal"))
        assert cert.residuals is vars(cert)["residuals"]


def test_rank_from_trace_agrees_with_verdict_on_universe():
    # Q^2 = dim(C) Q makes Q / dim(C) a projection, so its trace is the rank of Q
    ranks = set()
    for label, ring, char, rep in instance_universe(max_zn=12):
        cert = mt.solve_module_trace(ring, char, rep)
        t = complex(np.trace(cert.Q)) / cert.dim_c
        rank = round(t.real)
        assert abs(t - rank) <= 1e-9, label
        # singular values are 0 or dim(C); the default threshold, relative to the
        # largest one, would count a Q of pure rounding dust as rank 1
        assert rank == np.linalg.matrix_rank(cert.Q, tol=1e-9 * cert.dim_c), label
        if cert.matched:
            assert rank == 1, label
        assert ("rank exceeds 1" in cert.diagnostics) == (rank >= 2), label
        ranks.add(rank)
    assert {0, 1, 2} <= ranks


def _edge_inputs():
    """``(label, ring, char, rep)`` at the edges of the tolerance rule: NaN and +-inf at a
    character entry other than the first, a dust ``Q[0][0]`` beside a NaN, and the instances of
    ``instance_universe(max_zn=4)``, whose exact zeros meet ``tol = 0``."""
    fib = mt.builtin("fibonacci")[0]
    z4 = mt.cyclic_table(4)
    z4_ring = mt.group_ring(z4)
    modules = [("fib/regular", fib, mt.regular_module(fib))]
    modules += [(f"z4/H{h}", z4_ring, mt.vect_g_module(z4, H)) for h, H in enumerate(mt.subgroups(z4))]
    entries = [math.nan, math.inf, -math.inf, complex(0.5, math.nan), 1.0, -1.0, 1e-12]
    for label, ring, rep in modules:
        for x in entries:
            for first in (1.0, 1e-12):
                d = [first, x] + [1.0] * (ring.rank - 2)
                yield f"{label}/{first!r},{x!r}", ring, mt.DimChar(ring, d), rep
    # a product with a zero multiplicity is NaN beside any NaN or inf entry, so only a sum of
    # +inf and -inf puts a NaN on the diagonal beside a dust Q[0][0]: no valid NIM-rep does
    ising = mt.builtin("ising")[0]
    M = np.zeros((3, 2, 2), dtype=np.int64)
    M[0, 0, 0] = 1
    M[1] = M[2] = [[0, 1], [1, 2]]
    yield "ising/+inf-inf", ising, mt.DimChar(ising, [1e-12, 1e308, -1e308]), mt.NimRep(ising, 2, M)
    yield from instance_universe(max_zn=4)


def test_inlined_tolerance_rule_equals_negligible_at_its_edges():
    # the solve and both reports decide x <= tol * max(1, scale) written out; each decision
    # equals common.negligible's, read from the certificate's diagonal and columns.  A NaN scale
    # reaches a decision only in the reports (the solve's rank is then never 1), where
    # max(1.0, NaN) is 1.0 and max(NaN, 1.0) NaN: a dust Q[m][m] beside a NaN tells them apart
    inputs = list(_edge_inputs())
    decided = {"early": 0, "matched": 0, "dim_a dust": 0, "NaN scale": 0, "morita": 0}
    with np.errstate(invalid="ignore", over="ignore"):  # inf * 0 and inf - inf are NaN, as meant
        _compare_with_negligible(inputs, decided)
    assert all(decided.values()), decided


def _compare_with_negligible(inputs, decided):
    for tol in (0.0, mt.DEFAULT_TOL, 1.5, 10.0):
        floor = max(tol, mt.DEFAULT_TOL)
        for label, ring, char, rep in inputs:
            cert = mt.solve_module_trace(ring, char, rep, tol)
            early = "diagonal" not in vars(cert)
            diagonal, scale = cert.diagonal, cert.scale
            assert early == negligible(abs(diagonal[0]), 0.0, tol), (label, tol)
            real = diagonal.real
            matched = not early and not negligible(np.abs(diagonal).min(), scale, tol)
            matched = matched and solver._rank(real.sum(), cert.dim_c) == 1
            if matched:
                p = int(real.argmax())
                matched = not negligible(np.abs(cert.column(p)).min(), scale, tol)
            assert cert.matched == matched == (cert.diagnostics == ()), (label, tol)
            assert dataclasses.replace(cert).diagnostics == cert.diagnostics, (label, tol)
            decided["early"] += early
            decided["matched"] += matched
            if not mt.is_indecomposable(rep):
                continue
            for m in range(rep.module_rank):
                q_mm = diagonal[m]
                dim_a = 0.0 if negligible(abs(q_mm), scale, floor) else q_mm.real
                got = mt.frobenius_report(ring, char, rep, m, cert).dim_a
                assert struct.pack("<d", got) == struct.pack("<d", dim_a), (label, tol, m)
                decided["dim_a dust"] += dim_a == 0.0 and q_mm != 0
                decided["NaN scale"] += math.isnan(scale) and dim_a == 0.0 and q_mm != 0
                if cert.matched:
                    morita = mt.morita_rescale_check(ring, char, rep, m, cert)
                    assert morita.ok == negligible(morita.max_residual, scale, floor), (label, tol, m)
                    decided["morita"] += 1


def _products_per_call(call) -> tuple:
    """``call()`` and the number of ``ndarray.dot`` products it made, counted from the
    ``c_call`` events of ``sys.setprofile``: every product of the solve and both reports."""
    products = []

    def profile(frame, event, arg):
        if event == "c_call" and getattr(arg, "__qualname__", None) == "ndarray.dot":
            products.append(1)

    sys.setprofile(profile)
    try:
        result = call()
    finally:
        sys.setprofile(None)
    return result, len(products)


def test_one_decision_makes_one_or_two_products():
    # the pipeline of one catalog_sweep op: a zero Q[0][0] returns after the diagonal product, a
    # match adds the anchor column; frobenius_report reads the kept diagonal and
    # morita_rescale_check forms column m
    counts = {"early": set(), "full": set(), "matched": set(), "frobenius": set(), "morita": set()}
    for label, ring, char, rep, _ in _oracle_inputs():
        mt.solve_module_trace(ring, char, rep)  # keeps the module's diagonal copy, as a sweep does
        cert, products = _products_per_call(lambda: mt.solve_module_trace(ring, char, rep))
        route = "matched" if cert.matched else "full" if "diagonal" in vars(cert) else "early"
        counts[route].add(products)
        if not cert.matched or not mt.is_indecomposable(rep):
            continue
        for m in range(rep.module_rank):
            counts["frobenius"].add(_products_per_call(lambda: mt.frobenius_report(ring, char, rep, m, cert))[1])
            counts["morita"].add(_products_per_call(lambda: mt.morita_rescale_check(ring, char, rep, m, cert))[1])
    assert counts["early"] == {1} and counts["matched"] == {2} and counts["frobenius"] == {0}
    assert counts["full"] <= {1, 2} and counts["morita"] <= {0, 1} and all(counts.values()), counts
