import dataclasses

import numpy as np
import pytest

import modtrace as mt
from helpers import PHI, instance_universe

OMEGA = np.exp(2j * np.pi / 3)


def test_inner_hom_multiplicities_fibonacci():
    ring = mt.builtin("fibonacci")[0]
    reg = mt.regular_module(ring)
    assert np.array_equal(mt.inner_hom_multiplicities(reg, 1, 1), [1, 1])
    assert np.array_equal(mt.inner_hom_multiplicities(reg, 0, 0), [1, 0])
    with pytest.raises(mt.StructuralError):
        mt.inner_hom_multiplicities(reg, 2, 0)


def test_inner_hom_multiplicities_group_algebra():
    table = mt.cyclic_table(2)
    rep = mt.vect_g_module(table, (0, 1))
    assert np.array_equal(mt.inner_hom_multiplicities(rep, 0, 0), [1, 1])


def test_inner_hom_multiplicities_is_a_read_only_view():
    rep = mt.regular_module(mt.builtin("fibonacci")[0])
    mults = mt.inner_hom_multiplicities(rep, 1, 0)
    assert np.array_equal(mults, rep.M[:, 1, 0])
    assert np.shares_memory(mults, rep.M)
    with pytest.raises(ValueError):
        mults[0] = 5


def test_inner_hom_pairs_with_characters():
    ring = mt.builtin("ising")[0]
    char = mt.DimChar(ring, [1, 1, np.sqrt(2)])
    rep = mt.regular_module(ring)
    q = mt.dimension_matrix(char, rep)
    for i in range(3):
        for j in range(3):
            mults = mt.inner_hom_multiplicities(rep, i, j)
            assert abs(complex(mults @ char.d) - q[i, j]) < 1e-12


def test_frobenius_report_fibonacci():
    ring = mt.builtin("fibonacci")[0]
    char = mt.DimChar(ring, [1.0, PHI])
    rep = mt.regular_module(ring)
    cert = mt.solve_module_trace(ring, char, rep)
    report = mt.frobenius_report(ring, char, rep, 1, cert)
    assert abs(report.dim_a - PHI**2) < 1e-10
    assert report.haploid
    assert report.positivity_ok
    assert report.to_dict()["beta1"] == report.dim_a
    assert report.to_dict()["betaA"] == 1.0
    assert np.array_equal(report.multiplicities, [1, 1])


def test_frobenius_report_group_algebra():
    table = mt.cyclic_table(2)
    ring = mt.group_ring(table)
    triv, sign = mt.group_characters(table)
    rep = mt.vect_g_module(table, (0, 1))

    cert = mt.solve_module_trace(ring, triv, rep)
    report = mt.frobenius_report(ring, triv, rep, 0, cert)
    assert abs(report.dim_a - 2.0) < 1e-12
    assert report.positivity_ok and cert.matched

    cert2 = mt.solve_module_trace(ring, sign, rep)
    report2 = mt.frobenius_report(ring, sign, rep, 0, cert2)
    assert abs(report2.dim_a) < 1e-12
    assert not report2.positivity_ok and not cert2.matched


def test_frobenius_report_reads_the_unit_of_the_module_ring():
    # the same fibonacci ring with its simples listed in the other order has unit index 1;
    # haploidity is read at the unit of rep.ring, whatever ring is passed beside it
    ring, chars = mt.builtin("fibonacci")
    rep = mt.regular_module(ring)
    cert = mt.solve_module_trace(ring, chars[0], rep)
    swap = np.array([1, 0])
    relisted = mt.FusionRing(2, ring.labels[::-1], 1, swap[ring.dual[swap]], ring.N[np.ix_(swap, swap, swap)])
    assert mt.validate_fusion_ring(relisted).valid
    own = mt.frobenius_report(ring, chars[0], rep, 0, cert)
    other = mt.frobenius_report(relisted, chars[0], rep, 0, cert)
    assert own.haploid and other.haploid
    assert other.to_dict() == own.to_dict()


def test_frobenius_requires_indecomposable():
    ring = mt.builtin("fibonacci")[0]
    char = mt.DimChar(ring, [1.0, PHI])
    rep = mt.regular_module(ring)
    total = mt.direct_sum(rep, rep)
    cert = mt.solve_module_trace(ring, char, total)
    with pytest.raises(mt.UnsupportedError):
        mt.frobenius_report(ring, char, total, 0, cert)


def test_morita_rescale_fibonacci():
    ring = mt.builtin("fibonacci")[0]
    char = mt.DimChar(ring, [1.0, PHI])
    rep = mt.regular_module(ring)
    cert = mt.solve_module_trace(ring, char, rep)
    check = mt.morita_rescale_check(ring, char, rep, 1, cert)
    assert abs(check.scale - PHI) < 1e-10  # Q[tau][tau] / d[tau] = phi^2 / phi
    assert check.ok
    q = cert.Q
    assert abs(q[0, 1] - PHI * cert.trace.d[0]) < 1e-10


def test_morita_rescale_z3():
    table = mt.cyclic_table(3)
    ring = mt.group_ring(table)
    char = mt.group_characters(table)[1]  # kappa(g) = omega
    rep = mt.regular_module(ring)
    cert = mt.solve_module_trace(ring, char, rep)
    check = mt.morita_rescale_check(ring, char, rep, 1, cert)
    assert abs(check.scale - OMEGA**2) < 1e-10  # 1 / omega
    assert check.ok
    q = cert.Q
    for n in range(3):
        assert abs(q[n, 1] - OMEGA**2 * cert.trace.d[n]) < 1e-10


def test_morita_rescale_trivial_at_anchor():
    for name in ("ising", "rep_s3"):
        ring, chars = mt.builtin(name)
        rep = mt.regular_module(ring)
        cert = mt.solve_module_trace(ring, chars[0], rep)
        m = cert.trace.anchor
        check = mt.morita_rescale_check(ring, chars[0], rep, m, cert)
        q = cert.Q
        assert abs(check.scale * cert.trace.d[m] - q[m, m]) < 1e-10


def test_morita_rescale_requires_matched():
    table = mt.cyclic_table(2)
    ring = mt.group_ring(table)
    sign = mt.group_characters(table)[1]
    rep = mt.vect_g_module(table, (0, 1))
    cert = mt.solve_module_trace(ring, sign, rep)
    with pytest.raises(mt.PreconditionError):
        mt.morita_rescale_check(ring, sign, rep, 0, cert)


def test_reports_refuse_another_modules_certificate():
    # a matched certificate may not stand in for another module or character: on Z4 the
    # regular module and the coset module of {0, 2} for the trivial character (ranks 4 and
    # 2); on Z2xZ2 under (1, 1, -1, -1) the coset module of {0, 1} for that of {0, 2}, both of
    # rank 2, where the latter is unmatched with dim(A) 0; and on Z4 the trivial character's
    # certificate under each other character
    table, klein = mt.cyclic_table(4), mt.builtin_group("Z2xZ2")
    ring, klein_ring = mt.group_ring(table), mt.group_ring(klein)
    chars, sign = mt.group_characters(table), mt.group_characters(klein)[1]
    assert np.array_equal(sign.d, [1, 1, -1, -1])
    regular, coset = mt.vect_g_module(table, (0,)), mt.vect_g_module(table, (0, 2))
    cases = [
        (ring, chars[0], coset, regular, chars[0], 1),
        (ring, chars[0], regular, coset, chars[0], 3),
        (klein_ring, sign, mt.vect_g_module(klein, (0, 2)), mt.vect_g_module(klein, (0, 1)), sign, 1),
    ] + [(ring, char, rep, rep, chars[0], 1) for char in chars[1:] for rep in (regular, coset)]
    for ring, char, rep, other, other_char, m in cases:
        cert = mt.solve_module_trace(ring, other_char, other)
        assert cert.matched
        for report in (mt.frobenius_report, mt.morita_rescale_check):
            with pytest.raises(mt.StructuralError, match="certificate"):
                report(ring, char, rep, m, cert)


def test_reports_decide_at_the_certificate_tolerance():
    ring = mt.builtin("fibonacci")[0]
    char = mt.DimChar(ring, [1.0, PHI])
    rep = mt.regular_module(ring)
    cert = mt.solve_module_trace(ring, char, rep)
    assert cert.tol == mt.DEFAULT_TOL
    # a trace vector off by a relative 1e-6, and an unmatched Q with a diagonal entry of 1e-6:
    # Q[0][0] = d(0) on the regular module of fibonacci
    off = mt.ModuleTrace(cert.trace.d * (1 + 1e-6), cert.trace.anchor)
    dust = mt.DimChar(ring, [1e-6, PHI])
    for tol, negligible in ((mt.DEFAULT_TOL, False), (1e-3, True)):
        shifted = dataclasses.replace(cert, trace=off, tol=tol)
        assert mt.morita_rescale_check(ring, char, rep, 1, shifted).ok is negligible
        dusty = dataclasses.replace(cert, char=dust, trace=None, tol=tol)
        assert dusty.Q[0, 0] == 1e-6 and not dusty.matched
        report = mt.frobenius_report(ring, dust, rep, 0, dusty)
        assert report.dim_a == (0.0 if negligible else 1e-6)
        assert report.positivity_ok is not negligible


def test_morita_tolerance_is_floored_at_the_default():
    # d_M is a rounded column of Q: on the fibonacci regular module the identity leaves
    # 2.2e-16 at object 0, which passes at tol = 0; a trace vector off by 1e-6 fails at both
    ring, chars = mt.builtin("fibonacci")
    rep = mt.regular_module(ring)
    for tol in (0.0, mt.DEFAULT_TOL):
        cert = mt.solve_module_trace(ring, chars[0], rep, tol)
        check = mt.morita_rescale_check(ring, chars[0], rep, 0, cert)
        assert 0.0 < check.max_residual <= mt.DEFAULT_TOL and check.ok
        shifted = dataclasses.replace(cert, trace=mt.ModuleTrace(cert.trace.d + 1e-6, cert.trace.anchor))
        assert not mt.morita_rescale_check(ring, chars[0], rep, 0, shifted).ok


def test_dim_a_equals_squared_trace_entry():
    for label, ring, char, rep in instance_universe(max_zn=5, with_sums=False):
        cert = mt.solve_module_trace(ring, char, rep)
        if not cert.matched or not mt.is_indecomposable(rep):
            continue
        for m in range(rep.module_rank):
            report = mt.frobenius_report(ring, char, rep, m, cert)
            assert report.haploid, label
            expected = abs(cert.trace.d[m]) ** 2
            assert abs(report.dim_a - expected) < 1e-8, label
            assert report.positivity_ok, label


def test_unmatched_instances_expose_an_obstruction():
    # over group-graded generators an unmatched indecomposable instance has a
    # zero diagonal entry or a nonzero 2x2 minor
    found = 0
    for label, ring, char, rep in instance_universe(max_zn=6, with_sums=False):
        cert = mt.solve_module_trace(ring, char, rep)
        if cert.matched:
            continue
        q = cert.Q
        diag_ok = np.min(np.abs(np.diag(q))) <= 1e-9
        minor_ok = cert.residuals["max_minor"] > 1e-9
        assert diag_ok or minor_ok, label
        found += 1
    assert found > 0
