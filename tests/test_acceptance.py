"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines.
"""

import io
import json
import time

import numpy as np

import modtrace as mt
from modtrace import files
from modtrace.cli import run as cli_run
from helpers import (
    PHI,
    abelian_tables_up_to,
    fp_module_trace,
    instance_universe,
    q_property_report,
    trace_exists_bruteforce,
)

FLEX_RINGS = ("fibonacci", "ising", "rep_s3") + tuple(f"zn:{n}" for n in range(1, 9))


def test_criterion_1_vectg_exhaustive_oracle_agreement():
    start = time.monotonic()
    instances = 0
    disagreements = []
    for name, table in abelian_tables_up_to(12):
        ring = mt.group_ring(table)
        chars = mt.group_characters(table)
        for H in mt.subgroups(table):
            rep = mt.vect_g_module(table, H)
            for ci, char in enumerate(chars):
                cert = mt.solve_module_trace(ring, char, rep)
                oracle = mt.matched_vectg_oracle(table, H, char)
                if cert.matched != oracle:
                    disagreements.append((name, H, ci))
                instances += 1
    elapsed = time.monotonic() - start
    assert disagreements == []
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    print(
        f"criterion 1 PASS: solver agrees with the subgroup-restriction oracle on "
        f"{instances} instances over all abelian groups of order <= 12 in {elapsed:.2f}s"
    )


def test_criterion_2_q_structural_properties():
    count = 0
    for label, ring, char, rep in instance_universe(max_zn=10):
        q = mt.dimension_matrix(char, rep)
        dim_c = mt.global_dimension(char)
        m = q
        assert np.max(np.abs(m @ m - dim_c * m)) < 1e-8, label
        assert np.max(np.abs(m - m.conj().T)) < 1e-10, label
        report = q_property_report(q, dim_c)
        assert report.passed, label
        count += 1
    assert count >= 500
    print(f"criterion 2 PASS: Q^2 = dim(C) Q and hermiticity on {count} instances")


def test_criterion_3_eigenvector_contracts():
    matched = 0
    for label, ring, char, rep in instance_universe(max_zn=10):
        cert = mt.solve_module_trace(ring, char, rep)
        if not cert.matched:
            continue
        matched += 1
        d = cert.trace.d
        m = cert.Q
        assert np.max(np.abs(m @ d - cert.dim_c * d)) < 1e-8, label
        assert np.max(np.abs(m.T @ d - cert.c * d)) < 1e-8, label
        assert cert.residuals["left_eigen"] < 1e-8, label
        spherical = mt.is_spherical(char)
        if spherical:
            assert abs(cert.c - cert.dim_c) < 1e-7, label
        else:
            assert abs(cert.c) < 1e-7, label
        assert cert.spherical_by_c == spherical, label
    assert matched >= 80
    print(f"criterion 3 PASS: right/left eigenvector contracts on {matched} matched instances")


def test_criterion_4_pseudo_unitary_flexibility():
    checked = 0
    for name in FLEX_RINGS:
        ring, _ = mt.builtin(name)
        fp_char = mt.fp_character(ring)
        if name.startswith("zn:"):
            table = mt.cyclic_table(int(name.split(":")[1]))
            mods = [mt.vect_g_module(table, H) for H in mt.subgroups(table)]
        else:
            mods = [mt.regular_module(ring)]
        for rep in mods:
            assert mt.is_indecomposable(rep)
            cert = mt.solve_module_trace(ring, fp_char, rep)
            assert cert.matched, name
            canonical = fp_module_trace(rep)
            assert np.max(np.abs(cert.trace.d - canonical)) < 1e-8, name
            checked += 1
    print(
        f"criterion 4 PASS: canonical positive structure matched on {checked} "
        f"indecomposable modules, with both trace routes agreeing"
    )


def test_criterion_5_fibonacci_closed_form():
    ring, chars = mt.builtin("fibonacci")
    reg = mt.regular_module(ring)

    golden = mt.solve_module_trace(ring, chars[0], reg)
    assert abs(golden.dim_c - (PHI + 2.0)) < 1e-10
    assert np.max(np.abs(golden.trace.d - np.array([1.0, PHI]))) < 1e-10

    galois = mt.solve_module_trace(ring, chars[1], reg)
    assert abs(galois.dim_c - (3.0 - PHI)) < 1e-10
    assert np.max(np.abs(galois.trace.d - np.array([1.0, 1.0 - PHI]))) < 1e-10
    print("criterion 5 PASS: golden and conjugate-root trace data at 1e-10")


def test_criterion_6_conjugation_involution():
    checked = 0
    for name in FLEX_RINGS:
        ring, _ = mt.builtin(name)
        for char in mt.enumerate_characters(ring):
            double = mt.conjugate_char(mt.conjugate_char(char))
            assert np.max(np.abs(double.d - char.d)) < 1e-10, name
            fixed = bool(np.max(np.abs(mt.conjugate_char(char).d - char.d)) < 1e-9)
            assert fixed == mt.is_spherical(char), name
            checked += 1
    print(f"criterion 6 PASS: conjugation involution and spherical fixed points on {checked} characters")


def test_criterion_7_frobenius_positivity_and_rescale():
    checked = 0
    for label, ring, char, rep in instance_universe(max_zn=10, with_sums=False):
        if not mt.is_indecomposable(rep):
            continue
        cert = mt.solve_module_trace(ring, char, rep)
        if not cert.matched:
            continue
        q = cert.Q
        d = cert.trace.d
        for m in range(rep.module_rank):
            assert q[m, m].real > 1e-9, label
            assert np.max(np.abs(q[:, m] - np.conj(d[m]) * d)) < 1e-8, label
            check = mt.morita_rescale_check(ring, char, rep, m, cert)
            assert check.ok, label
        checked += 1
    assert checked >= 80
    print(f"criterion 7 PASS: inner-hom positivity and rescale identity on {checked} matched instances")


def test_criterion_8_existence_test_oracle_equivalence():
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
        if cert.matched != trace_exists_bruteforce(cert.Q, cert.dim_c):
            disagreements.append(label)
    assert disagreements == []
    print("criterion 8 PASS: minor test agrees with eigenspace search on 200 random instances")


def _invoke(argv):
    out = io.StringIO()
    code = cli_run(argv, out=out, err=io.StringIO())
    return code, out.getvalue()


def test_criterion_9_cli_determinism(tmp_path):
    fib = tmp_path / "fib"
    z4 = tmp_path / "z4"
    assert _invoke(["builtin", "fibonacci", "--emit", str(fib)])[0] == 0
    assert _invoke(["vectg", "--group", "Z:4", "--emit", str(z4)])[0] == 0

    commands = [
        ["validate", str(fib / "ring.json"), "--json"],
        ["fp-dims", str(fib / "ring.json"), "--json"],
        ["characters", str(fib / "ring.json"), "--json"],
        ["trace", str(fib / "ring.json"), "--char", "0",
         "--module", str(fib / "module-regular.json"), "--json"],
        ["flexible", str(z4 / "ring.json"), "--char", "1",
         "--modules", str(z4 / "module-H00.json"), str(z4 / "module-H01.json"),
         str(z4 / "module-H02.json"), "--json"],
        ["frobenius", str(fib / "ring.json"), "--char", "0",
         "--module", str(fib / "module-regular.json"), "--object", "1", "--json"],
        ["vectg", "--group", "Z:4", "--subgroups", "--characters", "--json"],
        ["builtin", "ising", "--json"],
    ]
    for argv in commands:
        code1, out1 = _invoke(argv)
        code2, out2 = _invoke(argv)
        assert code1 == code2 == 0, argv
        assert out1 == out2, argv
        json.loads(out1)  # every --json payload parses

    # emitted files reload to equal values
    ring = files.load_ring(fib / "ring.json")
    assert ring == mt.builtin("fibonacci")[0]
    for idx, char in enumerate(mt.builtin("fibonacci")[1]):
        loaded = files.load_char(fib / f"char-{idx:02d}.json", ring)
        assert np.max(np.abs(loaded.d - char.d)) < 1e-12
    assert files.load_module(fib / "module-regular.json", ring) == mt.regular_module(ring)
    table = files.load_group(z4 / "group.json")
    assert table == mt.cyclic_table(4)
    # re-emitting produces byte-identical files
    again = tmp_path / "fib2"
    assert _invoke(["builtin", "fibonacci", "--emit", str(again)])[0] == 0
    for name in ("ring.json", "char-00.json", "char-01.json", "module-regular.json"):
        assert (fib / name).read_bytes() == (again / name).read_bytes()
    print("criterion 9 PASS: byte-deterministic CLI output and emit/load round trips")
