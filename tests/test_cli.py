import hashlib
import io
import json
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import modtrace as mt
from modtrace import common, files
from modtrace.cli import run
from helpers import PHI, saved_text_reference


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture()
def fib_dir(tmp_path):
    d = tmp_path / "fib"
    code, _, _ = invoke("builtin", "fibonacci", "--emit", str(d))
    assert code == 0
    return d


@pytest.fixture()
def z2_dir(tmp_path):
    d = tmp_path / "z2"
    code, _, _ = invoke("vectg", "--group", "Z:2", "--emit", str(d))
    assert code == 0
    return d


def test_validate_ok(fib_dir):
    code, out, _ = invoke("validate", str(fib_dir / "ring.json"))
    assert code == 0
    assert "valid:     true" in out


def test_validate_invalid_ring_exits_2(tmp_path):
    ring = mt.builtin("rep_s3")[0]
    N = ring.N.copy()
    N[1, 2, 1] = 1  # breaks associativity
    broken = mt.FusionRing(3, ring.labels, 0, ring.dual.copy(), N)
    path = tmp_path / "broken.ring.json"
    files.save_ring(broken, path)
    code, out, _ = invoke("validate", str(path))
    assert code == 2
    assert "associativity" in out


def test_validate_malformed_json_exits_2(tmp_path):
    path = tmp_path / "broken.ring"
    path.write_text("{oops")
    code, _, err = invoke("validate", str(path))
    assert code == 2
    assert "error" in err


def test_missing_file_exits_2(tmp_path):
    code, _, err = invoke("validate", str(tmp_path / "nope.json"))
    assert code == 2


def test_fp_dims(fib_dir):
    code, out, _ = invoke("fp-dims", str(fib_dir / "ring.json"))
    assert code == 0
    assert "tau: 1.61803398875" in out


def test_characters_json(fib_dir):
    code, out, _ = invoke("characters", str(fib_dir / "ring.json"), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["characters"][0][1][0] == pytest.approx(PHI, abs=1e-10)


def test_trace_fibonacci_json(fib_dir):
    code, out, _ = invoke(
        "trace",
        str(fib_dir / "ring.json"),
        "--char", "0",
        "--module", str(fib_dir / "module-regular.json"),
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["matched"] is True
    assert payload["d"][0] == [1.0, 0.0]
    assert payload["d"][1][0] == pytest.approx(PHI, abs=1e-10)
    assert payload["dimC"] == pytest.approx(PHI + 2, abs=1e-10)
    assert payload["diagnostics"] == []


def test_trace_char_file_argument(fib_dir):
    code, out, _ = invoke(
        "trace",
        str(fib_dir / "ring.json"),
        "--char", str(fib_dir / "char-01.json"),
        "--module", str(fib_dir / "module-regular.json"),
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["matched"] is True
    assert payload["dimC"] == pytest.approx(3 - PHI, abs=1e-10)


def test_trace_assert_matched_failure(z2_dir):
    # subgroup module H01 is the full group; the sign character is unmatched
    code, out, _ = invoke(
        "trace",
        str(z2_dir / "ring.json"),
        "--char", "1",
        "--module", str(z2_dir / "module-H01.json"),
        "--assert-matched",
        "--json",
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["matched"] is False
    assert "zero entry in Q" in payload["diagnostics"]


def test_flexible_verbs(z2_dir):
    mods = [str(z2_dir / "module-H00.json"), str(z2_dir / "module-H01.json")]
    code, out, _ = invoke(
        "flexible", str(z2_dir / "ring.json"), "--char", "0", "--modules", *mods, "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["flexible"] is True
    code, out, _ = invoke(
        "flexible", str(z2_dir / "ring.json"), "--char", "1", "--modules", *mods,
        "--json", "--assert-matched",
    )
    assert code == 1
    assert json.loads(out)["flexible"] is False


def test_frobenius_verb(fib_dir):
    code, out, _ = invoke(
        "frobenius",
        str(fib_dir / "ring.json"),
        "--char", "0",
        "--module", str(fib_dir / "module-regular.json"),
        "--object", "1",
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    frob = payload["frobenius"]
    assert frob["dimA"] == pytest.approx(PHI**2, abs=1e-9)
    assert frob["haploid"] is True
    assert frob["morita"]["ok"] is True


def test_flexible_text(z2_dir):
    mods = [str(z2_dir / "module-H00.json"), str(z2_dir / "module-H01.json")]
    code, out, _ = invoke("flexible", str(z2_dir / "ring.json"), "--char", "1", "--modules", *mods)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("flexible: false  (")
    assert f"  {mods[0]}: matched" in lines
    assert f"  {mods[1]}: unmatched" in lines


def test_frobenius_text_morita_lines(fib_dir):
    code, out, _ = invoke(
        "frobenius",
        str(fib_dir / "ring.json"),
        "--char", "0",
        "--module", str(fib_dir / "module-regular.json"),
        "--object", "1",
    )
    assert code == 0
    lines = out.splitlines()
    assert "morita scale: 1.61803398875" in lines
    assert any(line.startswith("morita residual: ") and line.endswith(" ok: true") for line in lines)


def test_frobenius_assert_matched_failure(z2_dir):
    code, _, _ = invoke(
        "frobenius",
        str(z2_dir / "ring.json"),
        "--char", "1",
        "--module", str(z2_dir / "module-H01.json"),
        "--object", "0",
        "--assert-matched",
    )
    assert code == 1


def test_frobenius_unmatched_diagonal_zero_prints_zero(tmp_path):
    d = tmp_path / "z12"
    assert invoke("vectg", "--group", "Z:12", "--emit", str(d))[0] == 0
    argv = ["frobenius", str(d / "ring.json"), "--char", "1", "--module", str(d / "module-H02.json"), "--object", "0"]
    code, out, _ = invoke(*argv)
    assert code == 0
    assert "matched:   false" in out
    assert "dimA:      0\n" in out and "beta1:     0\n" in out
    code, out, _ = invoke(*argv, "--json")
    frob = json.loads(out)["frobenius"]
    assert frob["dimA"] == 0.0 and frob["beta1"] == 0.0
    assert frob["positivity_ok"] is False


def test_vectg_s3_characters_unsupported():
    code, _, err = invoke("vectg", "--group", "S3", "--characters")
    assert code == 2
    assert "abelian" in err


def test_vectg_subgroups_listing():
    code, out, _ = invoke("vectg", "--group", "Z:4", "--subgroups", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["subgroups"] == [[0], [0, 2], [0, 1, 2, 3]]


def test_vectg_subgroups_text_listing():
    code, out, _ = invoke("vectg", "--group", "Z:4", "--subgroups")
    assert code == 0
    lines = out.splitlines()
    for line in ("  H00 (order 1): {e}", "  H01 (order 2): {e, g2}", "  H02 (order 4): {e, g, g2, g3}"):
        assert line in lines


def test_vectg_characters_beyond_the_subgroup_bound(tmp_path):
    code, out, err = invoke("vectg", "--group", "Z:128", "--characters", "--json")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert "subgroup_count" not in payload and payload["order"] == 128
    assert len(payload["characters"]) == 128
    code, out, _ = invoke("vectg", "--group", "Z:65")
    assert code == 0 and out == "order:     65\nabelian:   true\n"
    for flag in ("--subgroups", "--emit"):
        argv = ["vectg", "--group", "Z:65", flag] + ([str(tmp_path / "d")] if flag == "--emit" else [])
        code, out, err = invoke(*argv)
        assert (code, out) == (2, "") and "limited to order <= 64" in err
    assert not (tmp_path / "d").exists()
    code, out, _ = invoke("vectg", "--group", "Z:64", "--json")  # at the bound, counted
    assert code == 0 and json.loads(out)["subgroup_count"] == 7


def test_vectg_computes_characters_only_when_asked(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("group_characters called without --characters or --emit")

    monkeypatch.setattr(mt, "group_characters", boom)
    code, out, _ = invoke("vectg", "--group", "Z:4", "--subgroups", "--json")
    assert code == 0
    assert json.loads(out)["subgroup_count"] == 3


@pytest.mark.parametrize("what", ["ring", "module"])
def test_input_beyond_float_exact_bound_exits_2(what, fib_dir):
    ring_path, module_path = fib_dir / "ring.json", fib_dir / "module-regular.json"
    ring = files.load_ring(ring_path)
    if what == "ring":
        N = ring.N.copy()
        N[1, 1, 1] = 2**40
        files.save_ring(mt.FusionRing(2, ring.labels, 0, ring.dual, N), ring_path)
        argv = ["validate", str(ring_path)]
    else:
        M = files.load_module(module_path, ring).M.copy()
        M[1, 1, 1] = 2**40
        files.save_module(mt.NimRep(ring, 2, M), module_path)
        argv = ["trace", str(ring_path), "--char", "0", "--module", str(module_path)]
    code, out, err = invoke(*argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "2^53" in err and err.count("\n") == 1, err
    assert "Traceback" not in err


def test_unknown_flag_exits_2(fib_dir):
    code, _, _ = invoke("validate", str(fib_dir / "ring.json"), "--bogus")
    assert code == 2


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "1"])
@pytest.mark.parametrize("verb", ["characters", "trace"])
def test_tol_outside_unit_interval_exits_2(verb, tol, fib_dir):
    argv = [verb, str(fib_dir / "ring.json"), "--tol", tol]
    if verb == "trace":
        argv += ["--char", str(fib_dir / "char-01.json"), "--module", str(fib_dir / "module-regular.json")]
    code, out, err = invoke(*argv)
    assert code == 2 and out == ""
    assert "error: argument --tol" in err and "Traceback" not in err


def test_flags_only_on_verbs_that_read_them(fib_dir):
    ring = str(fib_dir / "ring.json")
    for argv in (["validate", ring, "--tol", "1e-6"], ["characters", ring, "--assert-matched"]):
        code, out, err = invoke(*argv)
        assert code == 2 and out == ""
        assert "unrecognized arguments" in err
    code, out, _ = invoke(
        "trace", ring, "--char", "0", "--module", str(fib_dir / "module-regular.json"),
        "--tol", "1e-6", "--assert-matched", "--json",
    )
    assert code == 0
    assert json.loads(out)["matched"] is True


def test_exact_tolerance_matches_exact_rank_one_matrix(tmp_path):
    d = tmp_path / "z4"
    assert invoke("builtin", "zn:4", "--emit", str(d))[0] == 0
    code, out, err = invoke(
        "trace", str(d / "ring.json"), "--char", "0", "--module", str(d / "module-regular.json"),
        "--tol", "0", "--assert-matched",
    )
    assert code == 0 and err == ""
    assert "matched:   true" in out and "spherical by C: true" in out
    assert "residual max_minor: 0\n" in out and "diagnostic" not in out


@pytest.mark.parametrize("name, count", [("fibonacci", 2), ("zn:6", 6)])
def test_exact_tolerance_keeps_every_character(name, count, tmp_path):
    # characters are validated at max(tol, DEFAULT_TOL): their entries carry rounding error
    d = tmp_path / "ring"
    assert invoke("builtin", name, "--emit", str(d))[0] == 0
    ring = str(d / "ring.json")
    code, out, err = invoke("characters", ring, "--tol", "0", "--json")
    assert code == 0 and err == ""
    assert len(json.loads(out)["characters"]) == count
    for char in ("0", str(d / "char-01.json")):
        code, out, err = invoke(
            "trace", ring, "--char", char, "--module", str(d / "module-regular.json"), "--tol", "0", "--json"
        )
        assert code == 0 and err == "", char
        assert json.loads(out)["dimC"] > 0


def test_parser_messages_reach_the_callers_streams(capsys):
    code, out, err = invoke("--help")
    assert code == 0 and out.startswith("usage: modtrace") and err == ""
    code, out, err = invoke("frobnicate")
    assert code == 2 and out == "" and "invalid choice: 'frobnicate'" in err
    assert capsys.readouterr() == ("", "")


def test_unknown_verb_exits_2():
    code, _, _ = invoke("frobnicate")
    assert code == 2


def test_unknown_builtin_exits_2(tmp_path):
    code, _, err = invoke("builtin", "nope", "--emit", str(tmp_path / "x"))
    assert code == 2


@pytest.mark.parametrize("order", ["0", "-2"])
def test_nonpositive_cyclic_order_exits_2(order):
    assert invoke("vectg", "--group", f"Z:{order}") == (
        2, "", "error: cyclic group order must be positive\n"
    )


@pytest.mark.parametrize("argv", [["builtin", "zn:5000"], ["vectg", "--group", "Z:5793"]])
def test_oversized_cyclic_order_is_refused_before_allocating(argv):
    # zn:5000 always builds its ring, a 5000^3 int64 tensor (1 TB), so it is refused before its
    # table; Z:5793 is the first cyclic group whose own 5793^2 int64 table is over the budget
    needs = {
        "builtin": "the ring of a group of order 5000 needs 1,000,000,000,000 bytes",
        "vectg": "the cyclic group of order 5793 needs 268,470,792 bytes",
    }[argv[0]]
    assert invoke("builtin", "zn:2")[0] == 0  # loads the layers, so the peak is the refusal's
    tracemalloc.start()
    try:
        code, out, err = invoke(*argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert err == f"error: {needs}, over the budget of 268,435,456\n"
    assert peak < 2**20


# the largest cyclic order within the byte budget: Z:<n> builds its 8 * n^2 byte table, and
# zn:<n> its 8 * n^3 byte ring
CYCLIC_BOUNDS = {"Z:": 5_792, "zn:": 322}
MALFORMED_ORDERS = ["1_000", "6_000", " 7", "7 ", "", "+4", "-0", "1.5", "1e3", "0x10", "x", "\u0663", "5" * 5_000]


def test_cyclic_bounds_are_the_largest_orders_within_the_budget():
    for prefix, power in (("Z:", 2), ("zn:", 3)):
        n = CYCLIC_BOUNDS[prefix]
        assert 8 * n**power <= common.BYTE_BUDGET < 8 * (n + 1) ** power


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_cyclic_orders_exit_0_or_refuse_in_one_line(data):
    prefix = data.draw(st.sampled_from(["Z:", "zn:"]), "prefix")
    bound = CYCLIC_BOUNDS[prefix]
    order = data.draw(
        st.one_of(
            st.sampled_from(MALFORMED_ORDERS),
            st.integers(max_value=0).map(str),
            st.integers(1, 64).map(str),
            st.integers(min_value=bound + 1).map(str),
        ),
        "order",
    )
    try:
        n = int(order)  # as the CLI reads it
    except ValueError:
        n = None
    # Z:65 to Z:5792 are accepted, with tables of up to 268 MB
    assume(not (prefix == "Z:" and n is not None and 64 < n <= bound))
    if prefix == "Z:":
        flags = data.draw(st.lists(st.sampled_from(["--json", "--subgroups", "--characters"]), unique=True))
        argv = ["vectg", "--group", f"Z:{order}", *flags]
    else:
        argv = ["builtin", f"zn:{order}", *data.draw(st.sampled_from([[], ["--json"]]))]
    refused = n is None or not 1 <= n <= bound
    assert invoke("vectg", "--group", "Z:2", "--characters")[0] == 0  # the layers are loaded
    if refused:
        tracemalloc.start()
    try:
        code, out, err = invoke(*argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "Traceback" not in out + err
    assert code == (2 if refused else 0)
    if refused:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
        assert peak < 2**20
    else:
        assert err == ""


@pytest.mark.parametrize(
    "kind, key, size, needs",
    [
        ("ring", "rank", 4096, "a ring of rank 4096 needs 549,755,813,888 bytes"),
        ("module-H00", "module_rank", 2**20, "a module of rank 1048576 needs 17,592,186,044,416 bytes"),
        ("group", "order", 2**20, "a group of order 1048576 needs 8,796,093,022,208 bytes"),
    ],
)
def test_oversized_file_headers_are_refused_before_the_array_is_built(z2_dir, kind, key, size, needs):
    # each file keeps its small array and claims a size over the budget in its header; the
    # refusal comes from the header, not from the shape check of the array
    path = z2_dir / f"{kind}.json"
    data = json.loads(path.read_text())
    data[key] = size
    path.write_text(json.dumps(data))
    ring, module = z2_dir / "ring.json", z2_dir / "module-H00.json"
    argv = {
        "ring": ["validate", str(ring)],
        "module-H00": ["trace", str(ring), "--char", "0", "--module", str(module)],
        "group": ["vectg", "--group", str(path)],
    }[kind]
    code, out, err = invoke(*argv)
    assert (code, out) == (2, "")
    assert err == f"error: {needs}, over the budget of 268,435,456\n"


def test_char_index_out_of_range(fib_dir):
    code, _, err = invoke(
        "trace", str(fib_dir / "ring.json"),
        "--char", "7",
        "--module", str(fib_dir / "module-regular.json"),
    )
    assert code == 2
    assert "out of range" in err


def test_emitted_files_reload_equal(fib_dir, z2_dir):
    ring = files.load_ring(fib_dir / "ring.json")
    assert ring == mt.builtin("fibonacci")[0]
    chars = mt.builtin("fibonacci")[1]
    for idx in range(2):
        loaded = files.load_char(fib_dir / f"char-{idx:02d}.json", ring)
        assert np.max(np.abs(loaded.d - chars[idx].d)) < 1e-12
    reg = files.load_module(fib_dir / "module-regular.json", ring)
    assert reg == mt.regular_module(ring)

    table = files.load_group(z2_dir / "group.json")
    assert table == mt.cyclic_table(2)


def test_numeric_failure_exits_3(fib_dir, monkeypatch):
    def boom(*args, **kwargs):
        raise mt.NumericError("synthetic degeneracy")

    monkeypatch.setattr(mt, "enumerate_characters", boom)
    code, _, err = invoke("characters", str(fib_dir / "ring.json"))
    assert code == 3
    assert "numeric failure" in err


def test_characters_of_noncommutative_ring_exits_2(tmp_path):
    from modtrace.catalog import s3_table

    ring = mt.group_ring(s3_table())
    path = tmp_path / "s3.ring.json"
    files.save_ring(ring, path)
    code, _, err = invoke("characters", str(path))
    assert code == 2
    assert "commutative" in err


def test_invalid_module_file_exits_2(fib_dir, tmp_path):
    ring = files.load_ring(fib_dir / "ring.json")
    bad = mt.NimRep(ring, 2, np.stack([np.eye(2, dtype=int), np.array([[0, 1], [2, 1]])]))
    path = tmp_path / "bad.mod.json"
    files.save_module(bad, path)
    code, _, err = invoke(
        "trace", str(fib_dir / "ring.json"), "--char", "0", "--module", str(path)
    )
    assert code == 2
    assert "invalid module" in err


# (emitted file to edit, text to replace, replacement) per malformed input
MALFORMED_FIELDS = {
    "rank-string": ("fib/ring.json", '"rank": 2', '"rank": "two"'),
    "rank-overflow": ("fib/ring.json", '"rank": 2', '"rank": 1e400'),
    "rank-list": ("fib/ring.json", '"rank": 2', '"rank": [2]'),
    "rank-fraction": ("fib/ring.json", '"rank": 2', '"rank": 2.5'),
    "unit-string": ("fib/ring.json", '"unit": 0', '"unit": "zero"'),
    "labels-int": ("fib/ring.json", '"labels": ["1", "tau"]', '"labels": 5'),
    "labels-null": ("fib/ring.json", '"labels": ["1", "tau"]', '"labels": null'),
    "module-rank-string": ("fib/module-regular.json", '"module_rank": 2', '"module_rank": "two"'),
    "order-string": ("z2/group.json", '"order": 2', '"order": "x"'),
    "group-labels-int": ("z2/group.json", '"labels": ["e", "g"]', '"labels": 5'),
    "group-labels-count": ("z2/group.json", '"labels": ["e", "g"]', '"labels": ["e"]'),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_FIELDS) + ["not-utf8", "directory", "deep-nesting"])
def test_malformed_input_exits_2_with_one_line(case, fib_dir, z2_dir, tmp_path):
    ring = str(fib_dir / "ring.json")
    if case == "not-utf8":
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"rank": "\xff"}')
        argv = ["validate", str(path)]
    elif case == "directory":
        argv = ["validate", str(tmp_path)]
    elif case == "deep-nesting":
        path = tmp_path / "deep.json"
        path.write_text("[" * 5000)
        argv = ["validate", str(path)]
    else:
        name, old, new = MALFORMED_FIELDS[case]
        path = tmp_path / name
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new))
        if name.endswith("module-regular.json"):
            argv = ["trace", ring, "--char", "0", "--module", str(path)]
        elif name.endswith("group.json"):
            argv = ["vectg", "--group", str(path)]
        else:
            argv = ["validate", str(path)]
    code, out, err = invoke(*argv)
    assert code == 2, (out, err)
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


@pytest.mark.parametrize("entry", ["1e300", "1e400", "NaN"])
def test_character_file_with_a_huge_entry_exits_2_with_one_line(entry, fib_dir):
    # the character checks overflow to inf and nan silently: the value fails its check
    path = fib_dir / "huge.json"
    path.write_text((fib_dir / "char-00.json").read_text().replace("[1.0, 0.0]", f"[{entry}, 0.0]", 1))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = invoke(
            "trace", str(fib_dir / "ring.json"), "--char", str(path), "--module", str(fib_dir / "module-regular.json")
        )
    assert (code, out, caught) == (2, "", []), err
    assert err.count("\n") == 1 and "invalid character" in err, err


def _group_ring_invocations(d, group, order):
    """Each verb that validates a group ring or reads its characters, on ``vectg --emit`` files."""
    ring = str(d / "ring.json")
    modules = sorted(str(p) for p in d.glob("module-*.json"))
    runs = [["validate", ring], ["characters", ring], ["vectg", "--group", group, "--characters"]]
    for i in range(order):
        runs.append(["trace", ring, "--char", str(i), "--module", modules[i % len(modules)]])
        runs.append(["flexible", ring, "--char", str(i), "--modules", *modules])
        runs.append(["frobenius", ring, "--char", str(i), "--module", modules[-1], "--object", "0"])
    return runs + [argv + ["--json"] for argv in runs]


# a number as the CLI prints it, complex ones as "re+imi"
_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:e[-+]?\d+)?(?:[+-]\d+(?:\.\d+)?(?:e[-+]?\d+)?i)?")


def _without_dust(text):
    """``text`` with every printed number below 1e-9 in magnitude, rounding dust, written as 0."""

    def zero_if_dust(match):
        token = match.group()
        value = complex(token.replace("i", "j")) if token.endswith("i") else float(token)
        return "0" if abs(value) < 1e-9 else token

    return _NUMBER.sub(zero_if_dust, text)


@pytest.mark.parametrize("group, order", [("Z:12", 12), ("Z2xZ2", 4), ("Z:16", 16)])
def test_group_ring_output_is_the_same_without_the_pointed_routes(
    group, order, tmp_path, monkeypatch
):
    # Without a pointed table the validators run their dense checks and enumeration
    # its eigh route.  Its characters differ from the exact ones in the last bits,
    # which shows only in the dust a solve prints: C of a non-spherical character
    # and the residuals.  Everything else must be byte-identical.
    from modtrace import chars, fusion, nimrep

    d = tmp_path / "g"
    assert invoke("vectg", "--group", group, "--emit", str(d))[0] == 0
    runs = _group_ring_invocations(d, group, order)
    pointed = [invoke(*argv) for argv in runs]
    assert fusion.pointed_table(files.load_ring(d / "ring.json")) is not None
    for module in (fusion, chars, nimrep):
        monkeypatch.setattr(module, "pointed_table", lambda ring: None)
    dense = [invoke(*argv) for argv in runs]
    for argv, before, after in zip(runs, pointed, dense):
        assert before[0] == 0 and not before[2]
        if argv[0] in ("validate", "characters", "vectg"):
            assert after == before, argv
        else:
            assert after[0] == 0 and not after[2], argv
            assert _without_dust(after[1]) == _without_dust(before[1]), argv


@pytest.mark.parametrize(
    "argv",
    [["builtin", name] for name in ("fibonacci", "ising", "rep_s3", "zn:1", "zn:12", "zn:32")]
    + [["vectg", "--group", name] for name in ("S3", "Z2xZ2", "Z:12")],
    ids=lambda argv: argv[-1],
)
def test_emitted_bytes_equal_the_reference_encoding(argv, tmp_path):
    d = tmp_path / "out"
    code, out, _ = invoke(*argv, "--emit", str(d), "--json")
    assert code == 0
    emitted = sorted(d.glob("*.json"))
    assert d / "ring.json" in emitted
    for path in emitted:
        text = path.read_text(encoding="utf-8")
        assert text == saved_text_reference(json.loads(text)), path.name
    # every file names its ring by the hash of the compact to_dict form
    blob = json.dumps(files.load_ring(d / "ring.json").to_dict(), separators=(",", ":"), sort_keys=False)
    expected = hashlib.sha256(blob.encode()).hexdigest()[:12]
    assert {json.loads(p.read_text())["ring"] for p in emitted if p.name.startswith(("char-", "module-"))} == {expected}
    assert json.loads(out).get("hash", expected) == expected
