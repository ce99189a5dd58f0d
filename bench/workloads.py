"""The benchmark's workloads: inputs made from a seed, one pass of timed units, oracles.

A workload runs its units through a clock (see ``worker.Clock``):
``clock.run(kind, label, call, check)`` times ``call()`` and then, outside the
timed interval, runs ``check(result)``, which returns ``None`` or the reason
the output is wrong.  Units of kind ``"op"`` are the operations whose
latency is reported; ``"prep"`` units are timed group-level work that the
ops depend on.  The seed changes the order of units and the character or
object index chosen, never the amount of work.

Every call into modtrace goes through the ``modtrace`` namespaces at call
time (``mt.x``, ``files.x``), so the traced run sees it.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import modtrace as mt
import modtrace.cli
from modtrace import files

TOL = 1e-9


def _close_sets(got, exact, tol=TOL) -> bool:
    """True when two lists of character vectors agree as sets, entrywise within ``tol``."""
    got = [np.asarray(v, dtype=complex) for v in got]
    exact = [np.asarray(v, dtype=complex) for v in exact]
    if len(got) != len(exact):
        return False
    unused = list(range(len(got)))
    for target in exact:
        hit = next((i for i in unused if np.max(np.abs(got[i] - target)) <= tol), None)
        if hit is None:
            return False
        unused.remove(hit)
    return True


# -- catalog_sweep --------------------------------------------------------


def _partitions(n, largest=None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


def _prime_powers(n):
    powers, p = {}, 2
    while n > 1:
        while n % p == 0:
            powers[p] = powers.get(p, 0) + 1
            n //= p
        p += 1
    return powers


def abelian_invariants(order: int) -> list[tuple[int, ...]]:
    """Cyclic factor orders of every abelian group of ``order``, one per isomorphism class."""
    per_prime = [
        [tuple(p**e for e in part) for part in _partitions(k)]
        for p, k in _prime_powers(order).items()
    ]
    return [
        tuple(sorted(f for part in combo for f in part)) or (1,)
        for combo in itertools.product(*per_prime)
    ]


def _product(names):
    table = mt.builtin_group(names[0])
    for name in names[1:]:
        table = mt.direct_product(table, mt.builtin_group(name))
    return table


class CatalogSweep:
    """Every abelian group of order <= 24 and S3 x Z_n for n <= 4, all (character, coset module) pairs."""

    name = "catalog_sweep"
    max_order = 24

    def choose(self, rng):
        return {}

    def setup(self, workdir, choices):
        groups = []
        for order in range(1, self.max_order + 1):
            for factors in abelian_invariants(order):
                groups.append(("x".join(f"Z{f}" for f in factors), _product([f"Z:{f}" for f in factors])))
        for n in range(1, 5):
            groups.append((f"S3xZ{n}", _product(["S3"] if n == 1 else ["S3", f"Z:{n}"])))
        return groups

    def run_pass(self, groups, rng, clock):
        for gname, table in rng.sample(groups, len(groups)):
            got = clock.run("prep", f"{gname} groups", lambda: _group_level(table), None)
            if got is None:
                continue
            subs, chars, mods = got
            if table.is_abelian():
                exact = [ch.d for ch in chars]
                clock.run(
                    "prep",
                    f"{gname} enumerate",
                    lambda: mt.enumerate_characters(chars[0].ring),
                    lambda found: None
                    if _close_sets([ch.d for ch in found], exact)
                    else "enumerate_characters disagrees with group_characters",
                )
            pairs = [(c, h) for c in range(len(chars)) for h in range(len(subs))]
            rng.shuffle(pairs)
            for c, h in pairs:
                ch, H, rep = chars[c], subs[h], mods[h]
                m = rng.randrange(rep.module_rank)
                clock.run(
                    "op",
                    f"{gname} char {c} H{h:02d} object {m}",
                    lambda: _decide(ch, rep, m),
                    lambda result: _check_decision(table, H, ch, result),
                )


def _group_level(table):
    subs = mt.subgroups(table)
    if table.is_abelian():
        chars = mt.group_characters(table)
    else:
        chars = [mt.fp_character(mt.group_ring(table))]
    mods = [mt.vect_g_module(table, H) for H in subs]
    return subs, chars, mods


def _decide(ch, rep, m):
    ring = ch.ring
    cert = mt.solve_module_trace(ring, ch, rep)
    if not cert.matched:
        return cert, None, None
    frob = mt.frobenius_report(ring, ch, rep, m, cert)
    morita = mt.morita_rescale_check(ring, ch, rep, m, cert)
    return cert, frob, morita


def _check_decision(table, H, ch, result):
    cert, frob, morita = result
    expected = mt.matched_vectg_oracle(table, H, ch)
    if cert.matched != expected:
        return f"verdict matched={cert.matched} but the oracle says {expected}"
    if not cert.matched:
        return None
    norm = float(np.sum(np.abs(cert.trace.d) ** 2))
    if abs(norm - cert.dim_c) > TOL * max(1.0, cert.dim_c):
        return f"sum |d_M|^2 = {norm!r} differs from dimC = {cert.dim_c!r}"
    if not frob.positivity_ok:
        return "Frobenius dim A is not positive"
    if not morita.ok:
        return f"Morita rescale residual {morita.max_residual!r}"
    return None


# -- cli_session ----------------------------------------------------------


def _emit_builtin(name, directory, char_indices):
    """The files ``modtrace builtin <name> --emit`` writes, with only the chosen character files."""
    directory.mkdir(exist_ok=True)
    ring, chars = mt.builtin(name)
    files.save_ring(ring, directory / "ring.json")
    for i in char_indices:
        files.save_char(chars[i], directory / f"char-{i:02d}.json")
    files.save_module(mt.regular_module(ring), directory / "module-regular.json")


def _broken_ring():
    """rep_s3 with one structure constant bumped, which breaks associativity."""
    ring = mt.builtin("rep_s3")[0]
    N = ring.N.copy()
    N[1, 2, 1] = 1
    return mt.FusionRing(3, ring.labels, 0, ring.dual.copy(), N)


class CliSession:
    """About a dozen ``python -m modtrace.cli ... --json`` invocations, one child at a time."""

    name = "cli_session"
    child_processes = True
    # The in-process pass touches every layer in a few seconds, so it also
    # carries the tracemalloc pass (which would slow catalog_sweep tenfold).
    tracemalloc_pass = True

    def choose(self, rng):
        return {
            "z12": rng.randrange(12),
            "z32": rng.randrange(32),
            "flex": rng.randrange(12),
            "fib": rng.randrange(2),
            "object": rng.randrange(2),
        }

    def setup(self, workdir, choices):
        w = Path(workdir)
        _emit_builtin("zn:12", w / "z12", [choices["z12"]])
        _emit_builtin("zn:32", w / "z32", [choices["z32"]])
        _emit_builtin("ising", w / "ising", [])
        _emit_builtin("fibonacci", w / "fib", [])
        table = mt.cyclic_table(12)
        (w / "c12").mkdir(exist_ok=True)
        files.save_ring(mt.group_ring(table), w / "c12" / "ring.json")
        for k, H in enumerate(mt.subgroups(table)):
            files.save_module(mt.vect_g_module(table, H), w / "c12" / f"module-H{k:02d}.json")
        files.save_ring(_broken_ring(), w / "broken-ring.json")
        return {"dir": w, "choices": choices, "stdout": {}}

    def invocations(self, state):
        """(argv, expected exit code, oracle on the parsed JSON) for every op of a pass."""
        w, c = state["dir"], state["choices"]
        z12, z32 = w / "z12", w / "z32"
        c12_table = mt.cyclic_table(12)
        c12_subs = mt.subgroups(c12_table)
        exact = {n: mt.group_characters(mt.cyclic_table(n)) for n in (12, 16, 32)}
        ising = [[1, 1, math.sqrt(2)], [1, 1, -math.sqrt(2)]]
        ops = []
        for name, d in (("zn:12", z12), ("ising", w / "ising")):
            ring = str(d / "ring.json")
            fp = [1.0] * 12 if name == "zn:12" else [1.0, 1.0, math.sqrt(2)]
            chars = [ch.d for ch in exact[12]] if name == "zn:12" else ising
            ops.append((["validate", ring], 0, lambda out: _expect(out["valid"], "ring reported invalid")))
            ops.append((["fp-dims", ring], 0, lambda out, fp=fp: _expect(np.allclose(out["fp_dims"], fp, atol=TOL), "FP dimensions")))
            ops.append(
                (["characters", ring], 0, lambda out, chars=chars: _expect(
                    _close_sets(_pairs_to_vectors(out["characters"]), chars), "characters differ from the closed form"))
            )
        for n, d in ((12, z12), (32, z32)):
            i = c[f"z{n}"]
            ring, module = str(d / "ring.json"), str(d / "module-regular.json")
            for source in (str(d / f"char-{i:02d}.json"), str(i)):
                ops.append(
                    (["trace", ring, "--char", source, "--module", module], 0,
                     lambda out, n=n, i=i: _trace_oracle(out, mt.cyclic_table(n), (0,), exact[n][i]))
                )
        j = c["flex"]
        modules = [str(w / "c12" / f"module-H{k:02d}.json") for k in range(len(c12_subs))]
        ops.append(
            (["flexible", str(w / "c12" / "ring.json"), "--char", str(j), "--modules", *modules], 0,
             lambda out: _flexible_oracle(out, c12_table, c12_subs, exact[12][j]))
        )
        fib = w / "fib"
        ops.append(
            (["frobenius", str(fib / "ring.json"), "--char", str(c["fib"]), "--module",
              str(fib / "module-regular.json"), "--object", str(c["object"])], 0, _frobenius_oracle)
        )
        ops.append((["vectg", "--group", "Z:64", "--subgroups"], 0, _cyclic_subgroups_oracle))
        ops.append(
            (["builtin", "zn:16"], 0, lambda out: _expect(
                out["rank"] == 16 and _close_sets(_pairs_to_vectors(out["characters"]), [ch.d for ch in exact[16]]),
                "zn:16 characters"))
        )
        ops.append(
            (["validate", str(w / "broken-ring.json")], 2, lambda out: _expect(
                not out["valid"] and any(v[0] == "associativity" for v in out["violations"]),
                "broken ring not reported as non-associative"))
        )
        return [(argv + ["--json"], code, oracle) for argv, code, oracle in ops]

    def run_pass(self, state, rng, clock, in_process=False):
        if "ops" not in state:  # built outside any timed or traced interval
            state["ops"] = self.invocations(state)
        ops = state["ops"]
        for argv, code, oracle in rng.sample(ops, len(ops)):
            call = (lambda argv=argv: _run_in_process(argv)) if in_process else (lambda argv=argv: _run_child(argv, state["dir"]))
            clock.run(
                "op",
                " ".join(argv),
                call,
                lambda result, argv=argv, code=code, oracle=oracle: self._check(state, argv, code, oracle, result),
            )

    def in_process_pass(self, state, rng, clock):
        """The same invocations through ``modtrace.cli.run`` in this process, for the traced run."""
        self.run_pass(state, rng, clock, in_process=True)

    def _check(self, state, argv, code, oracle, result):
        got_code, stdout, rss_kb = result
        state["peak_rss_kb"] = max(state.get("peak_rss_kb", 0), rss_kb)
        if got_code != code:
            return f"exit code {got_code}, expected {code}"
        first = state["stdout"].setdefault(tuple(argv), stdout)
        if stdout != first:
            return "stdout differs from an earlier run of the same command"
        try:
            out = json.loads(stdout)
        except ValueError as exc:
            return f"stdout is not JSON: {exc}"
        return oracle(out)


def _run_child(argv, workdir):
    """One CLI child; returns (exit code, stdout bytes, child peak RSS in KiB)."""
    out_path = Path(workdir) / "stdout.bin"
    with open(out_path, "wb") as out, open(os.devnull, "wb") as err:
        proc = subprocess.Popen([sys.executable, "-m", "modtrace.cli", *argv], stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out_path.read_bytes(), usage.ru_maxrss


def _run_in_process(argv):
    out = io.StringIO()
    code = mt.cli.run(list(argv), out=out, err=io.StringIO())
    return code, out.getvalue().encode(), 0


def _expect(ok, what):
    return None if ok else f"oracle mismatch: {what}"


def _pairs_to_vectors(rows):
    return [[complex(re, im) for re, im in row] for row in rows]


def _trace_oracle(out, table, H, kappa):
    expected = mt.matched_vectg_oracle(table, H, kappa)
    if out["matched"] != expected:
        return f"matched={out['matched']} but the oracle says {expected}"
    return None


def _flexible_oracle(out, table, subs, kappa):
    expected = [mt.matched_vectg_oracle(table, H, kappa) for H in subs]
    got = [cert["matched"] for cert in out["certificates"]]
    if got != expected:
        return f"per-module verdicts {got} but the oracle says {expected}"
    return _expect(out["flexible"] == all(expected), "flexible flag")


def _frobenius_oracle(out):
    # the regular module is matched for every character
    if not out["matched"]:
        return "Fibonacci regular module unmatched"
    frob = out["frobenius"]
    return _expect(frob["positivity_ok"] and frob["morita"]["ok"], "Frobenius/Morita data")


def _cyclic_subgroups_oracle(out):
    # the subgroups of Z:64 are the multiples of 64/d for each divisor d
    expected = sorted(
        [list(range(0, 64, 64 // d)) for d in (1, 2, 4, 8, 16, 32, 64)], key=len
    )
    return _expect(out["subgroup_count"] == 7 and out["subgroups"] == expected, "Z:64 subgroups")


WORKLOADS = {w.name: w for w in (CatalogSweep(), CliSession())}
