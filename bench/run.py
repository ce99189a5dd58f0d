"""modtrace benchmark: one run of one workload, every metric printed by name and unit.

    python3 bench/run.py --workload catalog_sweep --seed 1 --seconds 45 --trace 0

Run it from the repository root.  Workloads: ``catalog_sweep`` and
``cli_session`` (see ``workloads.py`` and ``BENCHMARK.json`` for why each is
there).  With ``--trace 0`` it reports the
end-to-end metrics of an untraced run; with ``--trace 1`` the per-layer
metrics of a traced run.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

The workload runs in a child process (``worker.py``) with BLAS threads pinned,
so that its peak RSS can be read from ``os.wait4`` alone.  ``correct`` is
false when an output disagrees with its oracle; an operation that raises is
counted in ``failed``.  The interpreter and import baselines are measured in
child processes of their own.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

WORKLOADS = ("catalog_sweep", "cli_session")

# name: (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "op_p50_ms": ("ms", "lower"),
    "op_tail_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

PER_LAYER = {
    "files.load.calls": ("count", "lower"),
    "files.load.self_ms": ("ms", "lower"),
    "files.save.self_ms": ("ms", "lower"),
    "files.bytes_read": ("bytes", "lower"),
    "fusion.validate_fusion_ring.calls": ("count", "lower"),
    "fusion.validate_fusion_ring.self_ms": ("ms", "lower"),
    "fusion.validate_fusion_ring.peak_mb": ("MB", "lower"),
    "fusion.content_hash.calls": ("count", "lower"),
    "fusion.content_hash.self_ms": ("ms", "lower"),
    "fusion.fp_dimensions.self_ms": ("ms", "lower"),
    "fusion.perron_vector.calls": ("count", "lower"),
    "nimrep.validate_nimrep.calls": ("count", "lower"),
    "nimrep.validate_nimrep.self_ms": ("ms", "lower"),
    "nimrep.validate_nimrep.peak_mb": ("MB", "lower"),
    "nimrep.is_indecomposable.self_ms": ("ms", "lower"),
    "chars.enumerate_characters.calls": ("count", "lower"),
    "chars.enumerate_characters.self_ms": ("ms", "lower"),
    "chars.enumerate_characters.peak_mb": ("MB", "lower"),
    "chars.validate_dim_char.calls": ("count", "lower"),
    "chars.validate_dim_char.self_ms": ("ms", "lower"),
    "chars.kept_ratio": ("ratio", "higher"),
    "groups.subgroups.calls": ("count", "lower"),
    "groups.subgroups.self_ms": ("ms", "lower"),
    "groups.subgroup_count": ("count", "higher"),
    "groups.group_characters.self_ms": ("ms", "lower"),
    "groups.vect_g_module.self_ms": ("ms", "lower"),
    "groups.group_ring.self_ms": ("ms", "lower"),
    "solver.solve_module_trace.calls": ("count", "lower"),
    "solver.solve_module_trace.self_ms": ("ms", "lower"),
    "solver.solve_module_trace.peak_mb": ("MB", "lower"),
    "solver.dimension_matrix.self_ms": ("ms", "lower"),
    "solver.matched_ratio": ("ratio", "higher"),
    "frobenius.frobenius_report.calls": ("count", "lower"),
    "frobenius.frobenius_report.self_ms": ("ms", "lower"),
    "frobenius.morita_rescale_check.self_ms": ("ms", "lower"),
    "catalog.builtin.self_ms": ("ms", "lower"),
    "catalog.builtin_group.self_ms": ("ms", "lower"),
    "cli.run.self_ms": ("ms", "lower"),
    "cli.import_ms": ("ms", "lower"),
    "cli.numpy_import_ms": ("ms", "lower"),
    "cli.interpreter_ms": ("ms", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "fail_ratio": ("ratio", "lower"),
}

# Wall time of a child that only starts the interpreter, imports numpy, or
# imports the CLI: what any cli_session gain is bounded by.
BASELINES = {
    "cli.interpreter_ms": "pass",
    "cli.numpy_import_ms": "import numpy",
    "cli.import_ms": "import modtrace.cli",
}
BASELINE_REPEATS = 3

# Each workload's tail percentile.  Every run has well over ten samples beyond
# it, and they span a whole class of ops rather than a handful of one: the top
# 0.1 % of catalog_sweep are a few dozen order-24 solves that one burst of load
# from other processes moves by half, and the top 13 % of cli_session are its
# two Z:32 commands, with eight or nine samples of each per run.
TAIL_PERCENTILE = {"catalog_sweep": 99.0, "cli_session": 75.0}

WORKER_TIME_LIMIT_S = 165

# At most nproc.  One thread keeps runs steady on a small shared machine; the
# matrices here are at most 32 x 32, too small for BLAS threads to pay off.
BLAS_THREADS = 1


def percentile(sorted_values, p):
    """Linear interpolation between closest ranks, as numpy's default."""
    pos = (len(sorted_values) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail_percentile(workload: str, count: int) -> float:
    """The workload's tail percentile, or 50 when fewer than ten of ``count`` samples lie beyond it."""
    p = TAIL_PERCENTILE[workload]
    return p if count * (100.0 - p) / 100.0 >= 10 else 50.0


def pinned_env(src: Path, threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = str(threads)
    return env


def _child_wall_ms(code: str, env: dict) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, check=True, stdout=subprocess.DEVNULL)
    return (time.perf_counter() - start) * 1e3


def measure_baselines(env: dict) -> dict:
    _child_wall_ms(BASELINES["cli.import_ms"], env)  # compiles and caches the modules first
    return {
        name: statistics.median(_child_wall_ms(code, env) for _ in range(BASELINE_REPEATS))
        for name, code in BASELINES.items()
    }


def run_worker(args, env: dict, workdir: Path) -> tuple[dict, int]:
    """Run ``worker.py`` to completion; returns its result and its peak RSS in KiB."""
    result_path = workdir / "result.json"
    cmd = [
        sys.executable, str(Path(__file__).with_name("worker.py")),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--workdir", str(workdir), "--result", str(result_path),
    ]
    # its own process group, so that a kill also reaches a CLI child it is waiting on
    proc = subprocess.Popen(cmd, env=env, stdout=sys.stderr, start_new_session=True)
    timer = threading.Timer(WORKER_TIME_LIMIT_S, os.killpg, (proc.pid, signal.SIGKILL))
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:  # interrupted: stop the worker before leaving
        os.killpg(proc.pid, signal.SIGKILL)
        os.waitpid(proc.pid, 0)
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(result_path.read_text(encoding="utf-8")), usage.ru_maxrss


def tally(raw: dict) -> tuple[int, int, bool, float]:
    """Attempted and failed units, whether every output agreed with its oracle, and the fail ratio."""
    attempted = raw["attempted"]
    failed = len(raw["errors"]) + len(raw["wrong"])
    correct = not raw["wrong"] and not raw.get("trace_problems")
    return attempted, failed, correct, failed / attempted if attempted else 1.0


def end_to_end(workload: str, raw: dict, rss_kb: int) -> tuple[dict, list[str]]:
    lat = sorted(raw["latencies_ms"])
    n = len(lat)
    tail_p = tail_percentile(workload, n)
    child_kb = raw.get("child_peak_rss_kb")
    values = {
        "setup_s": statistics.median(raw["setup_s"]),
        "ops_per_s": statistics.median(raw["pass_rates"]),
        "op_p50_ms": percentile(lat, 50.0) if lat else 0.0,
        "op_tail_ms": percentile(lat, tail_p) if lat else 0.0,
        "peak_rss_mb": (child_kb if child_kb is not None else rss_kb) / 1024.0,
    }
    notes = [
        f"median of {len(raw['setup_s'])} set-ups",
        f"median over {len(raw['pass_rates'])} passes",
        f"median of {n} ops",
        f"p{tail_p:g} of {n} ops" if tail_p != 50.0 else f"median of {n} ops (fewer than 10 beyond p{TAIL_PERCENTILE[workload]:g})",
        "largest CLI child" if child_kb is not None else "workload process",
    ]
    return values, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "modtrace" / "__init__.py").is_file():
        print(f"error: no modtrace sources under {src}; run from a repository checkout", file=sys.stderr)
        return 2

    threads = min(os.cpu_count() or 1, BLAS_THREADS)
    env = pinned_env(src, threads)
    workdir = root / "bench" / "work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        baselines = measure_baselines(env)
        raw, rss_kb = run_worker(args, env, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed, correct, fail_ratio = tally(raw)
    problems = raw.get("trace_problems", [])
    env_record = dict(raw["env"], seed=args.seed, blas_threads_pinned=threads)

    print(f"modtrace benchmark: workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print("env: " + json.dumps(env_record))
    print("baselines: " + ", ".join(f"{k} {v:.1f} ms (median of {BASELINE_REPEATS})" for k, v in baselines.items()))
    if args.trace:
        # a function the workload never calls has no span: 0 calls, 0 ms
        values = {name: raw["per_layer"].get(name, 0) for name in PER_LAYER}
        values.update(baselines, fail_ratio=fail_ratio)
        table = PER_LAYER
        notes = {}
        spans = raw["spans"]
        print(f"traced run: {spans['count']} spans in {spans['file']}; self-time check: {'ok' if not problems else problems[:3]}")
    else:
        e2e, note_list = end_to_end(args.workload, raw, rss_kb)
        values, table, notes = e2e, END_TO_END, dict(zip(END_TO_END, note_list))
    notes["fail_ratio"] = f"{failed} failed of {attempted} attempted"
    for name, unit, value in [(n, u, values[n]) for n, (u, _) in table.items()] + (
        [] if args.trace else [("fail_ratio", "ratio", fail_ratio)]
    ):
        print(f"  {name:42s} {value:>14.6g} {unit:6s} {notes.get(name, '')}")
    for label, reason in (raw["errors"] + raw["wrong"])[:5]:
        print(f"  failed: {label}: {reason}")

    metrics = {name: {"value": values[name], "unit": unit} for name, (unit, _) in table.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
