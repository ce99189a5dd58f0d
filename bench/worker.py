"""One run of one workload, in a process of its own.

    python bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 \
        --workdir DIR --result FILE

``run.py`` starts this with BLAS threads pinned and ``src`` on the path, and
reads the process's peak RSS when it exits.  The worker either times passes
for ``--seconds`` seconds or, with ``--trace 1``, runs a traced pass between
two untraced ones, then a tracemalloc pass for workloads that set
``tracemalloc_pass``; the spans go to ``bench/traces/``.  It writes raw
samples as JSON; ``run.py`` turns them into metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

import tracing
from workloads import WORKLOADS

# Where a traced run writes its spans when it ends.
TRACES = Path(__file__).resolve().parent / "traces"


class Clock:
    """Times units back to back (a closed loop with one client) and runs their checks untimed."""

    def __init__(self, recorder=None):
        self.recorder = recorder
        self.latencies_ns = []
        self.busy_ns = 0
        self.ops_done = 0
        self.attempted = 0
        self.errors = []  # (label, reason): the call raised
        self.wrong = []  # (label, reason): the output disagrees with its oracle
        self.pass_rates = []
        self._mark = (0, 0)

    def run(self, kind, label, call, check):
        self.attempted += 1
        recorder = self.recorder
        if recorder is not None:
            recorder.op_id = self.attempted
            root = recorder.open(f"op:{kind}")
            recorder.active = True
        start = time.perf_counter_ns()
        try:
            result, error = call(), None
        except Exception as exc:  # a failing operation is counted and the run goes on
            result, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter_ns() - start
        if recorder is not None:
            recorder.active = False
            recorder.close(root)
            recorder.op_id = None
        self.busy_ns += elapsed
        if error is not None:
            self.errors.append((label, error))
            return None
        reason = check(result) if check is not None else None
        if reason is not None:
            self.wrong.append((label, reason))
            return None
        if kind == "op":
            self.latencies_ns.append(elapsed)
            self.ops_done += 1
        return result

    def end_pass(self) -> None:
        """Close a pass: its throughput is completed ops over all the time its units took."""
        busy = self.busy_ns - self._mark[0]
        done = self.ops_done - self._mark[1]
        self.pass_rates.append(done / (busy / 1e9) if busy else 0.0)
        self._mark = (self.busy_ns, self.ops_done)


def _merge(*clocks) -> dict:
    return {
        "attempted": sum(c.attempted for c in clocks),
        "errors": [e for c in clocks for e in c.errors],
        "wrong": [w for c in clocks for w in c.wrong],
    }


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _timed_setup(workload, workdir, choices, samples):
    start = time.perf_counter()
    state = workload.setup(workdir, choices)
    samples.append(time.perf_counter() - start)
    return state


def timed_run(workload, rng, seconds, workdir, choices) -> dict:
    """Passes until ``seconds`` have gone by, with a set-up before each pass.

    Set-up takes well under a second, so set-ups run back to back would all
    see the same moment's load on a shared machine; spread over the run they
    see what the passes see.  Every set-up writes the same inputs, and the
    passes keep using the first one's state.
    """
    setup_s = []
    state = _timed_setup(workload, workdir, choices, setup_s)
    clock = Clock()
    deadline = time.perf_counter() + seconds
    while True:
        workload.run_pass(state, rng, clock)
        clock.end_pass()
        if time.perf_counter() >= deadline:
            break
        _timed_setup(workload, workdir, choices, setup_s)
    result = _merge(clock)
    result["setup_s"] = setup_s
    result["latencies_ms"] = [t / 1e6 for t in clock.latencies_ns]
    result["pass_rates"] = clock.pass_rates
    if getattr(workload, "child_processes", False):
        result["child_peak_rss_kb"] = state["peak_rss_kb"]
    return result


def traced_run(workload, rng, workdir, choices, spans_path) -> dict:
    state = workload.setup(workdir, choices)
    run_pass = getattr(workload, "in_process_pass", workload.run_pass)
    untraced = Clock()
    run_pass(state, rng, untraced)

    recorder = tracing.Recorder()
    restore = tracing.install(recorder.wrapper)
    try:
        recorder.active = True
        state = workload.setup(workdir, choices)
        recorder.active = False
        traced = Clock(recorder)
        run_pass(state, rng, traced)
    finally:
        restore()
    run_pass(state, rng, untraced)  # untraced passes on both sides of the traced one
    spans = recorder.spans
    metrics = tracing.layer_metrics(spans)
    metrics["trace.overhead_ratio"] = traced.busy_ns / (untraced.busy_ns / 2)
    clocks = [untraced, traced]

    peaks = tracing.PeakRecorder()
    if getattr(workload, "tracemalloc_pass", False):
        memory = Clock()
        restore = tracing.install(peaks.wrapper, tracing.PEAK_TARGETS)
        tracemalloc.start()
        try:
            run_pass(state, rng, memory)
        finally:
            tracemalloc.stop()
            restore()
        clocks.append(memory)
    for name in tracing.PEAK_TARGETS:
        metrics[f"{name}.peak_mb"] = peaks.peaks.get(name, 0) / 2**20

    result = _merge(*clocks)
    result["per_layer"] = metrics
    spans_path.parent.mkdir(exist_ok=True)
    spans_path.write_text(json.dumps({"fields": tracing.SPAN_FIELDS, "spans": spans}), encoding="utf-8")
    result["spans"] = {"count": len(spans), "file": str(spans_path)}
    result["trace_problems"] = tracing.op_consistency(spans, tracing.self_times(spans))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--workdir", required=True, type=Path)
    parser.add_argument("--result", required=True, type=Path)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    choices = workload.choose(rng)
    args.workdir.mkdir(parents=True, exist_ok=True)
    if args.trace:
        spans_path = TRACES / f"{workload.name}-seed{args.seed}.json"
        result = traced_run(workload, rng, args.workdir, choices, spans_path)
    else:
        result = timed_run(workload, rng, args.seconds, args.workdir, choices)
    result["env"] = environment()
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
