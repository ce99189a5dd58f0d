"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest bench -q
"""

import json
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import modtrace as mt  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


class PlanClock:
    """Records unit labels without running ops; runs only the group-level unit ops depend on."""

    def __init__(self):
        self.labels = []

    def run(self, kind, label, call, check):
        self.labels.append((kind, label))
        return call() if label.endswith(" groups") else None


def _plan(workload, seed, workdir):
    rng = random.Random(seed)
    state = workload.setup(workdir, workload.choose(rng))
    clock = PlanClock()
    workload.run_pass(state, rng, clock)
    return clock.labels


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_changes_order_not_count(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    first = _plan(workload, 1, tmp_path)
    second = _plan(workload, 2, tmp_path)
    assert len(first) == len(second)
    assert sorted(kind for kind, _ in first) == sorted(kind for kind, _ in second)
    assert first != second


def test_flipped_oracle_verdict_is_counted_in_fail_ratio(monkeypatch):
    original = mt.matched_vectg_oracle
    verdicts = []

    def flipped_once(table, H, kappa, *args, **kwargs):
        verdicts.append(original(table, H, kappa, *args, **kwargs))
        return not verdicts[-1] if len(verdicts) == 1 else verdicts[-1]

    monkeypatch.setattr(mt, "matched_vectg_oracle", flipped_once)
    clock = worker.Clock()
    workloads.CatalogSweep().run_pass([("Z2", mt.cyclic_table(2))], random.Random(0), clock)
    raw = worker._merge(clock)
    attempted, failed, correct, fail_ratio = run.tally(raw)
    # one group-level unit, one enumeration cross-check, 2 characters x 2 subgroups
    assert attempted == 6
    assert failed == 1 and not correct
    assert fail_ratio == pytest.approx(1 / 6)
    assert len(clock.latencies_ns) == 3


def test_traced_pass_restores_functions_and_accounts_self_time():
    original = mt.solve_module_trace
    recorder = tracing.Recorder()
    restore = tracing.install(recorder.wrapper)
    try:
        assert mt.solve_module_trace is not original
        clock = worker.Clock(recorder)
        workloads.CatalogSweep().run_pass([("Z3", mt.cyclic_table(3))], random.Random(0), clock)
    finally:
        restore()
    assert mt.solve_module_trace is original
    assert mt.cli.solve_module_trace is original
    spans = recorder.spans
    assert tracing.op_consistency(spans, tracing.self_times(spans)) == []
    metrics = tracing.layer_metrics(spans)
    assert metrics["solver.solve_module_trace.calls"] == 6  # 3 characters x 2 subgroups
    assert metrics["groups.subgroups.calls"] == 1
    assert metrics["chars.enumerate_characters.calls"] == 1


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile("catalog_sweep", 5_132) == 99.0
    assert run.tail_percentile("cli_session", 45) == 75.0
    assert run.tail_percentile("cli_session", 30) == 50.0
    assert set(run.TAIL_PERCENTILE) == set(run.WORKLOADS)


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER
