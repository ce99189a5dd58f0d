"""Spans around modtrace's public functions, recorded from outside the package.

Every public function defined in one of the layer modules is replaced, in
every ``modtrace`` namespace that binds it, by a wrapper that records a span:
its name (``<layer>.<function>``), start, end, parent span and op id.  Because
module code looks its globals up at call time, calls between modtrace
functions are recorded too, which is what gives each layer a self time.
Spans stay in memory until :func:`layer_metrics` turns them into numbers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
import tracemalloc

LAYERS = ("files", "fusion", "chars", "nimrep", "groups", "solver", "frobenius", "catalog", "cli")

# Called once per array entry or per nested list; a span per call would cost
# more than the work it measures.
PER_ELEMENT = {"files.round12", "files.round12_tree", "files.complex_pair"}

# Functions whose tracemalloc peak is reported as ``<name>.peak_mb``.  None of
# them calls another, so each peak is measured without nesting.
PEAK_TARGETS = (
    "fusion.validate_fusion_ring",
    "nimrep.validate_nimrep",
    "chars.enumerate_characters",
    "solver.solve_module_trace",
)


def _namespaces():
    modules = [importlib.import_module("modtrace")]
    modules += [importlib.import_module(f"modtrace.{layer}") for layer in LAYERS]
    return modules


def traced_functions() -> dict:
    """Map each traced span name to the function object it wraps."""
    found = {}
    for layer in LAYERS:
        module = importlib.import_module(f"modtrace.{layer}")
        for attr, value in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(value):
                continue
            if value.__module__ != module.__name__:
                continue
            name = f"{layer}.{attr}"
            if name not in PER_ELEMENT:
                found[name] = value
    return found


def install(make_wrapper, names=None):
    """Rebind the chosen functions everywhere in ``modtrace``; returns an undo callable.

    ``make_wrapper(name, fn)`` builds the replacement for one function.  The
    ``content_hash`` method of ``FusionRing`` is wrapped on the class as
    ``fusion.content_hash``.
    """
    from modtrace.fusion import FusionRing

    functions = traced_functions()
    if names is not None:
        functions = {n: f for n, f in functions.items() if n in names}
    wrapped = {id(fn): make_wrapper(name, fn) for name, fn in functions.items()}
    undo = []
    for module in _namespaces():
        for attr, value in list(vars(module).items()):
            replacement = wrapped.get(id(value)) if inspect.isfunction(value) else None
            if replacement is not None:
                setattr(module, attr, replacement)
                undo.append((module, attr, value))
    if names is None or "fusion.content_hash" in names:
        original = FusionRing.content_hash
        FusionRing.content_hash = make_wrapper("fusion.content_hash", original)
        undo.append((FusionRing, "content_hash", original))

    def restore():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return restore


# One span: a list of these fields; ``parent`` is the parent span's index.
SPAN_FIELDS = ("name", "start_ns", "end_ns", "parent", "op", "note")


class Recorder:
    """Span store for one traced run; ``active`` is off while oracles run."""

    def __init__(self):
        self.spans = []  # lists laid out as SPAN_FIELDS
        self.stack = []
        self.op_id = None
        self.active = False

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.op_id, None])
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self.stack.pop()

    def wrapper(self, name, fn):
        note = _NOTES.get(name)
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not recorder.active:
                return fn(*args, **kwargs)
            index = recorder.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.close(index)
            if note is not None:
                recorder.spans[index][5] = note(args, result)
            return result

        return traced


def _bytes_read(args, result):
    return os.path.getsize(args[0])


# Counts taken at the boundary, from each call's arguments and result.
_NOTES = {
    "files.load_ring": _bytes_read,
    "files.load_char": _bytes_read,
    "files.load_module": _bytes_read,
    "files.load_group": _bytes_read,
    "chars.enumerate_characters": lambda args, result: (len(result), args[0].rank),
    "groups.subgroups": lambda args, result: len(result),
    "solver.solve_module_trace": lambda args, result: bool(result.matched),
}


class PeakRecorder:
    """Largest tracemalloc peak above the pre-call level, per function, in bytes."""

    def __init__(self):
        self.peaks = {}

    def wrapper(self, name, fn):
        peaks = self.peaks

        @functools.wraps(fn)
        def measured(*args, **kwargs):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] - before
                peaks[name] = max(peaks.get(name, 0), peak)

        return measured


def self_times(spans) -> list[int]:
    """Each span's duration minus the time its direct children cover, in ns."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def files_entry(spans, index: int) -> str:
    """The outermost ``files.*`` span in the unbroken chain of files spans above one."""
    name = spans[index][0]
    parent = spans[index][3]
    while parent is not None and spans[parent][0].startswith("files."):
        index, parent = parent, spans[parent][3]
        name = spans[index][0]
    return name


def op_consistency(spans, own) -> list[str]:
    """Ops whose child spans' self times add up to more than the op's duration."""
    children = {}
    roots = {}
    for index, (name, start, end, parent, op, _) in enumerate(spans):
        if parent is None and name.startswith("op:"):
            roots[op] = end - start
        elif op is not None:
            children[op] = children.get(op, 0) + own[index]
    bad = []
    for op, total in children.items():
        if op not in roots or total > roots[op]:
            bad.append(f"op {op}: child self time {total} ns > duration {roots.get(op)} ns")
    bad += [f"span {spans[i][0]} has negative self time" for i, t in enumerate(own) if t < 0]
    return bad


def layer_metrics(spans) -> dict:
    """``<span>.calls`` and ``<span>.self_ms`` for every function called, plus layer counts and ratios."""
    own = self_times(spans)
    calls = {}
    self_ns = {}
    notes = {}
    load_ns = save_ns = 0
    load_calls = 0
    for index, span in enumerate(spans):
        name = span[0]
        if name.startswith("op:"):
            continue
        calls[name] = calls.get(name, 0) + 1
        self_ns[name] = self_ns.get(name, 0) + own[index]
        if span[5] is not None:
            notes.setdefault(name, []).append(span[5])
        if name.startswith("files."):
            entry = files_entry(spans, index)
            if entry.startswith("files.load_"):
                load_ns += own[index]
                load_calls += name == entry
            elif entry.startswith("files.save_"):
                save_ns += own[index]

    metrics = {f"{name}.calls": count for name, count in calls.items()}
    metrics.update({f"{name}.self_ms": ns / 1e6 for name, ns in self_ns.items()})
    enum = notes.get("chars.enumerate_characters", [])
    solved = notes.get("solver.solve_module_trace", [])
    metrics.update({
        "files.load.calls": load_calls,
        "files.load.self_ms": load_ns / 1e6,
        "files.save.self_ms": save_ns / 1e6,
        "files.bytes_read": sum(sum(v) for k, v in notes.items() if k.startswith("files.load_")),
        "chars.kept_ratio": _ratio(sum(k for k, _ in enum), sum(r for _, r in enum)),
        "groups.subgroup_count": sum(notes.get("groups.subgroups", [])),
        "solver.matched_ratio": _ratio(sum(solved), len(solved)),
    })
    return metrics


def _ratio(part, whole) -> float:
    return part / whole if whole else 0.0
