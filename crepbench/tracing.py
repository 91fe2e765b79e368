"""Per-layer tracing of crep from outside crep.

``Tracer.install`` replaces each traced public function of crep, under every
name that crep's modules bind it to (``crep.solve_synchronous_state``,
``crep.optimizer.solve_synchronous_state``, ...), with a wrapper that records
a span: name, start, end, parent and whether it raised.  Spans stay in memory
until ``layer_metrics`` reduces them.  A span's self time is its duration less
the part of it that its child spans cover.  A span opened on a worker thread
with no open span of its own (the kernel batches of ``estimate_hitting_time``)
takes as parent the span open on the thread that installed the tracer.

The kernel counts come from what ``simulate_chunk`` returns: a trajectory that
exits at step s integrated s steps, a censored one ``n_steps``.
"""
from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

import crep
import crep.network

#: span name -> (module, function) of each traced public function
TRACED = {
    "hitting": ("crep.hitting", "estimate_hitting_time"),
    "kernel": ("crep._kernels", "simulate_chunk"),
    "powerflow": ("crep.powerflow", "solve_synchronous_state"),
    "linearize.build": ("crep.linearize", "build_linearization"),
    "linearize.reduce": ("crep.linearize", "spectral_reduce"),
    "linearize.lyapunov": ("crep.linearize", "solve_lyapunov"),
    "escape.moments": ("crep.escape", "crep_from_moments"),
    "baselines.bundle": ("crep.baselines", "metrics_bundle"),
    "baselines.stability": ("crep.baselines", "linear_stability"),
    "optimizer.optimize": ("crep.optimizer", "optimize"),
    "optimizer.project": ("crep.optimizer", "project_to_budget_box"),
    "optimizer.apply": ("crep.optimizer", "apply_decision"),
}

#: per-layer metrics: (name, unit, better); every traced run prints all of them,
#: 0 for a layer the workload does not call.  Values are per round.
PER_LAYER = (
    ("hitting.calls", "count", "lower"),
    ("hitting.s", "s", "lower"),
    ("kernel.calls", "count", "lower"),
    ("kernel.busy_s", "s", "lower"),
    ("kernel.row_steps", "count", "lower"),
    ("kernel.loop_steps", "count", "lower"),
    ("kernel.rows_per_loop_step", "rows", "higher"),
    ("kernel.row_steps_per_s", "1/s", "higher"),
    ("powerflow.calls", "count", "lower"),
    ("powerflow.s", "s", "lower"),
    ("powerflow.fail_calls", "count", "lower"),
    ("powerflow.fail_s", "s", "lower"),
    ("linearize.calls", "count", "lower"),
    ("linearize.build_s", "s", "lower"),
    ("linearize.reduce_s", "s", "lower"),
    ("linearize.lyapunov_s", "s", "lower"),
    ("escape.moments_s", "s", "lower"),
    ("baselines.bundle_s", "s", "lower"),
    ("baselines.stability_s", "s", "lower"),
    ("optimizer.evaluations", "count", "lower"),
    ("optimizer.evals_per_s", "1/s", "higher"),
    ("optimizer.project_s", "s", "lower"),
    ("optimizer.apply_s", "s", "lower"),
    ("network.derive_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    raised: bool
    counts: dict


def _kernel_counts(args, kwargs, result) -> dict:
    """Integrated steps of one ``simulate_chunk`` batch, and of its longest row."""
    n_steps = kwargs["n_steps"] if "n_steps" in kwargs else args[4]
    steps = np.where(result[0] > 0, result[0], n_steps)
    return {"row_steps": int(steps.sum()), "loop_steps": int(steps.max(initial=0))}


def _evaluations(args, kwargs, result) -> dict:
    return {"evaluations": int(result.evaluations)}


COUNTERS = {"kernel": _kernel_counts, "optimizer.optimize": _evaluations}


class Tracer:
    """Wraps crep's traced functions while installed and keeps their spans."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self._home = threading.get_ident()
        self._undo: list[tuple[object, str, object]] = []

    def _open(self) -> tuple[int, int | None]:
        tid = threading.get_ident()
        with self._lock:
            sid = len(self.spans)
            self.spans.append(None)
            stack = self._stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                home = self._stacks.get(self._home)
                parent = home[-1] if home and tid != self._home else None
            stack.append(sid)
        return sid, parent

    def _close(self, sid: int, span: Span) -> None:
        with self._lock:
            self._stacks[threading.get_ident()].pop()
            self.spans[sid] = span

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = self._open()
            start = time.perf_counter()
            result, raised = None, True
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = time.perf_counter()
                counts = counter(args, kwargs, result) if counter and not raised else {}
                self._close(sid, Span(name, start, end, parent, raised, counts))

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == "crep" or key.startswith("crep.")]
        for name, (module, attr) in TRACED.items():
            fn = getattr(sys.modules[module], attr)
            traced = self._wrap(name, fn)
            for mod in modules:
                for bound, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, bound, traced)
        network = crep.network.Network
        self._patch(network, "with_arrays", self._wrap("network.derive", network.with_arrays))

    def write(self, path) -> None:
        """Write the spans as JSON, times in seconds from the first span's start."""
        origin = min((span.start for span in self.spans), default=0.0)
        rows = [
            [span.name, span.start - origin, span.end - origin, span.parent, span.raised]
            for span in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "raised"], "spans": rows},
                      handle)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def _covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of ``intervals`` inside [start, end]."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def layer_metrics(spans: list[Span], rounds: int) -> dict[str, float]:
    """Per-round per-layer metrics (all of PER_LAYER but trace.overhead_s)."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    calls = defaultdict(int)
    total = defaultdict(float)
    own = defaultdict(float)
    counts = defaultdict(int)
    for sid, span in enumerate(spans):
        duration = span.end - span.start
        calls[span.name] += 1
        total[span.name] += duration
        own[span.name] += duration - _covered(children[sid], span.start, span.end)
        if span.name == "powerflow" and span.raised:
            calls["powerflow.fail"] += 1
            total["powerflow.fail"] += duration
        for key, value in span.counts.items():
            counts[key] += value
    row_steps, loop_steps = counts["row_steps"], counts["loop_steps"]
    evaluations = counts["evaluations"]
    metrics = {
        "hitting.calls": calls["hitting"],
        "hitting.s": own["hitting"],
        "kernel.calls": calls["kernel"],
        "kernel.busy_s": total["kernel"],
        "kernel.row_steps": row_steps,
        "kernel.loop_steps": loop_steps,
        "powerflow.calls": calls["powerflow"],
        "powerflow.s": total["powerflow"],
        "powerflow.fail_calls": calls["powerflow.fail"],
        "powerflow.fail_s": total["powerflow.fail"],
        "linearize.calls": calls["linearize.build"],
        "linearize.build_s": own["linearize.build"],
        "linearize.reduce_s": own["linearize.reduce"],
        "linearize.lyapunov_s": own["linearize.lyapunov"],
        "escape.moments_s": own["escape.moments"],
        "baselines.bundle_s": own["baselines.bundle"],
        "baselines.stability_s": own["baselines.stability"],
        "optimizer.evaluations": evaluations,
        "optimizer.project_s": own["optimizer.project"],
        "optimizer.apply_s": own["optimizer.apply"],
        "network.derive_s": own["network.derive"],
    }
    metrics = {name: value / rounds for name, value in metrics.items()}
    metrics["kernel.rows_per_loop_step"] = row_steps / loop_steps if loop_steps else 0.0
    busy = total["kernel"]
    metrics["kernel.row_steps_per_s"] = row_steps / busy if busy else 0.0
    searching = total["optimizer.optimize"]
    metrics["optimizer.evals_per_s"] = evaluations / searching if searching else 0.0
    return metrics
