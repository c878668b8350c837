"""Spans around the calls the sweep path makes into each granscale layer.

The tracer replaces public functions where their callers look them up (the
harness imports the workload entry points into its own namespace, so the
wrappers go there) and restores them afterwards. Each span records its
name, start, end and parent; spans stay in memory until the benchmark
writes them out. `RunHandle.record_span` is not wrapped: a run calls it
once per worker and phase of every iteration, so its cost is measured by a
separate loop.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import threading
import time
from contextlib import contextmanager

#: Calls into the workload layers; each opens one instrumented run.
RUN_SPANS = ("kmeans.kmeans_parallel", "montecarlo.monte_carlo_pi")


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple] = []

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        rec = {"id": next(self._ids), "name": name, "parent": stack[-1] if stack else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        stack.append(rec["id"])
        try:
            yield rec
        finally:
            stack.pop()
            rec["end"] = time.perf_counter()

    def wrap(self, owner, attr: str, name: str, describe=None) -> None:
        """Replace owner.attr by a spanning wrapper; `describe(args, result)` adds attributes."""
        raw = vars(owner)[attr]
        is_classmethod = isinstance(raw, classmethod)
        func = raw.__func__ if is_classmethod else raw

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                result = func(*args, **kwargs)
                if describe is not None:
                    rec.update(describe(args, result))
                return result

        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self._patches.append((owner, attr, raw))

    def restore(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    @contextmanager
    def installed(self):
        """Wrap the sweep path's layer entry points for the duration of the block."""
        from granscale import harness, measurement, stats

        def run_key(args, _result):
            handle = args[-1]  # every workload entry point takes the RunHandle last
            return {"workers": handle.workers, "size": handle.problem_size}

        def rejected(_args, decision):
            return {"rejected": len(decision.rejected)}

        try:
            self.wrap(harness, "generate_dataset", "kmeans.generate_dataset")
            self.wrap(harness, "kmeans_parallel", "kmeans.kmeans_parallel", run_key)
            self.wrap(harness, "monte_carlo_pi", "montecarlo.monte_carlo_pi", run_key)
            self.wrap(harness, "aggregate", "measurement.aggregate")
            self.wrap(harness, "granularity_metrics", "metrics.granularity_metrics")
            self.wrap(stats, "filter_outliers", "stats.filter_outliers", rejected)
            self.wrap(measurement, "aggregate", "measurement.aggregate")
            self.wrap(measurement.RunHandle, "finish", "measurement.finish")
            self.wrap(measurement.RunRecord, "to_json", "measurement.to_json")
            self.wrap(measurement.RunRecord, "from_json", "measurement.from_json")
            yield self
        finally:
            self.restore()


def self_time(span: dict, spans: list[dict]) -> float:
    """Duration of a span minus the part of its interval its children cover."""
    covered = sum(
        min(c["end"], span["end"]) - max(c["start"], span["start"])
        for c in spans
        if c["parent"] == span["id"]
    )
    return (span["end"] - span["start"]) - covered


def sweep_layers(spans: list[dict]) -> dict:
    """Per-layer figures of one traced sweep and its read-back.

    `spans` holds exactly the spans of that sweep; the root is the
    `harness.run_plan` span the benchmark opens around `run_plan`.
    """
    def total(name: str) -> float:
        return sum(s["end"] - s["start"] for s in spans if s["name"] == name)

    def only(name: str) -> float:
        return next((s["end"] - s["start"] for s in spans if s["name"] == name), 0.0)

    root = next(s for s in spans if s["name"] == "harness.run_plan")
    runs = [s for s in spans if s["name"] in RUN_SPANS]
    # The harness opens every cell, lazily measured baselines included, with
    # one untimed warm-up; it is the first run of each (workers, size) block.
    warmup_s, previous = 0.0, None
    for s in runs:
        key = (s["workers"], s["size"])
        if key != previous:
            warmup_s += s["end"] - s["start"]
        previous = key
    kept = sum(
        1 for s in spans if s["name"] == "measurement.aggregate" and s["parent"] == root["id"]
    )
    return {
        "harness.runs": len(runs),
        "harness.runs_rejected": sum(
            s["rejected"] for s in spans if s["name"] == "stats.filter_outliers"
        ),
        "harness.useful_ratio": kept / len(runs) if runs else 0.0,
        "harness.warmup_s": warmup_s,
        "harness.self_s": self_time(root, spans),
        "harness.load_results_ms": only("harness.load_results") * 1e3,
        "kmeans.generate_dataset_ms": total("kmeans.generate_dataset") * 1e3,
        "kmeans.generate_dataset_calls": sum(
            1 for s in spans if s["name"] == "kmeans.generate_dataset"
        ),
        "measurement.finish_ms": total("measurement.finish") * 1e3,
        "measurement.aggregate_ms": total("measurement.aggregate") * 1e3,
        "measurement.to_json_ms": total("measurement.to_json") * 1e3,
        "measurement.from_json_ms": total("measurement.from_json") * 1e3,
        "stats.filter_outliers_us": total("stats.filter_outliers") * 1e6,
        "metrics.granularity_metrics_us": total("metrics.granularity_metrics") * 1e6,
        "report.render_ms": only("report.render") * 1e3,
    }


def record_span_ns(repeats: int = 5, calls: int = 50_000) -> float:
    """Median per-call cost of `RunHandle.record_span`, by a loop outside any sweep."""
    from granscale.measurement import begin_run

    costs = []
    for _ in range(repeats):
        handle = begin_run("synthetic", 8, 1, 0)
        record = handle.record_span
        t0 = time.perf_counter()
        for i in range(calls):
            record(i & 7, 0.005, "busy")
        costs.append((time.perf_counter() - t0) / calls * 1e9)
    return statistics.median(costs)
