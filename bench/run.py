#!/usr/bin/env python3
"""Benchmark of the granscale sweep path.

    python3 bench/run.py --workload kmeans-strong --seed 1 --seconds 50 --trace 0

Runs the workload's fixed plan through `harness.run_plan` with a results
file and a records file, again and again for --seconds, then reads the
files back the way a user would. It checks the outputs, prints every
metric with its unit and sample count, and ends with one JSON line:
`{"correct", "attempted", "failed", "metrics"}`. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 they are the per-layer
ones from a run that alternates traced and untraced sweeps. See
bench/README.md for the metrics and the layer each one loads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import plans
import tracing

#: Timed set-ups per run, each in a fresh interpreter, after one untimed one.
#: One follows each sweep, so they sample the host over the whole run.
SETUP_PROBES = 9
#: Sweeps per run however short --seconds is: a traced run needs one traced
#: and one untraced sweep.
MIN_SWEEPS = 2
#: Read-backs per untraced sweep: at least this many, and until this much
#: time is spent (a read-back takes a few ms).
MIN_READBACKS = 2
POST_BUDGET_S = 0.25
PROBE_TIMEOUT_S = 60

END_TO_END = {
    "setup_s": "s",
    "sweep_s": "s",
    "cpu_s": "s",
    "estimate_ms": "ms",
    "post_s": "s",
    "peak_rss_mb": "MB",
}


PER_LAYER = {
    "measurement.record_span_ns": "ns",
    "measurement.finish_ms": "ms",
    "measurement.aggregate_ms": "ms",
    "measurement.to_json_ms": "ms",
    "measurement.from_json_ms": "ms",
    "measurement.spans": "count",
    "measurement.records_mb": "MB",
    "kmeans.generate_dataset_ms": "ms",
    "kmeans.generate_dataset_calls": "count",
    "kmeans.assign_ms.p1": "ms",
    "kmeans.assign_ms.p2": "ms",
    "kmeans.partial_sums_ms.p1": "ms",
    "kmeans.partial_sums_ms.p2": "ms",
    "kmeans.update_ms.p1": "ms",
    "kmeans.update_ms.p2": "ms",
    "kmeans.assign_gflops": "GFLOP/s",
    "pi.sample_ms.p1": "ms",
    "pi.sample_ms.p2": "ms",
    "pi.msamples_per_core_s": "Msample/s",
    "pool.overhead_ms.p2": "ms",
    "pool.sync_us_per_iter": "us",
    "pool.contention": "ratio",
    "harness.runs": "count",
    "harness.runs_rejected": "count",
    "harness.useful_ratio": "ratio",
    "harness.warmup_s": "s",
    "harness.self_s": "s",
    "harness.load_results_ms": "ms",
    "stats.filter_outliers_us": "us",
    "metrics.granularity_metrics_us": "us",
    "report.render_ms": "ms",
    "accuracy.rel_error.p2": "ratio",
    "trace.overhead_ms": "ms",
}


@dataclass
class RunRow:
    """One kept run, as read back from the records file."""

    workers: int
    size: int
    iterations: int
    wall: float
    comp: float
    spans: int
    incomplete: bool
    phases: dict = field(default_factory=dict)


@dataclass
class Sweep:
    sweep_s: float
    cpu_s: float
    post_s: list
    rows: list
    cells: list
    records_bytes: int
    layers: Optional[dict] = None


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


#: Metrics summarised by another statistic than the median of the run's
#: samples. A read-back is pure Python and lasts a few ms, so the run holds
#: hundreds of them; their median follows the shared host's drift, and the
#: fastest ("best of N", as timeit reports it) is the steadiest. See README.md.
SUMMARY = {"post_s": min}


def summary(name: str, values: list) -> float:
    return SUMMARY.get(name, median)(values) if values else 0.0


def spread(values) -> tuple[float, float]:
    values = list(values)
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


class Checks:
    """Output checks; failed / attempted is the benchmark's failed fraction."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


class Bench:
    def __init__(self, plan, out_dir: Path, checks: Checks):
        self.plan = plan
        self.out_dir = out_dir
        self.checks = checks

    def sweep(self, index: int, tracer: Optional[tracing.Tracer]) -> Optional[Sweep]:
        from granscale.harness import CellExecutionError, load_results, run_plan

        results_path = self.out_dir / f"results-{index}.jsonl"
        records_path = self.out_dir / f"records-{index}.jsonl"
        span = tracer.span if tracer else (lambda name: nullcontext())
        first_span = len(tracer.spans) if tracer else 0
        try:
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                with span("harness.run_plan"):
                    run_plan(self.plan, out_path=results_path, records_path=records_path)
            except CellExecutionError as exc:
                self.checks.expect(False, f"sweep {index}: {exc!r}")
                return None
            sweep_s, cpu_s = time.perf_counter() - t0, time.process_time() - c0
            self.checks.expect(True, f"sweep {index} raised no CellExecutionError")

            # A traced sweep reads back once, so its spans count one read-back.
            post_s = []
            while not post_s or (tracer is None and (len(post_s) < MIN_READBACKS
                                                     or sum(post_s) < POST_BUDGET_S)):
                t0 = time.perf_counter()
                with span("harness.load_results"):
                    results = load_results(results_path)
                with span("report.render"):
                    render(results)
                with span("post.records"):
                    rows = self.read_rows(records_path, phases=tracer is not None)
                post_s.append(time.perf_counter() - t0)

            self.check_cells(results.cells, index)
            for row in rows:
                self.checks.expect(not row.incomplete,
                                   f"sweep {index}: a p={row.workers} record is flagged "
                                   f"'incomplete worker coverage'")
            records_bytes = records_path.stat().st_size
            sample = Sweep(sweep_s, cpu_s, post_s, rows, results.cells, records_bytes)
            if tracer is not None:
                sample.layers = tracing.sweep_layers(tracer.spans[first_span:])
            return sample
        except Exception as exc:  # noqa: BLE001 - the run goes on; the check fails
            traceback.print_exc()
            self.checks.expect(False, f"sweep {index}: {exc!r}")
            return None
        finally:
            results_path.unlink(missing_ok=True)
            records_path.unlink(missing_ok=True)

    def read_rows(self, path: Path, phases: bool) -> list[RunRow]:
        """Parse and aggregate every record, as a user reading the records file does."""
        from granscale import measurement

        rows = []
        with path.open() as f:
            for line in f:
                rec = measurement.RunRecord.from_json(line)
                breakdown = measurement.aggregate(rec)
                row = RunRow(rec.workers, rec.problem_size, rec.iterations, rec.wall_clock,
                             breakdown.total_comp, len(rec.spans),
                             measurement.INCOMPLETE_COVERAGE in rec.flags)
                if phases:
                    for s in rec.spans:
                        row.phases[s.phase_label] = row.phases.get(s.phase_label, 0.0) + s.duration
                rows.append(row)
        return rows

    def check_cells(self, cells, index: int) -> None:
        """E = G/(G+1) = sum(C)/(p*T) in every cell, to 1e-12.

        A clamped overhead or one below the timer floor gives G = inf, and
        then E is exactly 1 while sum(C)/(p*T) may differ from it slightly.
        """
        for cell in cells:
            m = cell.metrics
            if m.overhead_clamped or math.isinf(m.granularity):
                self.checks.expect(m.efficiency == 1.0,
                                   f"sweep {index} cell p={cell.workers}: G=inf or overhead "
                                   f"clamped, but E={m.efficiency!r}")
                continue
            from_g = m.granularity / (m.granularity + 1.0)
            from_c = cell.mean_total_comp / (cell.workers * cell.mean_wall)
            self.checks.expect(
                abs(m.efficiency - from_g) <= 1e-12 and abs(m.efficiency - from_c) <= 1e-12,
                f"sweep {index} cell p={cell.workers}: E={m.efficiency!r}, "
                f"G/(G+1)={from_g!r}, C/(pT)={from_c!r}",
            )

    def check_invariants(self) -> None:
        """Checks on the kernels' outputs, once per run."""
        import numpy as np
        from granscale import (begin_run, generate_dataset, kmeans_parallel, kmeans_serial,
                               monte_carlo_pi)

        spec = self.plan.workload
        kind = self.plan.workload_id
        if kind == "kmeans":
            data = generate_dataset(spec)
            parallel, _, _ = kmeans_parallel(spec, data, 1,
                                             begin_run("kmeans", 1, spec.n_points, spec.seed))
            serial, _, _ = kmeans_serial(spec, data)
            self.checks.expect(
                parallel.dtype == serial.dtype and parallel.tobytes() == serial.tobytes()
                and bool(np.isfinite(serial).all()),
                "kmeans centroids at p=1 are not bit-identical to kmeans_serial",
            )
        elif kind == "pi":
            estimates = {
                p: monte_carlo_pi(spec, p, begin_run("pi", p, spec.n_samples, spec.seed))[0]
                for p in self.plan.worker_counts
            }
            values = set(estimates.values())
            self.checks.expect(
                len(values) == 1 and abs(values.pop() - math.pi) < 1e-2,
                f"pi estimate differs across worker counts or from pi: {estimates}",
            )


def render(results) -> str:
    """The report a user renders after a sweep."""
    from granscale.report import scalability_verdict, strong_scaling_csv, weak_scaling_tables

    if results.mode == "strong":
        text = strong_scaling_csv(results)
    else:
        text = "".join(weak_scaling_tables(results))
    return text + scalability_verdict(results)


def end_to_end(bench: Bench, sweeps: list[Sweep], setups: list[float], rss_mb: float) -> dict:
    max_p = max(bench.plan.worker_counts)
    return {
        "setup_s": setups,
        "sweep_s": [s.sweep_s for s in sweeps],
        "cpu_s": [s.cpu_s for s in sweeps],
        "estimate_ms": [r.wall * 1e3 for s in sweeps for r in s.rows if r.workers == max_p],
        "post_s": [t for s in sweeps for t in s.post_s],
        "peak_rss_mb": [rss_mb],
    }


def per_layer(bench: Bench, traced: list[Sweep], untraced: list[Sweep]) -> dict:
    plan = bench.plan
    kind = plan.workload_id
    rows = [r for s in traced for r in s.rows]

    def at(p):
        return [r for r in rows if r.workers == p]

    def phase_ms(wanted_kind, phase, p):
        if kind != wanted_kind:
            return [0.0]
        return [r.phases.get(phase, 0.0) * 1e3 for r in at(p)]

    values = {name: [s.layers[name] for s in traced] for name in traced[0].layers}
    values["measurement.record_span_ns"] = [tracing.record_span_ns()]
    values["measurement.spans"] = [sum(r.spans for r in s.rows) for s in traced]
    values["measurement.records_mb"] = [s.records_bytes / 1e6 for s in traced]
    for phase in ("assign", "partial_sums", "update"):
        for p in (1, 2):
            values[f"kmeans.{phase}_ms.p{p}"] = phase_ms("kmeans", phase, p)
    values["kmeans.assign_gflops"] = [
        3 * r.size * plan.workload.n_clusters * plan.workload.dims * (r.iterations + 1)
        / r.phases["assign"] / 1e9
        for r in at(1)
    ] if kind == "kmeans" else [0.0]
    for p in (1, 2):
        values[f"pi.sample_ms.p{p}"] = phase_ms("pi", "sample", p)
    values["pi.msamples_per_core_s"] = (
        [r.size / r.comp / 1e6 for r in rows] if kind == "pi" else [0.0]
    )
    values["pool.overhead_ms.p2"] = [(2 * r.wall - r.comp) * 1e3 for r in at(2)]
    values["pool.sync_us_per_iter"] = [(2 * r.wall - r.comp) / (2 * r.iterations) * 1e6
                                       for r in at(2)]
    per_work = {p: median(r.comp / r.size for r in at(p)) for p in (1, 2)}
    values["pool.contention"] = [per_work[2] / per_work[1] if per_work[1] else 0.0]
    values["accuracy.rel_error.p2"] = [abs(c.relative_error) for s in traced for c in s.cells
                                       if c.workers == 2]
    values["trace.overhead_ms"] = [
        (median(s.sweep_s for s in traced) - median(s.sweep_s for s in untraced)) * 1e3
    ]
    return {name: values[name] for name in PER_LAYER}


def time_setup(args) -> float:
    """Seconds from interpreter start to a ready plan, in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=plans.ROOT) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if line.strip() != "ready" or code != 0:
        raise plans.SetupError(f"set-up probe exited {code} after printing {line!r}")
    return elapsed


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(plans.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def report_line(name: str, unit: str, values: list) -> str:
    q1, q3 = spread(values)
    stat = SUMMARY.get(name, median).__name__
    line = (f"  {name:34s} {summary(name, values):14.6g} {unit:10s} "
            f"{stat} of n={len(values):<4d} q1={q1:.6g} q3={q3:.6g}")
    if len(values) >= 100:  # ten samples or more lie beyond the 90th percentile
        line += f" p90={statistics.quantiles(values, n=10)[-1]:.6g}"
    return line


def main(argv=None) -> int:
    args = parse_args(argv)
    # run_plan silently replaces the plan seed with this variable.
    if os.environ.pop("GRANSCALE_SEED", None) is not None:
        print("note: GRANSCALE_SEED cleared; the seed is --seed", file=sys.stderr)
    try:
        plan, out_dir = plans.setup(args.workload, args.seed)
    except plans.SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        return measure(args, plan, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def measure(args, plan, out_dir: Path) -> int:
    host = plans.host_block(max(plan.worker_counts))
    # Set-up is an end-to-end metric; a traced run spends no time on it.
    probes = SETUP_PROBES if args.trace == 0 else 0
    if probes:
        time_setup(args)  # untimed: fills the file cache and writes bytecode
    setups: list[float] = []
    checks = Checks()
    bench = Bench(plan, out_dir, checks)
    tracer = tracing.Tracer() if args.trace else None

    # The first sweep of a process is slower (lazy imports, allocator, caches):
    # it is checked but not timed.
    bench.sweep(-1, None)
    sweeps: list[Sweep] = []
    untraced: list[Sweep] = []
    start = time.perf_counter()
    probing = 0.0  # set-up probes do not count against --seconds
    index = 0
    while True:
        began = time.perf_counter()
        traced = tracer is not None and index % 2 == 0
        with tracer.installed() if traced else nullcontext():
            sample = bench.sweep(index, tracer if traced else None)
        if sample is not None:
            (sweeps if traced or tracer is None else untraced).append(sample)
        index += 1
        now = time.perf_counter()
        done = index >= MIN_SWEEPS and (now - start - probing) + 0.5 * (now - began) >= args.seconds
        if len(setups) < probes:
            setups.append(time_setup(args))
            probing += time.perf_counter() - now
        if done:
            break
    while len(setups) < probes:
        setups.append(time_setup(args))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    bench.check_invariants()

    ok = bool(sweeps) and (tracer is None or bool(untraced))
    if tracer is None:
        values = end_to_end(bench, sweeps, setups, rss_mb) if ok else {}
        units = END_TO_END
    else:
        values = per_layer(bench, sweeps, untraced) if ok else {}
        units = PER_LAYER

    print("host " + json.dumps(host))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(sweeps) + len(untraced)} sweeps in {time.perf_counter() - start:.1f} s")
    for name, unit in units.items():
        print(report_line(name, unit, values.get(name, [])))
    failed = len(checks.failures)
    print(f"  {'failed_frac':34s} {failed / checks.attempted:14.6g} "
          f"{'ratio':10s} ({failed} of {checks.attempted} checks)")
    for what in checks.failures:
        print(f"  FAILED: {what}")

    metrics = {name: {"value": summary(name, values.get(name, [])), "unit": unit}
               for name, unit in units.items()}
    result = {"correct": ok and not failed, "attempted": checks.attempted,
              "failed": failed, "metrics": metrics}
    saved = {"host": host, "args": vars(args), "samples": values, **result,
             "failures": checks.failures, "spans": tracer.spans if tracer else []}
    (plans.OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(saved))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
