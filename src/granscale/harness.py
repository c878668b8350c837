"""Experiment planner and runner.

Expands a strong- or weak-scaling plan into (workers, problem_size) cells,
executes each cell serially (never two at once) with one untimed warm-up
run plus the configured repetitions, applies outlier rejection once to the
wall-clock series (runs are kept or dropped atomically), derives the
granularity metrics from the mean timing breakdown, and persists one result
line per cell so an interrupted sweep can resume. Resume cuts the results
file and the optional records file by one rule: the completed cells' complete
lines stay, every byte after them goes.

Every problem size gets a p=1 cell, its serial baseline: the same parallel
code at one worker under the identical protocol, persisted and resumed like
any other cell. Outliers are rejected by the two-sided Tukey rule; a
rejected run is counted, not measured again, so a cell makes exactly
1 + repetitions runs and keeps repetitions - rejected of them.

A k-means cell builds its problem instance (the dataset, and through its
seed the initial centroids) once, before its warm-up, from (plan seed, size)
alone, and frees it when the cell ends. So every run of a size, at every
worker count, solves the same instance and repeated runs differ only in
timing. pi and synthetic runs each take their own seed, from (plan seed,
workers, size, repetition), with repetition 0 for the warm-up.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import itertools
import json
import logging
import math
import os
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from . import __version__, stats
from .measurement import SEED_MASK, RunHandle, RunRecord, _check_types, aggregate, begin_run
from .metrics import GranularityMetrics, TimingBreakdown, granularity_metrics, relative_error
from .workloads import (
    KMeansSpec,
    PiSpec,
    SyntheticSpec,
    generate_dataset,
    kmeans_parallel,
    monte_carlo_pi,
    synthetic_run,
)
from .workloads._pool import allowed_cpus

log = logging.getLogger("granscale")

WorkloadSpec = Union[KMeansSpec, PiSpec, SyntheticSpec]


class _Workload(NamedTuple):
    kind: str
    # cell(spec, workers, size, plan seed) runs once per cell, before its
    # warm-up: it builds what the cell's runs share and returns run(rep), which
    # makes the cell's run number rep (0 is the warm-up) and returns its record.
    cell: Callable[[WorkloadSpec, int, int, int], Callable[[int], RunRecord]]


# The runners look the kernels up as module globals at call time, so
# wrappers installed on this module (bench/tracing.py, tests) see every call.
def _open_run(spec: WorkloadSpec, workers: int, size: int, seed: int) -> RunHandle:
    return begin_run(_WORKLOADS[type(spec)].kind, workers, size, seed)


def _kmeans_cell(wl: KMeansSpec, workers: int, size: int, plan_seed: int):
    # One problem instance per cell: the dataset, and through the seed the
    # initial centroids. Every run of the cell, the warm-up included,
    # solves it, and so does every other cell of the size.
    spec = replace(wl, n_points=size, seed=_instance_seed(plan_seed, size))
    data = generate_dataset(spec)  # untimed: built before the warm-up opens
    return lambda rep: kmeans_parallel(spec, data, workers,
                                       _open_run(spec, workers, size, spec.seed))[2]


def _pi_cell(wl: PiSpec, workers: int, size: int, plan_seed: int):
    def run(rep: int) -> RunRecord:
        spec = replace(wl, n_samples=size, seed=_run_seed(plan_seed, workers, size, rep))
        return monte_carlo_pi(spec, workers, _open_run(spec, workers, size, spec.seed))[1]
    return run


def _synthetic_cell(wl: SyntheticSpec, workers: int, size: int, plan_seed: int):
    # Synthetic has no data size; the problem-size axis scales its iterations.
    spec = replace(wl, iterations=size)
    return lambda rep: synthetic_run(spec, workers, _open_run(
        spec, workers, size, _run_seed(plan_seed, workers, size, rep)))


_WORKLOADS = {
    KMeansSpec: _Workload("kmeans", _kmeans_cell),
    PiSpec: _Workload("pi", _pi_cell),
    SyntheticSpec: _Workload("synthetic", _synthetic_cell),
}


class CellExecutionError(RuntimeError):
    """A workload failed inside one cell; carries the cell identity."""

    def __init__(self, cell_key, cause):
        super().__init__(f"cell {cell_key} failed: {cause}")
        self.cell_key = cell_key
        self.__cause__ = cause


@dataclass(frozen=True)
class ExperimentPlan:
    workload: WorkloadSpec
    mode: str  # "strong" | "weak"
    worker_counts: tuple[int, ...]
    base_problem_size: int
    problem_sizes: Optional[tuple[int, ...]] = None
    repetitions: int = 10
    seed: int = 0

    def __post_init__(self):
        _check_types(self)
        if self.mode not in ("strong", "weak"):
            raise ValueError(f"mode must be 'strong' or 'weak', got {self.mode}")
        if not self.worker_counts:
            raise ValueError("worker_counts must be nonempty")
        if list(self.worker_counts) != sorted(set(self.worker_counts)):
            raise ValueError("worker_counts must be strictly ascending")
        if any(p < 1 for p in self.worker_counts):
            raise ValueError("worker counts must be positive")
        if self.base_problem_size < 1:
            raise ValueError("base_problem_size must be >= 1")
        if self.mode == "weak" and self.base_problem_size % self.worker_counts[0]:
            raise ValueError(
                f"weak scaling needs base_problem_size divisible by the smallest "
                f"worker count ({self.base_problem_size} % {self.worker_counts[0]} != 0)"
            )
        if self.problem_sizes is not None and any(s < 1 for s in self.problem_sizes):
            raise ValueError("problem sizes must be positive")
        if self.problem_sizes and len(set(self.problem_sizes)) < len(self.problem_sizes):
            raise ValueError(f"problem sizes must be distinct, got {list(self.problem_sizes)}")
        if self.mode == "weak" and self.problem_sizes:
            raise ValueError("a weak plan takes no problem_sizes; its sizes follow base_problem_size")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        object.__setattr__(self, "worker_counts", tuple(self.worker_counts))
        if self.problem_sizes is not None:
            object.__setattr__(self, "problem_sizes", tuple(self.problem_sizes))

    @property
    def workload_id(self) -> str:
        return _WORKLOADS[type(self.workload)].kind

    def to_dict(self) -> dict:
        obj = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        obj["workload"] = {"kind": self.workload_id, **dataclasses.asdict(self.workload)}
        obj["worker_counts"] = list(self.worker_counts)
        obj["problem_sizes"] = list(self.problem_sizes) if self.problem_sizes else None
        return obj

    @classmethod
    def from_dict(cls, obj: dict) -> "ExperimentPlan":
        """Inverse of to_dict; absent fields take their defaults, unknown keys are ignored.

        A removed key, now a fixed part of the protocol, loads only at its fixed value.
        """
        for key, fixed in {"measure_serial_baseline": True, "rerun_outliers": True,
                           "outlier_side": "both"}.items():
            if key in obj and json.dumps(obj[key]) != json.dumps(fixed):
                raise ValueError(f"{key} was removed: it may only be {json.dumps(fixed)}")
        wl = dict(obj["workload"])
        kind = wl.pop("kind")
        spec_cls = next((c for c, w in _WORKLOADS.items() if w.kind == kind), None)
        if spec_cls is None:
            raise ValueError(f"unknown workload kind {kind!r}")
        names = {f.name for f in dataclasses.fields(cls)}
        kwargs = {k: v for k, v in obj.items() if k in names}
        kwargs["workload"] = spec_cls(**wl)
        kwargs["problem_sizes"] = kwargs.get("problem_sizes") or None
        return cls(**kwargs)


def _digest(plan_obj) -> str:
    """sha256 of a plan's canonical JSON: the plan_hash of a header's plan."""
    canonical = json.dumps(plan_obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _plan_cells(plan: ExperimentPlan) -> list[tuple[int, int]]:
    """The plan's (workers, problem_size) cells and each size's p=1 baseline, sorted."""
    if plan.mode == "strong":
        sizes = plan.problem_sizes or (plan.base_problem_size,)
        cells = {(p, s) for p in plan.worker_counts for s in sizes}
    else:
        per_worker = plan.base_problem_size // plan.worker_counts[0]
        cells = {(p, per_worker * p) for p in plan.worker_counts}
    return sorted(cells | {(1, s) for _, s in cells})


@dataclass(frozen=True)
class CellResult:
    workload_id: str
    workers: int
    problem_size: int
    mean_wall: float
    mean_total_comp: float
    metrics: GranularityMetrics
    kept: int
    rejected: int
    actual_speedup: Optional[float] = None
    relative_error: Optional[float] = None

    def __post_init__(self):
        _check_types(self)
        _check_types(self.metrics)
        if not (min(self.workers, self.problem_size, self.kept) >= 1 and self.rejected >= 0
                and 0 < self.mean_wall < math.inf and 0 <= self.mean_total_comp < math.inf):
            raise ValueError(
                f"workers, problem_size and kept must be >= 1, rejected >= 0, mean_wall "
                f"finite and > 0 and mean_total_comp finite and >= 0, got {self.workers}, "
                f"{self.problem_size}, {self.kept}, {self.rejected}, {self.mean_wall!r} "
                f"and {self.mean_total_comp!r}")
        m, measured = self.metrics, (self.actual_speedup, self.relative_error)
        if not (0 <= m.overhead < math.inf and 0 <= m.estimated_speedup < math.inf
                and m.granularity >= 0 and 0 <= m.efficiency <= 1
                and all(-math.inf < x < math.inf for x in measured if x is not None)):
            raise ValueError(
                f"overhead and estimated_speedup must be finite and >= 0, granularity >= 0, "
                f"efficiency in [0, 1] and actual_speedup and relative_error finite or null, "
                f"got {m.overhead!r}, {m.estimated_speedup!r}, {m.granularity!r}, "
                f"{m.efficiency!r}, {self.actual_speedup!r} and {self.relative_error!r}")

    @property
    def cell_key(self) -> tuple:
        return (self.workload_id, self.workers, self.problem_size)

    def to_dict(self) -> dict:
        """One results line: the fields in order, with metrics' fields in its place."""
        obj = {}
        for f in dataclasses.fields(self):
            if f.name == "metrics":
                obj.update(dataclasses.asdict(self.metrics))
            else:
                obj[f.name] = getattr(self, f.name)
        return obj

    @classmethod
    def from_dict(cls, obj: dict) -> "CellResult":
        """Inverse of to_dict; only fields with a default may be absent.

        Every metrics key is required, including those GranularityMetrics
        defaults, so a truncated line never loads as a valid cell.
        """
        kwargs = {
            f.name: obj[f.name] if f.default is dataclasses.MISSING else obj.get(f.name, f.default)
            for f in dataclasses.fields(cls) if f.name != "metrics"
        }
        metrics = {f.name: obj[f.name] for f in dataclasses.fields(GranularityMetrics)}
        return cls(**kwargs, metrics=GranularityMetrics(**metrics))


@dataclass
class ResultSet:
    plan: ExperimentPlan
    cells: list[CellResult] = field(default_factory=list)

    @property
    def mode(self) -> str:
        return self.plan.mode


def _run_seed(plan_seed: int, workers: int, size: int, rep: int) -> int:
    ss = np.random.SeedSequence([plan_seed & SEED_MASK, workers, size, rep])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _instance_seed(plan_seed: int, size: int) -> int:
    """Seed of a size's k-means instance, shared by all its cells and runs.

    The size is the spawn key of a child of the plan seed's sequence, numpy's
    way to derive an independent stream. _run_seed's sequences take no spawn
    key, so no run seed and no instance seed come from the same sequence.
    """
    ss = np.random.SeedSequence(plan_seed & SEED_MASK, spawn_key=(size,))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _measure_cell(
    plan: ExperimentPlan, workers: int, size: int, t1: Optional[float]
) -> tuple[CellResult, list[RunRecord]]:
    """Measure one cell; return its result and its kept runs. t1 is the size's p=1 mean wall.

    One warm-up, then plan.repetitions runs, filtered once by the Tukey rule:
    kept + rejected == plan.repetitions.
    """
    # What the runs share (a k-means instance) lives as long as run(): this
    # frame, so a cell's instance is gone before the next cell builds its own.
    run = _WORKLOADS[type(plan.workload)].cell(plan.workload, workers, size, plan.seed)
    run(0)  # warm-up
    runs = [run(rep) for rep in range(1, plan.repetitions + 1)]
    # Equal walls share one verdict, so dropping by value is exact.
    rejected = set(stats.filter_outliers([r.wall_clock for r in runs]).rejected)
    records = [r for r in runs if r.wall_clock not in rejected]
    if rejected:
        log.info("cell (p=%d, size=%d): kept %d/%d, %d rejected by the Tukey rule",
                 workers, size, len(records), len(runs), len(runs) - len(records))

    mean_wall = float(np.mean([r.wall_clock for r in records]))
    mean_comp = float(np.mean([aggregate(r).total_comp for r in records]))
    metrics = granularity_metrics(TimingBreakdown(workers, mean_wall, mean_comp))
    actual = (mean_wall if workers == 1 else t1) / mean_wall
    cell = CellResult(
        workload_id=plan.workload_id,
        workers=workers,
        problem_size=size,
        mean_wall=mean_wall,
        mean_total_comp=mean_comp,
        metrics=metrics,
        kept=len(records),
        rejected=len(runs) - len(records),
        actual_speedup=actual,
        relative_error=relative_error(actual, metrics.estimated_speedup),
    )
    return cell, records


def load_results(results_path: Union[str, Path]) -> ResultSet:
    """Read a results file into a ResultSet; plan_hash and each workload_id must fit its plan."""
    path = Path(results_path)
    lines = path.read_text().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty results file")
    try:
        header = json.loads(lines[0])
        if "plan_hash" not in header or "plan" not in header:
            raise ValueError("missing header fields")
        plan = ExperimentPlan.from_dict(header["plan"])
        if header["plan_hash"] != _digest(header["plan"]):
            raise ValueError("plan_hash is not the checksum of the plan")
    except (ValueError, TypeError, KeyError) as exc:
        raise ValueError(f"{path}: corrupt header at line 1: {exc}") from exc
    cells = []
    for i, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            cell = CellResult.from_dict(json.loads(line))
            if cell.workload_id != plan.workload_id:
                raise ValueError(f"workload_id must be {plan.workload_id!r}, "
                                 f"got {cell.workload_id!r}")
            cells.append(cell)
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"{path}: corrupt record at line {i}: {exc}") from exc
    return ResultSet(plan=plan, cells=cells)


def _cut_to_lines(path: Path, n: Optional[int] = None) -> int:
    """Truncate path after its first n complete lines, all when n is None; return how many.

    Every line is written whole and flushed, so a crash mid-write leaves at
    most one unterminated fragment after the complete lines; appending after
    it would merge the next line into it, so it always goes. A crash during
    a results header's write leaves an empty file.
    """
    with path.open("rb") as f:
        lines = [line for line in itertools.islice(f, n) if line.endswith(b"\n")]
    end, size = sum(map(len, lines)), path.stat().st_size
    if end < size:
        log.warning("%s: dropping %d bytes after line %d (a torn final line or the runs "
                    "of an unfinished cell)", path, size - end, len(lines))
        os.truncate(path, end)
    return len(lines)


def run_plan(
    plan: ExperimentPlan,
    out_path: Optional[Union[str, Path]] = None,
    resume: bool = False,
    records_path: Optional[Union[str, Path]] = None,
) -> ResultSet:
    """Execute every cell of the plan, persisting results cell by cell.

    The plan and the two paths are the sweep's only inputs; the results
    header records the plan, seed included.

    Each problem size also gets a p=1 cell, the T_1 of that size's
    actual_speedup; cells run sorted by (workers, size), so a baseline
    precedes the cells that use it. A cell makes one warm-up and
    plan.repetitions runs; those the Tukey rule rejects are counted in its
    line's rejected and left out of its means and of records_path.

    With resume=True, out_path's plan must equal this one, and its cells
    are skipped (its header stays, an older version's included); seeds
    are derived from the plan seed per (cell, repetition), or per size for a
    k-means instance, so a resumed sweep of a deterministic workload equals
    an uninterrupted one. A results file left empty by a crash during its
    header's write starts afresh.

    records_path receives one JSON line per kept run, cell by cell. A fresh
    sweep rewrites it; a resumed one keeps the runs of the cells taken from
    out_path and drops any bytes after them, a torn line included.
    """
    cells = _plan_cells(plan)

    max_p = max(plan.worker_counts)
    cpus = len(allowed_cpus()) or os.cpu_count() or 1
    if cpus < max_p:
        log.warning(
            "CPUs available to the process: %d, plan asks for %d workers; "
            "timings will not show real parallel speedup", cpus, max_p,
        )

    prior = None
    if out_path is not None:
        out_path = Path(out_path)
        if resume and out_path.exists() and _cut_to_lines(out_path):
            prior = load_results(out_path)
            if prior.plan != plan:
                raise ValueError("plan mismatch")
    completed = {c.cell_key: c for c in prior.cells} if prior is not None else {}
    results = ResultSet(plan=plan)
    baselines: dict[int, float] = {}  # size -> mean wall of its p=1 cell

    with contextlib.ExitStack() as files:
        # Records first: a bad records path must fail before a fresh run
        # truncates the results file.
        records_file = out_file = None
        if records_path is not None:
            records_path = Path(records_path)
            if completed and records_path.exists():
                _cut_to_lines(records_path, sum(c.kept for c in completed.values()))
            records_file = files.enter_context(records_path.open("a" if completed else "w"))
        if out_path is not None:
            out_file = files.enter_context(out_path.open("w" if prior is None else "a"))
            if prior is None:
                header = {"plan_hash": _digest(plan.to_dict()), "plan": plan.to_dict(),
                          "tool_version": __version__}
                out_file.write(json.dumps(header) + "\n")
                out_file.flush()

        for i, (workers, size) in enumerate(cells, start=1):
            key = (plan.workload_id, workers, size)
            progress = f"cell {i}/{len(cells)} (p={workers}, size={size})"
            if key in completed:
                log.info("%s: resumed from %s", progress, out_path)
                cell = completed[key]
            else:
                log.info(progress)
                try:
                    cell, records = _measure_cell(plan, workers, size, baselines.get(size))
                except Exception as exc:
                    raise CellExecutionError(key, exc) from exc

                if records_file is not None:
                    records_file.writelines(rec.to_json() + "\n" for rec in records)
                    records_file.flush()
                if out_file is not None:
                    out_file.write(json.dumps(cell.to_dict()) + "\n")
                    out_file.flush()
            if workers == 1:
                baselines[size] = cell.mean_wall
            results.cells.append(cell)
    return results


def resume(
    results_path: Union[str, Path], records_path: Optional[Union[str, Path]] = None
) -> ResultSet:
    """Continue an interrupted sweep; the file's header holds its plan, its only input.

    Completed cells are kept verbatim and only missing cells execute. A torn
    final line, left by a crash during its write, is dropped with a warning
    and its cell re-run. A file left empty by a crash during the header's
    write holds no plan; run_plan with the plan and resume=True starts it afresh.
    records_path, the sweep's records file, is resumed with it as run_plan does.
    """
    if not _cut_to_lines(Path(results_path)):
        raise ValueError(
            f"{results_path}: empty results file, so its plan is unknown; rerun with "
            f"`granscale run --plan PLAN --out {results_path} --resume`"
        )
    plan = load_results(results_path).plan
    return run_plan(plan, out_path=results_path, resume=True, records_path=records_path)
