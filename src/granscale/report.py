"""Presentation of sweep results: CSV curves, weak-scaling tables, JSON, verdicts.

All emitters are pure functions of the ResultSet and byte-deterministic.
CSV carries full float precision; aligned text tables round to 3 decimals.
"""

from __future__ import annotations

import io
import json
from typing import Optional

from .harness import CellResult, ResultSet
from .metrics import infer_gustafson_fraction

__all__ = [
    "json_report",
    "strong_scaling_csv",
    "weak_scaling_tables",
    "scalability_verdict",
]

FLAG_CLAMPED = "clamped_overhead"
FLAG_SUPERLINEAR = "superlinear"
FLAG_INCOMPLETE = "incomplete_samples"

# The results-line keys of one JSON report object, in order; anomaly_flags follows.
JSON_KEYS = ("workers", "problem_size", "mean_wall", "granularity", "efficiency",
             "estimated_speedup", "actual_speedup", "relative_error")

# Strong mode is scalable when efficiency at the largest p reaches this floor.
EFFICIENCY_FLOOR = 0.5


def anomaly_flags(cell: CellResult, repetitions: int) -> list[str]:
    """The cell's anomaly flags, sorted; repetitions is the plan's target."""
    flags = {
        FLAG_CLAMPED: cell.metrics.overhead_clamped,
        FLAG_SUPERLINEAR: cell.actual_speedup is not None and cell.actual_speedup > cell.workers,
        FLAG_INCOMPLETE: cell.kept < repetitions,
    }
    return sorted(flag for flag, is_set in flags.items() if is_set)


def json_report(results: ResultSet) -> str:
    """One object per cell, in results order: its JSON_KEYS values, then anomaly_flags."""
    rows = []
    for cell in results.cells:
        line = cell.to_dict()
        rows.append({**{k: line[k] for k in JSON_KEYS},
                     "anomaly_flags": anomaly_flags(cell, results.plan.repetitions)})
    return json.dumps(rows, indent=2) + "\n"


def _fmt(value: Optional[float]) -> str:
    return "" if value is None else repr(float(value))


def strong_scaling_csv(results: ResultSet) -> str:
    """Speedup-curve data for a strong-scaling sweep, one row per cell."""
    if results.mode != "strong":
        raise ValueError(f"expected strong-mode results, got mode {results.mode!r}")
    out = io.StringIO()
    out.write("workers,problem_size,actual_speedup,estimated_speedup,relative_error,efficiency\n")
    for c in sorted(results.cells, key=lambda c: (c.problem_size, c.workers)):
        out.write(
            f"{c.workers},{c.problem_size},{_fmt(c.actual_speedup)},"
            f"{_fmt(c.metrics.estimated_speedup)},{_fmt(c.relative_error)},"
            f"{_fmt(c.metrics.efficiency)}\n"
        )
    return out.getvalue()


def weak_scaling_tables(results: ResultSet, fmt: str = "csv") -> tuple[str, str]:
    """Execution-time and speedup tables for a weak-scaling sweep.

    Both tables have one row per problem size. T_1 is the mean wall of that
    size's p=1 cell, the serial baseline; a size without one is an error.
    The time table puts each measured T_p in its worker column; the speedup
    table carries S_p = T_1/T_p plus the weak-scaling parallel fraction
    inferred from it, and omits the trivial S_1 just like its published shape.
    """
    if results.mode != "weak":
        raise ValueError(f"expected weak-mode results, got mode {results.mode!r}")
    if fmt not in ("csv", "table"):
        raise ValueError(f"fmt must be 'csv' or 'table', got {fmt!r}")
    cells = {(c.workers, c.problem_size): c for c in results.cells}
    sizes = sorted({s for _, s in cells})
    if any((1, s) not in cells for s in sizes):
        raise ValueError("weak-scaling tables need a serial baseline (p=1 cell) for every size")
    worker_cols = sorted({p for p, _ in cells} - {1})

    def render(rows: list[list[str]], header: list[str]) -> str:
        if fmt == "csv":
            return "\n".join([",".join(header)] + [",".join(r) for r in rows]) + "\n"
        widths = [max(map(len, column)) for column in zip(header, *rows)]
        lines = ["  ".join(h.rjust(w) for h, w in zip(header, widths))]
        for r in rows:
            lines.append("  ".join(v.rjust(w) for v, w in zip(r, widths)))
        return "\n".join(lines) + "\n"

    def num(value: float) -> str:
        return repr(float(value)) if fmt == "csv" else f"{value:.3f}"

    time_header = ["problem_size", "T_1"] + [f"T_{p}" for p in worker_cols]
    speedup_header = (
        ["problem_size"] + [f"S_{p}" for p in worker_cols] + ["gustafson_fraction"]
    )
    time_rows, speedup_rows = [], []
    for size in sizes:
        t1 = cells[(1, size)].mean_wall
        trow, srow, fraction = [str(size), num(t1)], [str(size)], ""
        for p in worker_cols:
            cell = cells.get((p, size))
            trow.append(num(cell.mean_wall) if cell else "")
            srow.append(num(t1 / cell.mean_wall) if cell else "")
            if cell:  # weak scaling runs each size at one p > 1
                fraction = num(infer_gustafson_fraction(t1 / cell.mean_wall, p).value)
        time_rows.append(trow)
        speedup_rows.append(srow + [fraction])
    return render(time_rows, time_header), render(speedup_rows, speedup_header)


def scalability_verdict(results: ResultSet) -> str:
    """One-line verdict plus the failing cells, if any.

    Strong mode: scalable when efficiency at the largest worker count stays
    at or above EFFICIENCY_FLOOR for every problem size. Weak mode: scalable
    when mean wall time varies by at most 25% ((max - min) / min) across each
    fixed per-worker-size track.
    """
    if not results.cells:
        raise ValueError("empty results")
    failing: list[str] = []
    if results.mode == "strong":
        max_p = max(c.workers for c in results.cells)
        for c in results.cells:
            if c.workers == max_p and c.metrics.efficiency < EFFICIENCY_FLOOR:
                failing.append(
                    f"(p={c.workers}, size={c.problem_size}): "
                    f"efficiency {c.metrics.efficiency:.3f} < {EFFICIENCY_FLOOR}"
                )
    else:
        tracks: dict[int, list[CellResult]] = {}
        for c in results.cells:
            tracks.setdefault(c.problem_size // c.workers, []).append(c)
        for per_worker, cells in sorted(tracks.items()):
            walls = [c.mean_wall for c in cells]
            lo, hi = min(walls), max(walls)
            if not (lo > 0 and (hi - lo) / lo <= 0.25):
                detail = ", ".join(
                    f"(p={c.workers}, size={c.problem_size}): {c.mean_wall:.3f}s"
                    for c in cells
                )
                failing.append(f"per-worker size {per_worker}: {detail}")
    if failing:
        return "not scalable\n" + "\n".join(failing)
    return "scalable"
