"""Presentation of sweep results: CSV curves, weak-scaling tables, verdicts.

All emitters are pure functions of the ResultSet and byte-deterministic.
CSV carries full float precision; aligned text tables round to 3 decimals.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Optional

from .harness import CellResult, ResultSet
from .metrics import infer_gustafson_fraction

__all__ = [
    "ReportRow",
    "report_rows",
    "strong_scaling_csv",
    "weak_scaling_tables",
    "scalability_verdict",
]

FLAG_CLAMPED = "clamped_overhead"
FLAG_SUPERLINEAR = "superlinear"
FLAG_INCOMPLETE = "incomplete_samples"


@dataclass(frozen=True)
class ReportRow:
    workers: int
    problem_size: int
    mean_wall: float
    granularity: float
    efficiency: float
    estimated_speedup: float
    actual_speedup: Optional[float]
    relative_error: Optional[float]
    anomaly_flags: frozenset[str]


def _row(cell: CellResult, target_repetitions: int) -> ReportRow:
    flags = set()
    if cell.metrics.overhead_clamped:
        flags.add(FLAG_CLAMPED)
    if cell.actual_speedup is not None and cell.actual_speedup > cell.workers:
        flags.add(FLAG_SUPERLINEAR)
    if cell.kept < target_repetitions:
        flags.add(FLAG_INCOMPLETE)
    return ReportRow(
        workers=cell.workers,
        problem_size=cell.problem_size,
        mean_wall=cell.mean_wall,
        granularity=cell.metrics.granularity,
        efficiency=cell.metrics.efficiency,
        estimated_speedup=cell.metrics.estimated_speedup,
        actual_speedup=cell.actual_speedup,
        relative_error=cell.relative_error,
        anomaly_flags=frozenset(flags),
    )


def report_rows(results: ResultSet) -> list[ReportRow]:
    return [_row(c, results.plan.repetitions) for c in results.cells]


def _fmt(value: Optional[float]) -> str:
    return "" if value is None else repr(float(value))


def strong_scaling_csv(results: ResultSet) -> str:
    """Speedup-curve data for a strong-scaling sweep, one row per cell."""
    if results.mode != "strong":
        raise ValueError(f"expected strong-mode results, got mode {results.mode!r}")
    out = io.StringIO()
    out.write("workers,problem_size,actual_speedup,estimated_speedup,relative_error,efficiency\n")
    for row in sorted(report_rows(results), key=lambda r: (r.problem_size, r.workers)):
        out.write(
            f"{row.workers},{row.problem_size},{_fmt(row.actual_speedup)},"
            f"{_fmt(row.estimated_speedup)},{_fmt(row.relative_error)},"
            f"{_fmt(row.efficiency)}\n"
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
        widths = [
            max(len(header[i]), *(len(r[i]) for r in rows)) for i in range(len(header))
        ]
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


def within_band(values: list[float], band: float = 0.25) -> bool:
    """True when max/min spread of the values stays within the band."""
    lo, hi = min(values), max(values)
    return lo > 0 and (hi - lo) / lo <= band


def scalability_verdict(results: ResultSet, efficiency_floor: float = 0.5) -> str:
    """One-line verdict plus the failing cells, if any.

    Strong mode: scalable when efficiency at the largest worker count stays
    at or above the floor for every problem size. Weak mode: scalable when
    mean wall time varies by at most 25% across each fixed per-worker-size
    track.
    """
    if not results.cells:
        raise ValueError("empty results")
    failing: list[str] = []
    if results.mode == "strong":
        max_p = max(c.workers for c in results.cells)
        for c in results.cells:
            if c.workers == max_p and c.metrics.efficiency < efficiency_floor:
                failing.append(
                    f"(p={c.workers}, size={c.problem_size}): "
                    f"efficiency {c.metrics.efficiency:.3f} < {efficiency_floor}"
                )
    else:
        tracks: dict[int, list[CellResult]] = {}
        for c in results.cells:
            tracks.setdefault(c.problem_size // c.workers, []).append(c)
        for per_worker, cells in sorted(tracks.items()):
            walls = [c.mean_wall for c in cells]
            if not within_band(walls):
                detail = ", ".join(
                    f"(p={c.workers}, size={c.problem_size}): {c.mean_wall:.3f}s"
                    for c in cells
                )
                failing.append(f"per-worker size {per_worker}: {detail}")
    if failing:
        return "not scalable\n" + "\n".join(failing)
    return "scalable"
