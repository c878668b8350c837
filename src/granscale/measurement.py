"""Span-based instrumentation for parallel runs.

A run handle is opened by the coordinating context, shared by the workers,
and closed once they have joined. Workers record the durations of their
compute regions as spans; everything outside spans (barriers, exchanges,
scheduling) falls into the overhead term by construction.

Workers time a compute region with `RunHandle.span`, which reads the clock
around the block and records the span once the block completes. Span
submission appends to a per-worker buffer, so recording never blocks
another worker and happens outside the timed region.

A span is an immutable `(worker_id, duration, phase_label)` tuple. A
negative, NaN or infinite duration is refused where a span is made: by
`Span(...)`, by `record_span` and, for every span of a record read back, by
`RunRecord.from_json`.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import repeat
from operator import attrgetter, itemgetter
from typing import Iterator, NamedTuple, Optional

from .metrics import TimingBreakdown

INCOMPLETE_COVERAGE = "incomplete worker coverage"

#: Seeds are reduced to their low 64 bits before they seed numpy, which takes
#: only non-negative seeds; so any int, negative ones included, is a seed.
SEED_MASK = (1 << 64) - 1


class _SpanFields(NamedTuple):
    worker_id: int
    duration: float
    phase_label: str


class Span(_SpanFields):
    """One timed compute region on one worker."""

    __slots__ = ()

    def __new__(cls, worker_id: int, duration: float, phase_label: str) -> "Span":
        if not 0 <= duration < math.inf:
            raise ValueError(f"span duration must be finite and >= 0, got {duration}")
        return tuple.__new__(cls, (worker_id, duration, phase_label))

    @classmethod
    def _make(cls, iterable) -> "Span":
        # namedtuple's own _make, which _replace calls, would skip __new__.
        return cls(*iterable)


_DURATION = attrgetter("duration")
_WORKER_ID = attrgetter("worker_id")
_NUMBER_TYPES = frozenset((int, float))  # not bool, a subclass of int
_STR_TYPES = frozenset((str,))
#: A records-file span's keys, in Span's field order.
_SPAN_KEYS = itemgetter("worker", "duration_s", "phase")


def _check_span_fields(durations: tuple, phases: tuple) -> None:
    """Refuse a duration that is not a finite int or float >= 0, or a phase that is not a str."""
    if not (_NUMBER_TYPES.issuperset(map(type, durations))
            and _STR_TYPES.issuperset(map(type, phases))):
        raise ValueError(f"span durations must be numbers and phases strs, "
                         f"got {durations} and {phases}")
    # min() alone misses a NaN after the first element (min([1.0, nan]) is
    # 1.0), but the sum carries any NaN or inf to its end.
    if not (min(durations, default=0.0) >= 0 and sum(durations) < math.inf):
        bad = [d for d in durations if not 0 <= d < math.inf] or durations
        raise ValueError(f"span durations must be finite and >= 0, got {bad}")


@dataclass(frozen=True)
class RunRecord:
    """Immutable evidence of one run; no id or clock time, so simulated runs are exact."""

    workload_id: str
    workers: int
    problem_size: int
    seed: int
    wall_clock: float
    spans: tuple[Span, ...]
    iterations: int

    @property
    def flags(self) -> tuple[str, ...]:
        """Derived from the spans, so they survive any serialisation."""
        if len(set(map(_WORKER_ID, self.spans))) < self.workers:
            return (INCOMPLETE_COVERAGE,)
        return ()

    def to_json(self) -> str:
        return json.dumps(
            {
                "workload_id": self.workload_id,
                "workers": self.workers,
                "problem_size": self.problem_size,
                "seed": self.seed,
                "wall_clock_s": self.wall_clock,
                "iterations": self.iterations,
                "spans": [
                    {"worker": s.worker_id, "duration_s": s.duration, "phase": s.phase_label}
                    for s in self.spans
                ],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "RunRecord":
        """Inverse of to_json; unknown keys (older records' id and start time) are ignored.

        ValueError refuses what RunHandle would not make: a non-str workload
        id; a non-int (or bool) count, size, seed or iteration count; a
        count or size below 1 and a negative iteration count; a wall clock
        that is not a finite number >= 0; and a span whose worker lies
        outside 0..workers-1, whose duration is not a finite number >= 0, or
        whose phase is not a str.
        """
        obj = json.loads(text)
        workload_id, wall = obj["workload_id"], obj["wall_clock_s"]
        workers, size, seed = obj["workers"], obj["problem_size"], obj["seed"]
        iterations = obj["iterations"]
        if not (type(workers) is type(size) is type(seed) is type(iterations) is int
                and type(wall) in _NUMBER_TYPES and type(workload_id) is str):
            raise ValueError(f"workers, problem_size, seed and iterations must be ints, "
                             f"wall_clock_s a number and workload_id a str, got "
                             f"{(workers, size, seed, iterations)}, {wall!r} and {workload_id!r}")
        if not (workers >= 1 and size >= 1 and iterations >= 0 and 0 <= wall < math.inf):
            raise ValueError(f"workers and problem_size must be >= 1, iterations >= 0 and "
                             f"wall_clock_s finite and >= 0, got {workers}, {size}, "
                             f"{iterations} and {wall!r}")
        # One pass splits the spans into columns, each checked in C loops; the
        # spans are then built with no Python call each.
        fields = list(map(_SPAN_KEYS, obj["spans"]))
        ids, durations, phases = zip(*fields) if fields else ((), (), ())
        _check_span_fields(durations, phases)
        ids = set(ids)
        if not all(type(i) is int and 0 <= i < workers for i in ids):
            raise ValueError(f"span workers must lie in 0..{workers - 1}, got {ids}")
        return cls(
            workload_id=workload_id,
            workers=workers,
            problem_size=size,
            seed=seed,
            wall_clock=wall,
            spans=tuple(map(tuple.__new__, repeat(Span), fields)),
            iterations=iterations,
        )


class RunHandle:
    """Active run accepting spans from its workers.

    record_span may be called concurrently from all workers; each worker
    appends to its own buffer (list.append is atomic under CPython), so
    submission is lossless and never serializes the workers.
    """

    def __init__(self, workload_id: str, workers: int, problem_size: int, seed: int):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if problem_size < 1:
            raise ValueError(f"problem_size must be >= 1, got {problem_size}")
        self.workload_id = workload_id
        self.workers = workers
        self.problem_size = problem_size
        self.seed = seed
        self.iterations = 0
        self._buffers: list[list[Span]] = [[] for _ in range(workers)]
        self._start = time.perf_counter()
        self._finished = False

    def record_span(self, worker_id: int, duration: float, phase_label: str) -> None:
        if self._finished:
            raise RuntimeError("run already finished")
        if not 0 <= worker_id < self.workers:
            raise ValueError(
                f"worker_id {worker_id} out of range for {self.workers} workers"
            )
        self._buffers[worker_id].append(Span(worker_id, duration, phase_label))

    @contextmanager
    def span(self, worker_id: int, phase_label: str) -> Iterator[None]:
        """Time the enclosed block as one span; a block that raises records nothing."""
        t0 = time.perf_counter()
        yield
        self.record_span(worker_id, time.perf_counter() - t0, phase_label)

    def finish(self, wall_clock: Optional[float] = None) -> RunRecord:
        """Close the run and freeze its record.

        wall_clock overrides the monotonic measurement; workloads running in
        simulated time use it so their records are exactly reproducible.
        """
        if self._finished:
            raise RuntimeError("run already finished")
        self._finished = True
        if wall_clock is None:
            wall_clock = time.perf_counter() - self._start
        spans = tuple(s for buf in self._buffers for s in buf)
        return RunRecord(
            workload_id=self.workload_id,
            workers=self.workers,
            problem_size=self.problem_size,
            seed=self.seed,
            wall_clock=wall_clock,
            spans=spans,
            iterations=self.iterations,
        )


def begin_run(workload_id: str, workers: int, problem_size: int, seed: int) -> RunHandle:
    """Open a run: starts the wall clock and returns the span-accepting handle."""
    return RunHandle(workload_id, workers, problem_size, seed)


def aggregate(record: RunRecord) -> TimingBreakdown:
    """Collapse a run record into (workers, wall_clock, total computation time)."""
    # The same left-to-right sum as a loop over the spans, bit for bit.
    total_comp = sum(map(_DURATION, record.spans))
    return TimingBreakdown(
        workers=record.workers,
        wall_clock=record.wall_clock,
        total_comp=total_comp,
    )
