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

import dataclasses
import functools
import json
import math
import time
import typing
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import product, repeat
from operator import attrgetter, itemgetter
from typing import Iterator, NamedTuple, Optional, Union

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

#: The one type rule of every record read from JSON: the types json.loads gives
#: that each annotation accepts. bool, a subclass of int, is neither int nor float.
_JSON_TYPES = {int: {int}, float: {int, float}, bool: {bool}, str: {str}, type(None): {type(None)}}


@functools.cache
def _hints(cls) -> dict:
    return typing.get_type_hints(cls)


def _wrong_type(key: str, tp, value) -> ValueError:
    name = tp.__name__ if isinstance(tp, type) else str(tp).replace("typing.", "")
    return ValueError(f"{key} must be {name}, got {value!r}")


def _is(value, tp) -> bool:
    """Whether value is a tp by _JSON_TYPES.

    Optional[X] takes None or an X, tuple[X, ...] a tuple or a JSON list of
    X, and dict[K, V] keys K and values V. A record type (a dataclass, or a
    Union of them) takes an instance of it: a record checks itself when built.
    """
    if tp in _JSON_TYPES:
        return type(value) in _JSON_TYPES[tp]
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is Union:
        return any(_is(value, arg) for arg in args)
    if origin is tuple:
        return type(value) in (tuple, list) and all(_is(v, args[0]) for v in value)
    if origin is dict:
        return type(value) is dict and all(_is(k, args[0]) and _is(v, args[1])
                                           for k, v in value.items())
    return type(value) is tp


def _check_types(obj) -> None:
    """Refuse with ValueError an init field of dataclass obj that its annotation refuses."""
    hints = _hints(type(obj))
    for name in (f.name for f in dataclasses.fields(obj) if f.init):
        if not _is(getattr(obj, name), hints[name]):
            raise _wrong_type(name, hints[name], getattr(obj, name))


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
        # The tables' keys, unpacked in their order: dict displays build fastest.
        workload_id, workers, size, seed, wall, iterations = _record_keys
        worker, duration, phase = _span_keys
        return json.dumps({
            workload_id: self.workload_id, workers: self.workers, size: self.problem_size,
            seed: self.seed, wall: self.wall_clock, iterations: self.iterations,
            "spans": [{worker: w, duration: d, phase: p} for w, d, p in self.spans]})

    @classmethod
    def from_json(cls, text: str) -> "RunRecord":
        """Inverse of to_json; unknown keys (older records' id and start time) are ignored.

        ValueError refuses a line that is not an object holding every key to_json
        writes, spans a list; a value its field's annotation does not accept, by the
        rule of _JSON_TYPES; and what RunHandle would not make: a count or size below
        1, a negative iteration count, a wall clock or span duration that is not
        finite and >= 0, and a span worker outside 0..workers-1.
        """
        try:
            obj = json.loads(text)
            values, spans = _record_values(obj), obj["spans"]
            if type(spans) is not list:
                raise _wrong_type("spans", list, spans)
            # One pass splits the spans into columns, each checked in C loops;
            # the spans are then built with no Python call each.
            fields = list(map(_span_values, spans))
            ids, durations, phases = zip(*fields) if fields else ((), (), ())
        except (KeyError, TypeError) as exc:
            raise ValueError(f"not a run record: {exc!r}") from exc
        if tuple(map(type, values)) not in _RECORD_SIGNATURES:
            raise _wrong_column_type(RunRecord, _RECORD_KEYS, zip(values))
        worker_types, duration_types, phase_types = _SPAN_TYPES
        if not (worker_types.issuperset(map(type, ids))
                and duration_types.issuperset(map(type, durations))
                and phase_types.issuperset(map(type, phases))):
            raise _wrong_column_type(Span, _SPAN_KEYS, (ids, durations, phases))
        workload_id, workers, size, seed, wall, iterations = values
        if not (workers >= 1 and size >= 1 and iterations >= 0 and 0 <= wall < math.inf):
            raise ValueError(f"workers and problem_size must be >= 1, iterations >= 0 and "
                             f"wall_clock_s finite and >= 0, got {workers}, {size}, "
                             f"{iterations} and {wall!r}")
        # min() alone misses a NaN after the first element (min([1.0, nan]) is
        # 1.0), but the sum carries any NaN or inf to its end.
        if not (min(durations, default=0.0) >= 0 and sum(durations) < math.inf):
            bad = [d for d in durations if not 0 <= d < math.inf] or durations
            raise ValueError(f"span durations must be finite and >= 0, got {bad}")
        if not all(0 <= i < workers for i in set(ids)):
            raise ValueError(f"span workers must lie in 0..{workers - 1}, got {set(ids)}")
        return cls(workload_id, workers, size, seed, wall,
                   tuple(map(tuple.__new__, repeat(Span), fields)), iterations)


#: Each (field, key) of a records line, in the order to_json writes them: one
#: table for RunRecord, whose spans follow, and one for each of its spans.
_RECORD_KEYS = (("workload_id", "workload_id"), ("workers", "workers"),
                ("problem_size", "problem_size"), ("seed", "seed"),
                ("wall_clock", "wall_clock_s"), ("iterations", "iterations"))
_SPAN_KEYS = (("worker_id", "worker"), ("duration", "duration_s"), ("phase_label", "phase"))
_record_keys, _span_keys = (tuple(key for _, key in t) for t in (_RECORD_KEYS, _SPAN_KEYS))
_record_values, _span_values = itemgetter(*_record_keys), itemgetter(*_span_keys)
# The types each column accepts, and every type tuple the scalars may have.
_SPAN_TYPES = tuple(_JSON_TYPES[_hints(Span)[name]] for name, _ in _SPAN_KEYS)
_RECORD_SIGNATURES = set(product(*(_JSON_TYPES[_hints(RunRecord)[name]]
                                   for name, _ in _RECORD_KEYS)))


def _wrong_column_type(cls, table, columns) -> ValueError:
    """The error for the first value, column by column, that its field's annotation refuses."""
    for (name, key), column in zip(table, columns):
        tp = _hints(cls)[name]
        for value in column:
            if not _is(value, tp):
                return _wrong_type(key, tp, value)


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
