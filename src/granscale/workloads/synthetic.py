"""Synthetic workload with an analytically known compute/overhead ratio.

Each worker alternates a timed "busy" phase of compute_ms with an untimed
exchange phase of exchange_ms that opens with a barrier, so the expected
granularity is exactly compute_ms / exchange_ms regardless of worker count.

Occupation is realized with monotonic sleeps rather than a spin loop: a
Python spin holds the GIL and would serialize the workers, destroying the
analytic construction the workload exists to provide. Sleeping workers
overlap freely, so the ratio holds even on a single core.

Each phase keeps its own running total on schedule rather than sleeping a
fixed time: a worker's k-th busy phase lasts until its busy time reaches
k*compute_ms, and its k-th exchange phase, which opens with the barrier,
until its exchange time reaches k*exchange_ms. Barrier latency is thus
spent inside exchange_ms, and a late wake-up, which lengthens the phase it
ends, is taken off the next phase of the same kind. A schedule fixed from
one origin instead moves a late wake-up into the other phase, so a stall of
the whole process at a phase boundary shifts its full length between
computation and overhead.

With simulate=True no threads run at all; spans and wall clock are the
exact nominal durations. That mode is the fully deterministic variant used
for resume/persistence equality checks and fast tests.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from ..measurement import RunHandle, RunRecord, _check_types
from ._pool import run_workers


@dataclass(frozen=True)
class SyntheticSpec:
    compute_ms_per_worker: float
    exchange_ms_per_worker: float
    iterations: int = 1
    simulate: bool = False

    def __post_init__(self):
        _check_types(self)
        for name in ("compute_ms_per_worker", "exchange_ms_per_worker"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")


def synthetic_run(spec: SyntheticSpec, workers: int, run_handle: RunHandle) -> RunRecord:
    if workers < 1:
        raise ValueError("workers must be >= 1")
    compute_s = spec.compute_ms_per_worker / 1000.0
    exchange_s = spec.exchange_ms_per_worker / 1000.0

    if spec.simulate:
        for _ in range(spec.iterations):
            for w in range(workers):
                run_handle.record_span(w, compute_s, "busy")
        run_handle.iterations = spec.iterations
        return run_handle.finish(
            wall_clock=spec.iterations * (compute_s + exchange_s)
        )

    def body(w, barrier):
        busy = exchange = 0.0  # this worker's time in each phase so far
        start = time.perf_counter()
        for k in range(1, spec.iterations + 1):
            _sleep_until(start + k * compute_s - busy)
            end = time.perf_counter()
            run_handle.record_span(w, end - start, "busy")
            busy += end - start
            # exchange section: untimed, lands in overhead
            barrier.wait()
            _sleep_until(end + k * exchange_s - exchange)
            start = time.perf_counter()
            exchange += start - end

    run_workers(workers, body)
    run_handle.iterations = spec.iterations
    return run_handle.finish()


def _sleep_until(deadline: float) -> None:
    remaining = deadline - time.perf_counter()
    if remaining > 0:
        time.sleep(remaining)
