"""Barrier-synchronized in-process worker pool, one fork-join per run.

The calling thread is worker 0; workers 1..p-1 are threads started and joined
per run, so a one-worker run starts none. Each body gets (worker_id, barrier),
and the results come back in worker order. A failing worker aborts the barrier
so its peers cannot deadlock, and the first exception is re-raised in the caller.

When p >= 2 equals the number of CPUs in the process's affinity mask, worker
w pins itself to the w-th CPU of the sorted mask before its body runs, so the
pin falls outside every span. Without it the kernel wakes a worker handed
the GIL on its waker's CPU, and both workers queue on one core. Worker 0
restores the caller's mask before the others are joined. Every CPU of the
mask is then in use, so the fixed placement leaves none idle. A run with
fewer workers than CPUs pins nothing: the scheduler keeps its choice of idle
CPUs, which matters when other runs share the mask. A one-worker run, a run
with more workers than CPUs, and a platform without affinity calls pin
nothing either.
"""

from __future__ import annotations

import os
import threading
from typing import Callable


def allowed_cpus() -> list[int]:
    """The CPUs in the process's affinity mask, sorted; [] where the platform has none."""
    return sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def part_sizes(n: int, parts: int) -> list[int]:
    """Split n into `parts` near-equal sizes; the first n % parts get one extra."""
    base, rem = divmod(n, parts)
    return [base + (1 if i < rem else 0) for i in range(parts)]


def run_workers(workers: int, body: Callable[[int, threading.Barrier], object]) -> list:
    barrier = threading.Barrier(workers)
    results: list = [None] * workers
    errors: list[BaseException] = []
    cpus = allowed_cpus() if workers > 1 else []
    pin = workers == len(cpus)

    def trampoline(worker_id: int) -> None:
        try:
            if pin:
                os.sched_setaffinity(0, {cpus[worker_id]})  # pid 0: this thread
            results[worker_id] = body(worker_id, barrier)
        except threading.BrokenBarrierError:
            pass  # a peer failed; its error is reported below
        except BaseException as exc:  # noqa: BLE001 - propagated to caller
            errors.append(exc)
            barrier.abort()

    threads = [
        threading.Thread(target=trampoline, args=(w,), name=f"granscale-worker-{w}")
        for w in range(1, workers)
    ]
    for t in threads:
        t.start()
    try:
        trampoline(0)
    finally:
        if pin:
            os.sched_setaffinity(0, cpus)
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return results
