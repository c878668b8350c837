"""Barrier-synchronized in-process worker pool, one fork-join per run.

The calling thread is worker 0; workers 1..p-1 are threads started and joined
per run, so a one-worker run starts none. Each body gets (worker_id, barrier),
and the results come back in worker order. A failing worker aborts the barrier
so its peers cannot deadlock, and the first exception is re-raised in the caller.
"""

from __future__ import annotations

import threading
from typing import Callable


def part_sizes(n: int, parts: int) -> list[int]:
    """Split n into `parts` near-equal sizes; the first n % parts get one extra."""
    base, rem = divmod(n, parts)
    return [base + (1 if i < rem else 0) for i in range(parts)]


def run_workers(workers: int, body: Callable[[int, threading.Barrier], object]) -> list:
    barrier = threading.Barrier(workers)
    results: list = [None] * workers
    errors: list[BaseException] = []

    def trampoline(worker_id: int) -> None:
        try:
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
    trampoline(0)
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return results
