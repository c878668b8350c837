"""Monte Carlo estimation of pi by quarter-circle rejection sampling.

Samples are split over a fixed number of logical RNG shards, each seeded
from (seed, shard index) via PCG64. Workers process whole shards, so the
per-shard hit counts (and therefore the estimate) are bit-identical for any
worker count. Each worker times its whole shard loop as one `sample` span,
so every worker records exactly one span, and returns its hit count; the
final tally across workers is not timed.

The sampling loop allocates nothing per shard or per chunk: each worker
allocates its float and bool scratch buffers once per run, before its
span, and each chunk is drawn, squared, summed and compared in place.
Freed temporaries would let glibc trim the heap (a started worker thread's
heap lives for one run), and the next shard would fault those pages back
in: page-fault time inside the timed `sample` spans, counted as computation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..measurement import RunHandle, RunRecord
from ._pool import part_sizes, run_workers

_SEED_MASK = (1 << 64) - 1

#: Logical RNG shards, independent of worker count.
N_SHARDS = 64

#: Samples generated per numpy call; bounds memory, fixed per shard so the
#: generation sequence never depends on the worker layout.
_CHUNK = 1_000_000


@dataclass(frozen=True)
class PiSpec:
    n_samples: int
    seed: int = 0

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")


def _scratch(chunk: int) -> tuple[np.ndarray, np.ndarray]:
    """Buffers for chunks of up to `chunk` samples: x then y, and the hit mask."""
    return np.empty(2 * chunk), np.empty(chunk, dtype=bool)


def _sample_shard(seed: int, shard: int, m: int, buf: np.ndarray, mask: np.ndarray) -> int:
    rng = np.random.default_rng(np.random.SeedSequence([seed & _SEED_MASK, shard]))
    hits = 0
    for off in range(0, m, _CHUNK):
        n = min(_CHUNK, m - off)
        xy = rng.random(out=buf[: 2 * n])  # the same stream as two draws of n: x, then y
        np.multiply(xy, xy, out=xy)
        x = xy[:n]
        np.add(x, xy[n:], out=x)
        hits += int(np.count_nonzero(np.less_equal(x, 1.0, out=mask[:n])))
    return hits


def monte_carlo_pi(
    spec: PiSpec, workers: int, run_handle: RunHandle
) -> tuple[float, RunRecord]:
    if workers < 1:
        raise ValueError("workers must be >= 1")
    sizes = part_sizes(spec.n_samples, N_SHARDS)
    chunk = min(_CHUNK, max(sizes))

    def body(w, barrier):
        buf, mask = _scratch(chunk)  # untimed: allocated once, before the span
        with run_handle.span(w, "sample"):
            hits = [_sample_shard(spec.seed, shard, sizes[shard], buf, mask)
                    for shard in range(w, N_SHARDS, workers)]
        return sum(hits)

    total_hits = sum(run_workers(workers, body))  # tally reduction: untimed
    run_handle.iterations = 1
    record = run_handle.finish()
    return 4.0 * total_hits / spec.n_samples, record
