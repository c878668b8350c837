"""Monte Carlo estimation of pi by quarter-circle rejection sampling.

Samples are split over a fixed number of logical RNG shards, each a PCG64
stream seeded from (seed, shard index). Workers process whole shards, so the
per-shard hit counts (and therefore the estimate) are bit-identical for any
worker count. Each worker times its whole shard loop as one `sample` span,
so every worker records exactly one span, and returns its hit count; the
final tally across workers is not timed.

A sample is one 32-bit half of a 64-bit word of its shard's stream, the
low half first: a word gives two samples, and a shard of m samples draws
⌈m/2⌉ words (an odd shard leaves its last word's high half unused). With
bits 16 and 0 set, a sample's high and low 16 bits are odd, x = 2i+1 and
y = 2j+1, the cell midpoints of a 2¹⁵ × 2¹⁵ grid, and the sample hits when
x² + y² < 2³², a test made exactly in uint32 arithmetic (`_count_hits`).
Two odd squares sum to 2 mod 8, so no sample lies on the arc. Every chunk
but a shard's last holds an even number of samples, so no word is split
between chunks, and the hits do not depend on how a shard is cut into
chunks. The estimate's expected value is 4·C/2³⁰ = π − 1.66·10⁻⁷, where C
counts the grid points inside the arc; that bias is far below its sampling
error of about 1.6/√N, and reaches it only near 10¹⁴ samples.

A chunk of `_CHUNK` samples takes nine numpy calls (`random_raw`, or,
shift, multiply, and, multiply, add, compare, count). Each releases the GIL
and must take it back, and a worker waiting for it is inside its `sample`
span, so that wait counts as computation. A p=2 worker of an 8M run makes
576 of these calls: 32 shards of two 2¹⁶-sample chunks.

The sampling loop allocates one array per chunk, the words `random_raw`
returns; each worker allocates its other scratch once per run, before its
span, and squares, sums and compares in place. Larger temporaries, freed
inside a run, would let glibc trim the heap (a started worker thread's heap
lives for one run), and the next chunk would fault those pages back in:
page-fault time inside the timed `sample` spans, counted as computation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..measurement import SEED_MASK, RunHandle, RunRecord, _check_types
from ._pool import part_sizes, run_workers

#: Logical RNG shards, independent of worker count.
N_SHARDS = 64

#: Samples per chunk, an even number so that a chunk takes whole words.
#: Each of a chunk's nine numpy calls can hand the GIL to the other worker,
#: so smaller chunks slow a two-worker run: pi-weak's p=2 run took 1.24× the
#: wall time at 2¹⁴ as at 2¹⁵ 64-bit samples, and 1.4× at 2¹³ as at 2¹⁴.
#: Each chunk also gets a fresh array from `random_raw`; large enough, its
#: pages go back to the kernel when it is freed and fault in again on the
#: next call. Minor faults per pi-weak sweep read 11–16 with a 128-KB or
#: 256-KB array, and 7.8k–10.2k with a 512-KB one. 2¹⁶ samples draw 2¹⁵
#: words, a 256-KB array.
_CHUNK = 1 << 16


@dataclass(frozen=True)
class PiSpec:
    n_samples: int
    seed: int = 0

    def __post_init__(self):
        _check_types(self)
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")


def _scratch(chunk: int) -> tuple[np.ndarray, np.ndarray]:
    """Buffers for chunks of up to `chunk` samples: x², and the hit mask."""
    return np.empty(chunk, dtype=np.uint32), np.empty(chunk, dtype=bool)


def _count_hits(words: np.ndarray, n: int, x2: np.ndarray, mask: np.ndarray) -> int:
    """Hits among the first `n` 32-bit samples of uint64 `words`, each word's
    low half first; overwrites `words`.

    x² and y² are below 2³² and their sum wraps modulo 2³² at most once, so
    it is at least x² exactly when x² + y² < 2³².
    """
    s = np.asarray(words, dtype="<u8").view("<u4")[:n]
    np.bitwise_or(s, 0x0001_0001, out=s)
    x2 = np.right_shift(s, 16, out=x2[:n])
    np.multiply(x2, x2, out=x2)
    np.bitwise_and(s, 0xFFFF, out=s)
    np.multiply(s, s, out=s)
    np.add(s, x2, out=s)
    return int(np.count_nonzero(np.greater_equal(s, x2, out=mask[:n])))


def _sample_shard(seed: int, shard: int, m: int, x2: np.ndarray, mask: np.ndarray) -> int:
    bitgen = np.random.PCG64(np.random.SeedSequence([seed & SEED_MASK, shard]))
    hits = 0
    for off in range(0, m, _CHUNK):
        n = min(_CHUNK, m - off)
        hits += _count_hits(bitgen.random_raw((n + 1) // 2), n, x2, mask)
    return hits


def monte_carlo_pi(
    spec: PiSpec, workers: int, run_handle: RunHandle
) -> tuple[float, RunRecord]:
    if workers < 1:
        raise ValueError("workers must be >= 1")
    sizes = part_sizes(spec.n_samples, N_SHARDS)
    chunk = min(_CHUNK, max(sizes))

    def body(w, barrier):
        x2, mask = _scratch(chunk)  # untimed: allocated once, before the span
        with run_handle.span(w, "sample"):
            hits = [_sample_shard(spec.seed, shard, sizes[shard], x2, mask)
                    for shard in range(w, N_SHARDS, workers)]
        return sum(hits)

    total_hits = sum(run_workers(workers, body))  # tally reduction: untimed
    run_handle.iterations = 1
    record = run_handle.finish()
    return 4.0 * total_hits / spec.n_samples, record
