"""Monte Carlo estimation of pi by quarter-circle rejection sampling.

Samples are split over a fixed number of logical RNG shards, each a PCG64
stream seeded from (seed, shard index). Workers process whole shards, so the
per-shard hit counts (and therefore the estimate) are bit-identical for any
worker count. Each worker times its whole shard loop as one `sample` span,
so every worker records exactly one span, and returns its hit count; the
final tally across workers is not timed.

A sample is one 64-bit word of its shard's stream: the high 32 bits are x,
the low 32 bits are y, and the sample hits when x² + y² < 2⁶⁴, a test made
exactly in uint64 arithmetic (`_count_hits`). One word per sample is half
the draws of two doubles, and since no sample spans two words, the hits do
not depend on how a shard is cut into chunks. Integer coordinates count the
lattice points under the arc, which biases the estimate by about
4/2³² ≈ 9·10⁻¹⁰, far below its sampling error of about 1/√N.

A chunk of `_CHUNK` samples takes eight numpy calls (`random_raw`, shift,
two multiplies, and, add, compare, count). Each releases the GIL and must
take it back, and a worker waiting for it is inside its `sample` span, so
that wait counts as computation. A p=2 worker of an 8M run makes 1,024 of
these calls: 32 shards of four 2¹⁵-sample chunks.

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

from ..measurement import SEED_MASK, RunHandle, RunRecord
from ._pool import part_sizes, run_workers

#: Logical RNG shards, independent of worker count.
N_SHARDS = 64

#: Samples drawn per numpy call. Each of a chunk's eight calls can hand the
#: GIL to the other worker, so smaller chunks slow a two-worker run: pi-weak's
#: p=2 run took 1.24× the wall time at 2¹⁴ as at 2¹⁵, and 1.4× at 2¹³ as at
#: 2¹⁴. Each chunk also gets a fresh array from `random_raw`; large enough,
#: its pages go back to the kernel when it is freed and fault in again on
#: the next call. Minor faults per pi-weak sweep read 11–16 at 2¹⁴, 11–16
#: at 2¹⁵ in 23 of 24 sweeps (149 in one), and 7.8k–10.2k at 2¹⁶.
_CHUNK = 1 << 15


@dataclass(frozen=True)
class PiSpec:
    n_samples: int
    seed: int = 0

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")


def _scratch(chunk: int) -> tuple[np.ndarray, np.ndarray]:
    """Buffers for chunks of up to `chunk` samples: x², and the hit mask."""
    return np.empty(chunk, dtype=np.uint64), np.empty(chunk, dtype=bool)


def _count_hits(words: np.ndarray, x2: np.ndarray, mask: np.ndarray) -> int:
    """Hits among uint64 samples (x high, y low); overwrites `words`.

    x² and y² are exact in uint64 and their sum wraps modulo 2⁶⁴, so it is
    at least x² exactly when x² + y² < 2⁶⁴.
    """
    n = len(words)
    x2 = np.right_shift(words, 32, out=x2[:n])
    np.multiply(x2, x2, out=x2)
    s = np.bitwise_and(words, 0xFFFF_FFFF, out=words)
    np.multiply(s, s, out=s)
    np.add(s, x2, out=s)
    return int(np.count_nonzero(np.greater_equal(s, x2, out=mask[:n])))


def _sample_shard(seed: int, shard: int, m: int, x2: np.ndarray, mask: np.ndarray) -> int:
    bitgen = np.random.PCG64(np.random.SeedSequence([seed & SEED_MASK, shard]))
    return sum(_count_hits(bitgen.random_raw(min(_CHUNK, m - off)), x2, mask)
               for off in range(0, m, _CHUNK))


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
