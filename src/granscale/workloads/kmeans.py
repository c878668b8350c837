"""Parallel Lloyd K-means with instrumented compute phases.

Each worker owns a block of points. Per iteration it assigns its block to
the nearest centroid and accumulates partial sums (both timed as compute
spans), publishes the partials, waits at a barrier (untimed, lands in
overhead), and then recomputes the new centroids itself from everyone's
partials (execution replication, timed). Partials are always merged in
worker order, so every worker holds bit-identical centroids and the
single-worker run reproduces the serial implementation exactly.

Assignment scores a point against each centroid as |c|^2 - 2 x.c, with one
matrix product per block of points. Each block is sized so the product runs
on the calling thread, so a p-worker run keeps p cores busy and no BLAS
helper thread adds CPU that the compute spans do not show. The score block
is centroid-major, one column per point: the nearest centroid is a minimum
down each column, and its first index comes from a second column reduction
over ranks, so ties go to the lowest index, as with argmin. Each selection
pass stacks several product blocks, so a worker makes few numpy calls, and
few GIL hand-offs, per point.

The dataset is column-major: each dimension is one contiguous array, so the
partial sums take one row-order bincount per dimension over contiguous
weights. Any other layout gives the same results, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, product

import numpy as np

from ..measurement import SEED_MASK, RunHandle, RunRecord, _check_types
from ._pool import part_sizes, run_workers

# Blob centers sit on a lattice with this spacing; blob noise is unit std,
# so clusters stay well separated for any k and dimension.
_CENTER_SPACING = 10.0

# Multiply-adds per scoring product in _assign, a (k, d) by (d, rows)
# product. OpenBLAS runs a product of at most 2**18 multiply-adds on the
# calling thread; a larger one wakes its own helper threads, which would
# spin next to the pool's workers.
_BLOCK_MULADDS = 1 << 18

# Scores per selection pass in _assign: as many whole product blocks as fit,
# and at least one (3 blocks, 768 KB, at k=16, d=8). Each numpy call
# releases the GIL and takes it back, and two workers on two cores wait for
# each other at the take. A pass makes one matmul call for all its blocks
# and five more to pick the labels, so stacking blocks cuts the waits.
_PASS_SCORES = 3 << 15

# Values per block of normal draws in generate_dataset: 4096 rows at d=8, a
# 256-KB buffer that stays in cache while it is written into the columns.
_FILL_VALUES = 1 << 15


@dataclass(frozen=True)
class KMeansSpec:
    n_points: int
    n_clusters: int
    dims: int
    max_iterations: int = 10
    convergence_epsilon: float = 0.0
    seed: int = 0

    def __post_init__(self):
        _check_types(self)
        if self.n_points < 1 or self.n_clusters < 1:
            raise ValueError("n_points and n_clusters must be positive")
        if self.n_points < self.n_clusters:
            raise ValueError("n_points must be >= n_clusters")
        if self.dims < 1:
            raise ValueError("dims must be >= 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not 0 <= self.convergence_epsilon < math.inf:
            raise ValueError("convergence_epsilon must be finite and >= 0")


def _blob_centers(k: int, dims: int) -> np.ndarray:
    side = math.ceil(k ** (1.0 / dims))
    pts = []
    for coords in product(range(side), repeat=dims):
        pts.append(coords)
        if len(pts) == k:
            break
    return np.asarray(pts, dtype=float) * _CENTER_SPACING


def generate_dataset(spec: KMeansSpec) -> np.ndarray:
    """k well-separated Gaussian blobs, column-major; bit-identical for a fixed seed.

    Point i is blob i % k's center plus unit normal noise, drawn row by row.
    """
    rng = np.random.default_rng(spec.seed & SEED_MASK)
    n, k, dims = spec.n_points, spec.n_clusters, spec.dims
    # Blocks of whole blob cycles all start at blob 0, so one tiled block of
    # centers serves every block. Consecutive fills continue one stream of
    # draws (the values of one normal(size=(n, dims)) call), and each block
    # is written straight into its columns, so the result is the only large
    # array to fault in: no full-size draws, gathered centers or blob index.
    rows = min(n, k * max(1, _FILL_VALUES // (k * dims)))
    centers = np.tile(_blob_centers(k, dims), (-(-rows // k), 1))[:rows]
    noise = np.empty((rows, dims))
    columns = np.empty((dims, n))
    for lo in range(0, n, rows):
        block = rng.standard_normal(out=noise[:n - lo])
        np.add(block, centers[:len(block)], out=columns[:, lo:lo + rows].T)
    return columns.T


def _initial_centroids(spec: KMeansSpec, data: np.ndarray) -> np.ndarray:
    rng = np.random.default_rng(spec.seed & SEED_MASK)
    idx = rng.choice(spec.n_points, size=spec.n_clusters, replace=False)
    return data[idx].copy()


def _block_rows(k: int, dims: int) -> int:
    return max(1, _BLOCK_MULADDS // (k * dims))


def _assign(chunk: np.ndarray, centroids: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # |x - c|^2 = |x|^2 - 2 x.c + |c|^2, and |x|^2 is the same for every
    # centroid, so the first minimum of -2 x.c + |c|^2 is the nearest one.
    # Scores are centroid-major, (k, rows) per product block: a point's k
    # scores form a column, so the add and the selection are whole-block
    # passes and reductions over the centroid axis, not one short numpy
    # loop per point.
    k, dims = centroids.shape
    n = len(chunk)
    weights = -2.0 * centroids
    rows = _block_rows(k, dims)
    # A pass stacks up to `blocks` whole product blocks; the rows after the
    # last whole block make a pass of their own.
    blocks = max(1, _PASS_SCORES // (rows * k))
    full = n - n % rows
    bounds = sorted({*range(0, full, rows * blocks), full, n})
    shape = (min(blocks, max(1, n // rows)), k, min(rows, n))
    norms = np.repeat((centroids ** 2).sum(axis=1)[:, None], shape[2], axis=1)
    # Rank k - j marks centroid j, so the largest rank among a point's
    # minima is its lowest index, which is argmin's tie rule.
    ranks = np.arange(k, 0, -1, dtype=np.min_scalar_type(k))[:, None]
    # Work buffers once per call: fresh ones per pass would fault their
    # pages back in on every pass, inside the timed span.
    scores = np.empty(shape)
    hits = np.empty(shape, dtype=bool)
    ranked = np.empty(shape, dtype=ranks.dtype)
    best = np.empty((shape[0], 1, shape[2]))
    top = np.empty(n, dtype=ranks.dtype)
    # On the column-major dataset chunk.T has contiguous rows, so the blocks
    # are views; a row-major chunk goes to BLAS as a transposed operand.
    columns = chunk.T
    # Non-finite input is reported by the ValueError below, not by numpy's
    # invalid-value warnings on the way to it.
    with np.errstate(invalid="ignore"):
        for lo, hi in zip(bounds, bounds[1:]):
            width = min(rows, hi - lo)
            count = (hi - lo) // width
            block, hit, rank, low = (a[:count, :, :width] for a in (scores, hits, ranked, best))
            # One call, one (k, d) by (d, width) BLAS product per block.
            stack = columns[:, lo:hi].reshape(dims, count, width).transpose(1, 0, 2)
            np.matmul(weights, stack, out=block)
            block += norms[:, :width]
            np.minimum.reduce(block, axis=1, keepdims=True, out=low)
            np.equal(block, low, out=hit)
            np.multiply(hit, ranks, out=rank)
            np.maximum.reduce(rank, axis=1, out=top[lo:hi].reshape(count, width))
    # A NaN score makes its point's minimum NaN, which equals no score.
    if not top.all():
        raise ValueError("k-means scores are not finite: NaN or inf in the data or centroids")
    # The labels go to `out` when given: a caller that assigns every
    # iteration reuses one buffer instead of faulting in a fresh one.
    return np.subtract(k, top, dtype=np.intp, out=out)


def _partials(chunk: np.ndarray, labels: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    # One bincount per dimension adds each cluster's values in row order. On
    # column-major data each column is contiguous, so bincount reads its
    # weights in place and no (cluster, dim) index is built.
    counts = np.bincount(labels, minlength=k).astype(float)
    sums = np.empty((k, chunk.shape[1]))
    for j in range(chunk.shape[1]):
        sums[:, j] = np.bincount(labels, weights=chunk[:, j], minlength=k)
    return counts, sums


def _update(sums: np.ndarray, counts: np.ndarray, old: np.ndarray) -> np.ndarray:
    # Empty clusters keep their previous centroid.
    new = old.copy()
    occupied = counts > 0
    new[occupied] = sums[occupied] / counts[occupied, None]
    return new


def _check_data(spec: KMeansSpec, data: np.ndarray) -> None:
    if data.shape != (spec.n_points, spec.dims):
        raise ValueError(
            f"data shape {data.shape} does not match spec "
            f"({spec.n_points}, {spec.dims})"
        )


def kmeans_serial(spec: KMeansSpec, data: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Reference single-threaded Lloyd iterations; the correctness oracle."""
    _check_data(spec, data)
    centroids = _initial_centroids(spec, data)
    iterations = 0
    for _ in range(spec.max_iterations):
        labels = _assign(data, centroids)
        counts, sums = _partials(data, labels, spec.n_clusters)
        new = _update(sums, counts, centroids)
        displacement = float(np.max(np.abs(new - centroids)))
        centroids = new
        iterations += 1
        if displacement < spec.convergence_epsilon:
            break
    labels = _assign(data, centroids)
    return centroids, labels, iterations


def kmeans_parallel(
    spec: KMeansSpec,
    data: np.ndarray,
    workers: int,
    run_handle: RunHandle,
) -> tuple[np.ndarray, np.ndarray, RunRecord]:
    _check_data(spec, data)
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if workers > spec.n_points:
        raise ValueError("underfilled partition")

    init = _initial_centroids(spec, data)
    edges = [0, *accumulate(part_sizes(spec.n_points, workers))]
    k = spec.n_clusters

    partials: list = [None] * workers  # (counts, sums) of each worker
    labels = np.empty(spec.n_points, dtype=np.intp)

    def body(w, barrier):
        lo, hi = edges[w], edges[w + 1]
        chunk, own = data[lo:hi], labels[lo:hi]
        centroids = init.copy()
        iters = 0
        for _ in range(spec.max_iterations):
            with run_handle.span(w, "assign"):
                _assign(chunk, centroids, out=own)
            with run_handle.span(w, "partial_sums"):
                partials[w] = _partials(chunk, own, k)
            barrier.wait()  # exchange of partials: untimed, becomes overhead

            # Replicated centroid update; worker-order merge keeps every
            # worker's result bit-identical.
            with run_handle.span(w, "update"):
                total_counts, total_sums = (a.copy() for a in partials[0])
                for counts, sums in partials[1:]:
                    total_counts += counts
                    total_sums += sums
                new = _update(total_sums, total_counts, centroids)
                displacement = float(np.max(np.abs(new - centroids)))
                centroids = new

            iters += 1
            barrier.wait()  # partials consumed before the next overwrite
            if displacement < spec.convergence_epsilon:
                break

        with run_handle.span(w, "assign"):
            _assign(chunk, centroids, out=own)
        return centroids, iters  # bit-identical on every worker

    centroids, run_handle.iterations = run_workers(workers, body)[0]
    record = run_handle.finish()
    return centroids, labels, record
