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
helper thread adds CPU that the compute spans do not show.

The dataset is column-major: each dimension is one contiguous array, so the
partial sums take one row-order bincount per dimension over contiguous
weights. Any other layout gives the same results, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, product

import numpy as np

from ..measurement import RunHandle, RunRecord
from ._pool import part_sizes, run_workers

_SEED_MASK = (1 << 64) - 1

# Blob centers sit on a lattice with this spacing; blob noise is unit std,
# so clusters stay well separated for any k and dimension.
_CENTER_SPACING = 10.0

# Multiply-adds per scoring product in _assign. OpenBLAS runs a product of
# at most 2**18 multiply-adds on the calling thread; a larger one wakes its
# own helper threads, which would spin next to the pool's workers.
_BLOCK_MULADDS = 1 << 18

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
        if self.n_points < 1 or self.n_clusters < 1:
            raise ValueError("n_points and n_clusters must be positive")
        if self.n_points < self.n_clusters:
            raise ValueError("n_points must be >= n_clusters")
        if self.dims < 1:
            raise ValueError("dims must be >= 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.convergence_epsilon < 0:
            raise ValueError("convergence_epsilon must be >= 0")


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
    rng = np.random.default_rng(spec.seed & _SEED_MASK)
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
    rng = np.random.default_rng(spec.seed & _SEED_MASK)
    idx = rng.choice(spec.n_points, size=spec.n_clusters, replace=False)
    return data[idx].copy()


def _block_rows(k: int, dims: int) -> int:
    return max(1, _BLOCK_MULADDS // (k * dims))


def _assign(chunk: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    # |x - c|^2 = |x|^2 - 2 x.c + |c|^2, and |x|^2 is the same for every
    # centroid, so the argmin of -2 x.c + |c|^2 picks the nearest one.
    k, dims = centroids.shape
    # C order: OpenBLAS multiplies by a row-major (dims, k) operand about
    # twice as fast as by the transposed view of the centroids.
    weights = np.ascontiguousarray(-2.0 * centroids.T)
    norms = (centroids ** 2).sum(axis=1)
    rows = _block_rows(k, dims)
    labels = np.empty(len(chunk), dtype=np.intp)
    # One score buffer per call: a fresh one per block would fault its pages
    # back in on every block, inside the timed span.
    buffer = np.empty((min(rows, len(chunk)), k))
    for lo in range(0, len(chunk), rows):
        block = chunk[lo:lo + rows]
        scores = buffer[:len(block)]
        np.matmul(block, weights, out=scores)
        scores += norms
        scores.argmin(axis=1, out=labels[lo:lo + rows])
    return labels


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

    partial_counts: list = [None] * workers
    partial_sums: list = [None] * workers
    labels_out = np.empty(spec.n_points, dtype=np.int64)

    def body(w, barrier):
        lo, hi = edges[w], edges[w + 1]
        chunk = data[lo:hi]
        centroids = init.copy()
        iters = 0
        for _ in range(spec.max_iterations):
            with run_handle.span(w, "assign"):
                labels = _assign(chunk, centroids)
            with run_handle.span(w, "partial_sums"):
                counts, sums = _partials(chunk, labels, k)

            partial_counts[w] = counts
            partial_sums[w] = sums
            barrier.wait()  # exchange of partials: untimed, becomes overhead

            # Replicated centroid update; worker-order merge keeps every
            # worker's result bit-identical.
            with run_handle.span(w, "update"):
                total_counts = partial_counts[0].copy()
                total_sums = partial_sums[0].copy()
                for other in range(1, workers):
                    total_counts += partial_counts[other]
                    total_sums += partial_sums[other]
                new = _update(total_sums, total_counts, centroids)
                displacement = float(np.max(np.abs(new - centroids)))
                centroids = new

            iters += 1
            barrier.wait()  # partials consumed before the next overwrite
            if displacement < spec.convergence_epsilon:
                break

        with run_handle.span(w, "assign"):
            labels_out[lo:hi] = _assign(chunk, centroids)
        return centroids, iters  # bit-identical on every worker

    centroids, run_handle.iterations = run_workers(workers, body)[0]
    record = run_handle.finish()
    return centroids, labels_out, record
