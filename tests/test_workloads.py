import hashlib
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import granscale
from granscale.measurement import aggregate, begin_run
from granscale.metrics import granularity_metrics
from granscale.workloads import (
    KMeansSpec,
    PiSpec,
    SyntheticSpec,
    generate_dataset,
    kmeans_parallel,
    kmeans_serial,
    monte_carlo_pi,
    synthetic_run,
)
from granscale.workloads import montecarlo
from granscale.workloads._pool import part_sizes, run_workers
from granscale.workloads.kmeans import (
    _BLOCK_MULADDS,
    _FILL_VALUES,
    _assign,
    _blob_centers,
    _block_rows,
    _initial_centroids,
    _partials,
)
from granscale.workloads.montecarlo import (
    _CHUNK,
    N_SHARDS,
    _count_hits,
    _sample_shard,
    _scratch,
)

PHASES = {"assign", "partial_sums", "update", "sample", "busy"}


def _run_kmeans(spec, data, workers):
    h = begin_run("kmeans", workers, spec.n_points, spec.seed)
    return kmeans_parallel(spec, data, workers, h)


def _sq_distances(points, centroids):
    return ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)


def _sha256(array):
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


class TestDataset:
    def test_deterministic(self):
        spec = KMeansSpec(n_points=1000, n_clusters=4, dims=2, seed=42)
        assert np.array_equal(generate_dataset(spec), generate_dataset(spec))

    def test_minimal_one_point_per_blob(self):
        spec = KMeansSpec(n_points=4, n_clusters=4, dims=2, seed=1)
        data = generate_dataset(spec)
        assert data.shape == (4, 2)
        # One point per blob: pairwise distances reflect the blob separation.
        assert np.sqrt(_sq_distances(data, data)).max() > 5.0

    def test_paper_scale_shape_only(self):
        spec = KMeansSpec(n_points=983040, n_clusters=1024, dims=8, seed=42)
        data = generate_dataset(spec)
        assert data.shape == (983040, 8)

    def test_invariants(self):
        with pytest.raises(ValueError):
            KMeansSpec(n_points=3, n_clusters=4, dims=2)
        with pytest.raises(ValueError):
            KMeansSpec(n_points=4, n_clusters=4, dims=0)

    @pytest.mark.parametrize("epsilon", [-1.0, math.nan, math.inf])
    def test_epsilon_must_be_finite(self, epsilon):
        # A NaN or infinite epsilon would reach the results header as a
        # bare NaN or Infinity token, which strict JSON parsers refuse.
        with pytest.raises(ValueError, match="convergence_epsilon must be finite"):
            KMeansSpec(n_points=4, n_clusters=4, dims=2, convergence_epsilon=epsilon)

    def test_pinned_bytes(self):
        spec = KMeansSpec(n_points=1000, n_clusters=4, dims=2, seed=42)
        assert _sha256(generate_dataset(spec)) == (
            "a1fe2909112d3d804c2b339af3dcd230d608c61f43cccd66db8f2c2b59609a79")

    def test_column_major(self):
        data = generate_dataset(KMeansSpec(n_points=5000, n_clusters=16, dims=8, seed=1))
        assert data.flags.f_contiguous and not data.flags.c_contiguous

    @staticmethod
    def _one_call_reference(spec):
        rng = np.random.default_rng(spec.seed)
        centers = _blob_centers(spec.n_clusters, spec.dims)
        data = rng.normal(size=(spec.n_points, spec.dims))
        return data + centers[np.arange(spec.n_points) % spec.n_clusters]

    # (1, 4): a single point; (5, 3): k divides neither the block nor most n;
    # (3000, 16): k larger than the nominal block of _FILL_VALUES // dims rows.
    @pytest.mark.parametrize("k, dims", [(1, 4), (16, 8), (5, 3), (1024, 8), (3000, 16)])
    def test_blocked_fill_matches_one_call(self, k, dims):
        block = k * max(1, _FILL_VALUES // (k * dims))
        for n in sorted({1, k, block - 1, block, block + 1, 2 * block + 3}):
            if n < k:
                continue
            spec = KMeansSpec(n_points=n, n_clusters=k, dims=dims, seed=n)
            assert _sha256(generate_dataset(spec)) == _sha256(self._one_call_reference(spec))


class TestKernels:
    @staticmethod
    def _first_nearest(points, centroids):
        return _sq_distances(points, centroids).argmin(axis=1)

    @staticmethod
    def _assign_per_row(chunk, centroids):
        # The row-major kernel: one (rows, k) score block per product, then
        # an argmin along each row. _assign must give its label bytes.
        k, dims = centroids.shape
        weights = np.ascontiguousarray(-2.0 * centroids.T)
        norms = (centroids ** 2).sum(axis=1)
        rows = _block_rows(k, dims)
        labels = np.empty(len(chunk), dtype=np.intp)
        for lo in range(0, len(chunk), rows):
            scores = chunk[lo:lo + rows] @ weights
            scores += norms
            scores.argmin(axis=1, out=labels[lo:lo + rows])
        return labels

    # 255 and 256 straddle the switch of the rank dtype from uint8 to
    # uint16; k=1 has a one-row rank column. 4block+1 and 7block cross the
    # boundaries of passes that stack several blocks.
    @pytest.mark.parametrize("k", [1, 2, 255, 256, 1024])
    @pytest.mark.parametrize("dims", [1, 3, 8])
    @pytest.mark.parametrize("offset", ["one", "block-1", "block", "block+1", "2block+3",
                                        "4block+1", "7block"])
    def test_labels_match_the_per_row_kernel(self, k, dims, offset):
        block = _block_rows(k, dims)
        n = {"one": 1, "block-1": block - 1, "block": block, "block+1": block + 1,
             "2block+3": 2 * block + 3, "4block+1": 4 * block + 1, "7block": 7 * block}[offset]
        rng = np.random.default_rng(n + k)
        chunk_f = np.asfortranarray(rng.normal(size=(n, dims)))
        centroids = rng.normal(size=(k, dims))
        expected = self._assign_per_row(chunk_f, centroids).tobytes()
        assert _assign(chunk_f, centroids).tobytes() == expected
        assert _assign(np.ascontiguousarray(chunk_f), centroids).tobytes() == expected

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_integer_ties_match_the_per_row_kernel(self, data):
        k = data.draw(st.integers(1, 40), label="k")
        dims = data.draw(st.integers(1, 4), label="dims")
        n = data.draw(st.integers(1, 200), label="n")
        # Small integers make every score exact, so equal distances tie exactly.
        coords = st.integers(-3, 3)
        points = data.draw(hnp.arrays(np.int8, (n, dims), elements=coords)).astype(float)
        centroids = data.draw(hnp.arrays(np.int8, (k, dims), elements=coords)).astype(float)
        if data.draw(st.booleans(), label="column-major"):
            points = np.asfortranarray(points)
        labels = _assign(points, centroids)
        assert labels.tobytes() == self._assign_per_row(points, centroids).tobytes()
        assert np.array_equal(labels, self._first_nearest(points, centroids))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["data", "centroids"])
    def test_non_finite_scores_raise(self, value, where):
        rng = np.random.default_rng(5)
        points = rng.normal(size=(3000, 3))
        centroids = rng.normal(size=(7, 3))
        if where == "data":
            points[2500, 1] = value
            # A zero weight times inf is NaN.
            centroids[3, 1] = 0.0
        else:
            centroids[4, 0] = value
        with pytest.raises(ValueError, match="not finite"):
            _assign(points, centroids)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_raises_without_warnings(self, value):
        rng = np.random.default_rng(6)
        points = rng.normal(size=(3000, 3))
        centroids = rng.normal(size=(7, 3))
        points[2500, 1] = value
        centroids[3, 1] = 0.0
        spec = KMeansSpec(n_points=3000, n_clusters=7, dims=3, max_iterations=2, seed=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="not finite"):
                _assign(points, centroids)
            with pytest.raises(ValueError, match="not finite"):
                _run_kmeans(spec, points, 2)

    def test_labels_written_to_out(self):
        rng = np.random.default_rng(9)
        points = rng.normal(size=(5000, 8))
        centroids = rng.normal(size=(16, 8))
        out = np.full(len(points), -1, dtype=np.intp)
        assert _assign(points, centroids, out=out) is out
        assert out.tobytes() == _assign(points, centroids).tobytes()

    def test_ties_take_the_lowest_index(self):
        # Integer coordinates make every score exact, so midpoints tie exactly.
        centroids = np.array([[2.0, 2.0], [0.0, 2.0], [2.0, 0.0], [0.0, 0.0]])
        points = np.array([[1.0, 2.0], [2.0, 1.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
        assert _assign(points, centroids).tolist() == [0, 0, 0, 1, 2]

    def test_ties_on_an_integer_grid(self):
        rng = np.random.default_rng(3)
        points = rng.integers(-6, 7, size=(5000, 3)).astype(float)
        centroids = rng.integers(-6, 7, size=(24, 3)).astype(float)
        assert np.array_equal(_assign(points, centroids),
                              self._first_nearest(points, centroids))

    @pytest.mark.parametrize("k, dims", [(16, 8), (5, 3), (1024, 8)])
    @pytest.mark.parametrize("offset", ["one", "block-1", "block", "block+1", "2block+3"])
    def test_block_boundaries(self, k, dims, offset):
        block = _block_rows(k, dims)
        n = {"one": 1, "block-1": block - 1, "block": block, "block+1": block + 1,
             "2block+3": 2 * block + 3}[offset]
        rng = np.random.default_rng(n)
        points = rng.normal(size=(n, dims))
        centroids = rng.normal(size=(k, dims))
        assert np.array_equal(_assign(points, centroids),
                              self._first_nearest(points, centroids))

    def test_block_budget(self):
        assert _BLOCK_MULADDS == 1 << 18
        for k in (1, 2, 5, 16, 40, 1024):
            for dims in (1, 2, 3, 8, 64):
                rows = _block_rows(k, dims)
                assert rows * k * dims <= _BLOCK_MULADDS < (rows + 1) * k * dims
        assert _block_rows(16, 8) == 2048

    @pytest.mark.parametrize("k, dims", [(16, 8), (5, 3), (1024, 8)])
    @pytest.mark.parametrize("offset", ["one", "block-1", "block+1", "2block+3"])
    def test_kernels_ignore_memory_order(self, k, dims, offset):
        block = _block_rows(k, dims)
        n = {"one": 1, "block-1": block - 1, "block+1": block + 1,
             "2block+3": 2 * block + 3}[offset]
        rng = np.random.default_rng(n)
        # A row slice of a column-major array, as a worker's chunk is.
        chunk_f = np.asfortranarray(rng.normal(size=(n + 3, dims)))[2:n + 2]
        chunk_c = np.ascontiguousarray(chunk_f)
        centroids = rng.normal(size=(k, dims))
        labels = _assign(chunk_f, centroids)
        assert labels.tobytes() == _assign(chunk_c, centroids).tobytes()
        for f, c in zip(_partials(chunk_f, labels, k), _partials(chunk_c, labels, k)):
            assert f.tobytes() == c.tobytes()

    @staticmethod
    def _partials_per_column(chunk, labels, k):
        counts = np.bincount(labels, minlength=k).astype(float)
        sums = np.empty((k, chunk.shape[1]))
        for j in range(chunk.shape[1]):
            sums[:, j] = np.bincount(labels, weights=chunk[:, j], minlength=k)
        return counts, sums

    @pytest.mark.parametrize("n, k, dims", [(1, 3, 2), (5000, 16, 8), (3000, 40, 2), (777, 9, 5)])
    def test_partials_bit_identical_to_per_column(self, n, k, dims):
        rng = np.random.default_rng(n)
        chunk = rng.normal(scale=1e3, size=(n, dims))
        # Labels below k - 1 leave the last cluster empty.
        labels = rng.integers(0, k - 1, size=n)
        counts, sums = _partials(chunk, labels, k)
        ref_counts, ref_sums = self._partials_per_column(chunk, labels, k)
        assert np.array_equal(counts, ref_counts) and np.array_equal(sums, ref_sums)
        assert sums.shape == (k, dims) and counts[-1] == 0

    def test_pinned_centroids_on_bench_shape(self):
        spec = KMeansSpec(n_points=50_000, n_clusters=16, dims=8, max_iterations=10, seed=1)
        centroids, _, iterations = kmeans_serial(spec, generate_dataset(spec))
        assert iterations == 10
        assert _sha256(centroids) == (
            "9d7b7b867cc67f08182818dd3e78c1b651cd7250bcee751161ccfdee3db1749f")


def test_import_graph_has_no_scipy():
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(granscale.__file__))}
    code = ("import sys, granscale, granscale.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


class TestKMeansSerial:
    def test_square_corners_fixed_point(self):
        # 4 points at the corners of a square with one centroid seeded on
        # each point: already converged.
        data = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        spec = KMeansSpec(n_points=4, n_clusters=4, dims=2, max_iterations=10,
                          convergence_epsilon=1e-9, seed=0)
        centroids, labels, iterations = kmeans_serial(spec, data)
        assert iterations == 1
        assert sorted(map(tuple, centroids)) == sorted(map(tuple, data))
        assert len(set(labels)) == 4

    def test_k1_closed_form(self):
        spec = KMeansSpec(n_points=50, n_clusters=1, dims=3, max_iterations=1, seed=3)
        data = generate_dataset(spec)
        centroids, labels, _ = kmeans_serial(spec, data)
        assert centroids[0] == pytest.approx(data.mean(axis=0))
        assert set(labels) == {0}

    def test_assignments_match_brute_force(self):
        spec = KMeansSpec(n_points=1000, n_clusters=4, dims=2, max_iterations=10, seed=42)
        data = generate_dataset(spec)
        centroids, labels, _ = kmeans_serial(spec, data)
        # Independent nearest-centroid check over all points.
        brute = np.array(
            [min(range(4), key=lambda j: np.sum((x - centroids[j]) ** 2)) for x in data]
        )
        assert np.array_equal(labels, brute)

    def test_objective_nonincreasing(self):
        spec = KMeansSpec(n_points=500, n_clusters=8, dims=3, max_iterations=1, seed=9)
        data = generate_dataset(spec)

        def objective(centroids):
            return float(_sq_distances(data, centroids).min(axis=1).sum())

        # Re-run with growing iteration caps; the Lloyd objective must not rise.
        values = []
        for iters in range(1, 8):
            c, _, _ = kmeans_serial(
                KMeansSpec(n_points=500, n_clusters=8, dims=3, max_iterations=iters, seed=9),
                data,
            )
            values.append(objective(c))
        assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("p", [1, 2, 4])
class TestPool:
    def test_worker_zero_is_the_calling_thread(self, p):
        idents = run_workers(p, lambda w, barrier: threading.get_ident())
        assert idents[0] == threading.get_ident()
        assert threading.get_ident() not in idents[1:]

    def test_starts_one_thread_per_other_worker(self, p, monkeypatch):
        started = []
        start = threading.Thread.start

        def counting_start(thread):
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        run_workers(p, lambda w, barrier: None)
        assert started == [f"granscale-worker-{w}" for w in range(1, p)]

    def test_results_in_worker_order(self, p):
        def body(w, barrier):
            barrier.wait()
            return (w, w * w)

        assert run_workers(p, body) == [(w, w * w) for w in range(p)]

    @pytest.mark.parametrize("failing", ["first", "last"])
    def test_worker_error_reaches_caller(self, p, failing):
        bad = 0 if failing == "first" else p - 1
        t0 = time.monotonic()
        with pytest.raises(KeyError) as excinfo:
            run_workers(p, _failing_body(p, bad))
        assert excinfo.value.args == (bad,)
        assert time.monotonic() - t0 < 20
        assert not [t for t in threading.enumerate()
                    if t.name.startswith("granscale-worker-")]


def _failing_body(p, bad):
    """A body whose worker `bad` raises KeyError(bad) once its p-1 peers wait."""
    def body(w, barrier):
        if w != bad:
            barrier.wait(timeout=30)  # bounds a deadlock; the abort must end it first
            return
        deadline = time.monotonic() + 10
        while barrier.n_waiting < p - 1 and time.monotonic() < deadline:
            time.sleep(0.001)
        raise KeyError(w)

    return body


class TestPinning:
    """Worker w of a run with p >= 2 = |mask| pins itself to the mask's w-th CPU."""

    @pytest.fixture
    def pins(self, monkeypatch):
        """Fake a CPU mask of {0, 1} and log every set call as (thread name, mask)."""
        calls = []
        self.fake_mask(monkeypatch, {0, 1})

        def record(pid, cpus):
            assert pid == 0
            calls.append((threading.current_thread().name, set(cpus)))

        monkeypatch.setattr(os, "sched_setaffinity", record, raising=False)
        return calls

    @staticmethod
    def fake_mask(monkeypatch, mask):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(mask), raising=False)

    @staticmethod
    def name(w):
        return threading.current_thread().name if w == 0 else f"granscale-worker-{w}"

    @staticmethod
    def meet(w, barrier):
        barrier.wait(timeout=30)  # every worker is pinned before worker 0 restores
        return w

    @pytest.mark.parametrize("mask, p", [({0, 1}, 2), ({0, 1, 2, 3}, 4),
                                         ({3, 0, 2}, 3), ({1, 3}, 2)])
    def test_each_worker_pinned_once_then_mask_restored(self, pins, monkeypatch, mask, p):
        self.fake_mask(monkeypatch, mask)
        cpus = sorted(mask)
        assert run_workers(p, self.meet) == list(range(p))
        assert sorted(pins[:-1]) == sorted((self.name(w), {cpus[w]}) for w in range(p))
        assert pins[-1] == (self.name(0), mask)

    def test_mask_1_3_maps_workers_to_cpus_1_and_3(self, pins, monkeypatch):
        self.fake_mask(monkeypatch, {1, 3})
        run_workers(2, self.meet)
        assert sorted(pins[:-1]) == [(self.name(0), {1}), ("granscale-worker-1", {3})]

    @pytest.mark.parametrize("failing", ["first", "last"])
    def test_mask_restored_after_a_failing_run(self, pins, failing):
        p = 2
        with pytest.raises(KeyError):
            run_workers(p, _failing_body(p, 0 if failing == "first" else p - 1))
        assert len(pins) == p + 1
        assert pins[-1] == (self.name(0), {0, 1})

    def test_pin_error_reaches_caller(self, pins, monkeypatch):
        record = os.sched_setaffinity

        def refuse_cpu_1(pid, cpus):
            record(pid, cpus)
            if set(cpus) == {1}:
                raise OSError(22, "Invalid argument")

        monkeypatch.setattr(os, "sched_setaffinity", refuse_cpu_1)
        with pytest.raises(OSError):
            run_workers(2, self.meet)
        assert pins[-1] == (self.name(0), {0, 1})
        assert not [t for t in threading.enumerate()
                    if t.name.startswith("granscale-worker-")]

    @pytest.mark.parametrize("mask, p", [({0, 1, 2, 3}, 1), ({0}, 2), ({0, 1}, 3),
                                         ({2, 5}, 4), ({0, 1, 2, 3}, 2), ({0, 1, 2}, 2),
                                         ({0, 1, 2, 3}, 3)])
    def test_no_pin_unless_workers_equal_cpus(self, pins, monkeypatch, mask, p):
        self.fake_mask(monkeypatch, mask)
        assert run_workers(p, self.meet) == list(range(p))
        assert pins == []

    def test_no_pin_on_a_platform_without_affinity_calls(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.delattr(os, "sched_setaffinity", raising=False)
        assert run_workers(2, self.meet) == [0, 1]

    @pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
                        reason="needs an affinity mask of at least 2 CPUs")
    def test_real_run_pins_two_workers_to_two_cpus(self):
        before = os.sched_getaffinity(0)
        two = set(sorted(before)[:2])
        os.sched_setaffinity(0, two)  # a mask of exactly p CPUs, whatever the host has
        try:
            masks = run_workers(2, lambda w, barrier: os.sched_getaffinity(0))
            after = os.sched_getaffinity(0)
        finally:
            os.sched_setaffinity(0, before)
        assert all(len(m) == 1 for m in masks)
        assert masks[0] != masks[1]
        assert masks[0] | masks[1] == two
        assert after == two


class TestKMeansParallel:
    def test_single_worker_bit_identical(self):
        for seed in (0, 1, 7, 42, 12345):
            spec = KMeansSpec(n_points=300, n_clusters=5, dims=3, max_iterations=6, seed=seed)
            data = generate_dataset(spec)
            c_s, a_s, _ = kmeans_serial(spec, data)
            c_p, a_p, _ = _run_kmeans(spec, data, 1)
            assert np.array_equal(c_s, c_p)
            assert np.array_equal(a_s, a_p)
            assert a_p.dtype == a_s.dtype

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_row_major_input_gives_the_same_result(self, workers):
        spec = KMeansSpec(n_points=6001, n_clusters=16, dims=8, max_iterations=5, seed=3)
        data = generate_dataset(spec)
        c_f, a_f, rec_f = _run_kmeans(spec, data, workers)
        c_c, a_c, rec_c = _run_kmeans(spec, np.ascontiguousarray(data), workers)
        assert c_f.tobytes() == c_c.tobytes() and a_f.tobytes() == a_c.tobytes()
        assert rec_f.iterations == rec_c.iterations

    def test_four_workers_close_to_serial(self):
        spec = KMeansSpec(n_points=1000, n_clusters=4, dims=2, max_iterations=10, seed=42)
        data = generate_dataset(spec)
        c_s, _, _ = kmeans_serial(spec, data)
        c_p, _, _ = _run_kmeans(spec, data, 4)
        assert np.max(np.abs(c_p - c_s)) < 1e-6

    def test_record_structure(self):
        spec = KMeansSpec(n_points=4000, n_clusters=16, dims=4, max_iterations=3, seed=1)
        data = generate_dataset(spec)
        _, _, rec = _run_kmeans(spec, data, 8)
        assert rec.workers == 8
        per_worker = {w: 0 for w in range(8)}
        for s in rec.spans:
            per_worker[s.worker_id] += 1
            assert s.phase_label in PHASES
        # At least assignment + partial-sum spans per iteration per worker.
        assert all(n >= 2 * rec.iterations for n in per_worker.values())

    def test_partition_property(self):
        for n, p in [(10, 3), (100, 7), (16, 16), (5, 1)]:
            edges = [0, *accumulate(part_sizes(n, p))]
            bounds = list(zip(edges, edges[1:]))
            sizes = [hi - lo for lo, hi in bounds]
            assert sum(sizes) == n
            assert max(sizes) - min(sizes) <= 1
            assert bounds[0][0] == 0 and bounds[-1][1] == n

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["data", "centroids"])
    @pytest.mark.parametrize("workers", [None, 2])
    def test_non_finite_input_raises(self, value, where, workers):
        spec = KMeansSpec(n_points=4000, n_clusters=6, dims=3, max_iterations=4, seed=8)
        data = generate_dataset(spec)
        seeded = {int(np.flatnonzero((data == c).all(axis=1))[0])
                  for c in _initial_centroids(spec, data)}
        # A point that seeds a centroid, or one that does not, in the second
        # worker's half of the rows.
        row = next(i for i in range(3000, spec.n_points) if (i in seeded) == (where == "centroids"))
        data[row, 1] = value
        with pytest.raises(ValueError, match="not finite"):
            if workers is None:
                kmeans_serial(spec, data)
            else:
                _run_kmeans(spec, data, workers)

    def test_underfilled_partition(self):
        spec = KMeansSpec(n_points=4, n_clusters=2, dims=2, seed=0)
        data = generate_dataset(spec)
        with pytest.raises(ValueError, match="underfilled partition"):
            _run_kmeans(spec, data, 8)


class TestMonteCarloPi:
    def test_single_sample_extreme(self):
        h = begin_run("pi", 1, 1, 3)
        est, _ = monte_carlo_pi(PiSpec(n_samples=1, seed=3), 1, h)
        assert est in (0.0, 4.0)

    def test_worker_count_invariance(self):
        estimates = []
        for p in (1, 2, 3, 4):
            h = begin_run("pi", p, 100_000, 42)
            est, rec = monte_carlo_pi(PiSpec(n_samples=100_000, seed=42), p, h)
            estimates.append(est)
            assert {s.worker_id for s in rec.spans} == set(range(p))
        assert len(set(estimates)) == 1

    def test_accuracy(self):
        h = begin_run("pi", 2, 1_000_000, 7)
        est, _ = monte_carlo_pi(PiSpec(n_samples=1_000_000, seed=7), 2, h)
        # Binomial std dev at N=1e6 is ~1.6e-3; 0.02 is a >12 sigma bound.
        assert abs(est - math.pi) < 0.02

    def test_tiny_sample_worker_coverage(self):
        # More workers than non-empty shards: idle workers still record a span.
        h = begin_run("pi", 4, 2, 5)
        _, rec = monte_carlo_pi(PiSpec(n_samples=2, seed=5), 4, h)
        assert {s.worker_id for s in rec.spans} == set(range(4))
        assert rec.flags == ()

    @pytest.mark.parametrize("n_samples, workers", [
        (100_000, 1), (100_000, 2), (100_000, 4), (2, 4),
    ])
    def test_one_sample_span_per_worker(self, n_samples, workers):
        h = begin_run("pi", workers, n_samples, 7)
        _, rec = monte_carlo_pi(PiSpec(n_samples, seed=7), workers, h)
        assert len(rec.spans) == workers
        assert sorted(s.worker_id for s in rec.spans) == list(range(workers))
        assert {s.phase_label for s in rec.spans} == {"sample"}

    @staticmethod
    def _reference_hits(seed, shard, m):
        # The definition the in-place kernel must match, in Python integers:
        # two samples per word, its low 32 bits first, then its high 32 bits.
        # With bits 16 and 0 set, x is a sample's high and y its low 16 bits.
        bitgen = np.random.PCG64(np.random.SeedSequence([seed & ((1 << 64) - 1), shard]))
        samples = [half for v in bitgen.random_raw((m + 1) // 2).tolist()
                   for half in (v & 0xFFFFFFFF, v >> 32)][:m]
        odd = [s | 0x0001_0001 for s in samples]
        return sum((s >> 16) ** 2 + (s & 0xFFFF) ** 2 < 2**32 for s in odd)

    # Chunk boundaries, those of the earlier 2¹⁴- and 2¹⁵-sample chunks, odd
    # shards (the last word's high half unused), and shards of about a
    # million samples: many chunks with a ragged last one.
    @pytest.mark.parametrize("m", [1, 2, 3, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3,
                                   16_383, 16_384, 16_385, 32_767, 32_768, 32_769, 32_771,
                                   65_539, 999_999, 1_000_000, 1_000_001])
    @pytest.mark.parametrize("seed", [0, 7, -3, (1 << 64) - 1])
    def test_sample_shard_matches_reference(self, m, seed):
        expected = self._reference_hits(seed, 5, m)
        # Buffers sized for this shard, and the run-wide size a smaller
        # shard shares with the largest one.
        for chunk in {min(_CHUNK, m), _CHUNK}:
            assert _sample_shard(seed, 5, m, *_scratch(chunk)) == expected

    @pytest.mark.parametrize("chunk", [1 << 12, 1 << 14, 1 << 15, 1 << 16])
    def test_estimate_independent_of_chunk(self, chunk, monkeypatch):
        # Each shard counted from one unchunked draw is the reference; a
        # dropped, repeated or overlapping chunk changes some shard's hits.
        n = 1_000_003
        hits = sum(_count_hits(np.random.PCG64(np.random.SeedSequence([7, shard]))
                               .random_raw((m + 1) // 2), m, *_scratch(m))
                   for shard, m in enumerate(part_sizes(n, N_SHARDS)))
        monkeypatch.setattr(montecarlo, "_CHUNK", chunk)
        for p in (1, 2, 3):
            est, _ = monte_carlo_pi(PiSpec(n, seed=7), p, begin_run("pi", p, n, 7))
            assert est == 4.0 * hits / n

    @pytest.mark.parametrize("x, y, hit", [
        (1, 1, True),
        (65535, 361, True),  # 65535² + 361² = 2³² − 750: the sum stays below 2³²
        (361, 65535, True),
        (65535, 363, False),  # 65535² + 363² = 2³² + 698: the sum wraps
        (363, 65535, False),
        (46341, 46341, False),  # 2·46341² = 2³² + 9266
        (65535, 65535, False),  # the wrap edge: the largest sum, 2³³ − 2¹⁸ + 2
    ])
    def test_hit_test_at_the_wrap_around(self, x, y, hit):
        # The kernel sets bits 16 and 0, so the sample reads the same odd x and
        # y with those bits clear. The word's high half, 0, is a second sample
        # that would hit; it lies past n = 1.
        for low_bits in (0, 0x0001_0001):
            sample = (x << 16 | y) & ~0x0001_0001 | low_bits
            words = np.array([sample], dtype=np.uint64)
            assert _count_hits(words, 1, *_scratch(1)) == hit

    @pytest.mark.parametrize("n_samples, workers, expected", [
        (8_000_000, 1, 3.1409495),
        (8_000_000, 2, 3.1409495),
        (4_000_000, 1, 3.140885),
    ])
    def test_pinned_estimates(self, n_samples, workers, expected):
        h = begin_run("pi", workers, n_samples, 7)
        est, _ = monte_carlo_pi(PiSpec(n_samples, seed=7), workers, h)
        assert est == expected

    @pytest.mark.parametrize("n_samples, workers", [(8_000_000, 2), (4_000_000, 1)])
    def test_scratch_allocated_once_per_worker(self, n_samples, workers):
        # Per worker, the uint32 and bool scratch (5 B/sample) and the one
        # chunk of words `random_raw` returns (4 B/sample) are the only
        # sizeable allocations; a temporary the size of a shard (4 B for each
        # of 62.5k or 125k samples) breaks the bound.
        chunk = min(_CHUNK, max(part_sizes(n_samples, N_SHARDS)))
        # A first run in a process imports numpy.random (about 0.7 MB).
        monte_carlo_pi(PiSpec(N_SHARDS, seed=7), workers, begin_run("pi", workers, N_SHARDS, 7))
        h = begin_run("pi", workers, n_samples, 7)
        tracemalloc.start()
        try:
            monte_carlo_pi(PiSpec(n_samples, seed=7), workers, h)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= workers * 9 * chunk + 64 * 1024


class TestSynthetic:
    def test_measured_granularity_matches_construction(self):
        spec = SyntheticSpec(compute_ms_per_worker=90, exchange_ms_per_worker=10, iterations=5)
        h = begin_run("synthetic", 4, 5, 0)
        rec = synthetic_run(spec, 4, h)
        m = granularity_metrics(aggregate(rec))
        assert m.granularity == pytest.approx(9.0, rel=0.15)

    def test_equal_split_efficiency(self):
        spec = SyntheticSpec(compute_ms_per_worker=10, exchange_ms_per_worker=10, iterations=10)
        h = begin_run("synthetic", 2, 10, 0)
        rec = synthetic_run(spec, 2, h)
        m = granularity_metrics(aggregate(rec))
        assert abs(m.efficiency - 0.5) <= 0.08

    def test_serial_no_overhead_limit(self):
        spec = SyntheticSpec(compute_ms_per_worker=50, exchange_ms_per_worker=0.001,
                             iterations=5)
        h = begin_run("synthetic", 1, 5, 0)
        rec = synthetic_run(spec, 1, h)
        m = granularity_metrics(aggregate(rec))
        assert m.efficiency > 0.9

    def test_simulated_mode_exact(self):
        spec = SyntheticSpec(90, 10, 10, simulate=True)
        h = begin_run("synthetic", 4, 10, 0)
        rec = synthetic_run(spec, 4, h)
        b = aggregate(rec)
        assert b.wall_clock == pytest.approx(1.0)
        assert b.total_comp == pytest.approx(4 * 0.9)
        m = granularity_metrics(b)
        assert m.granularity == pytest.approx(9.0)
        assert m.efficiency == pytest.approx(0.9)

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            SyntheticSpec(0.0, 1.0, 1)
        with pytest.raises(ValueError):
            SyntheticSpec(1.0, 1.0, 0)

    @pytest.mark.parametrize("field", ["compute_ms_per_worker", "exchange_ms_per_worker"])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    def test_durations_must_be_finite_and_positive(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite and > 0"):
            SyntheticSpec(**{"compute_ms_per_worker": 1.0, "exchange_ms_per_worker": 1.0,
                             field: value})

    def test_phase_labels(self):
        h = begin_run("synthetic", 2, 2, 0)
        rec = synthetic_run(SyntheticSpec(1, 1, 2), 2, h)
        assert {s.phase_label for s in rec.spans} == {"busy"}
