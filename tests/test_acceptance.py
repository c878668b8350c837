"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria 4 and 5 compare estimated against conventionally measured speedup
and only hold on hardware that can actually run the workers in parallel;
they are skipped (with the reason printed) on hosts with fewer than 4 CPUs.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import math
import os
import random
import statistics
import time

import numpy as np
import pytest

from granscale import (
    ExperimentPlan,
    KMeansSpec,
    PiSpec,
    SyntheticSpec,
    TimingBreakdown,
    amdahl_speedup,
    begin_run,
    generate_dataset,
    granularity_metrics,
    gustafson_speedup,
    infer_amdahl_fraction,
    infer_gustafson_fraction,
    kmeans_parallel,
    kmeans_serial,
    monte_carlo_pi,
    run_plan,
    scalability_verdict,
    validate_fixture,
)
from granscale.harness import resume
from granscale.stats import filter_outliers

NEEDS_CORES = 4
HAVE_CORES = (os.cpu_count() or 1) >= NEEDS_CORES
skip_few_cores = pytest.mark.skipif(
    not HAVE_CORES,
    reason=f"criterion requires a machine with >= {NEEDS_CORES} logical CPUs; "
    f"host reports {os.cpu_count()}",
)


class _Budget:
    def __init__(self, criterion: str, seconds: float):
        self.criterion = criterion
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.criterion}: {status} ({elapsed:.2f}s)")
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion {self.criterion} exceeded its {self.seconds}s budget: "
                f"{elapsed:.2f}s"
            )
        return False


def test_criterion_1_formula_suite():
    with _Budget("1 (formula suite)", 1.0):
        for n in (2, 4, 8, 16, 64, 512, 1024):
            assert amdahl_speedup(1.0, n) == n
            assert gustafson_speedup(1.0, n) == n
        for f in np.linspace(0.0, 1.0, 41):
            for n in (2, 4, 8, 16, 32, 64, 128, 256, 512, 1024):
                s = amdahl_speedup(f, n)
                assert abs(infer_amdahl_fraction(s, n).value - f) < 1e-9
                s = gustafson_speedup(f, n)
                assert abs(infer_gustafson_fraction(s, n).value - f) < 1e-9
        for g in np.logspace(-6, 6, 500):
            # A serial run with computation g and overhead 1 (up to rounding).
            m = granularity_metrics(TimingBreakdown(1, 1.0 + g, g))
            assert m.granularity == pytest.approx(g, rel=1e-9)
            assert abs(m.efficiency - 1.0 / (1.0 + 1.0 / m.granularity)) < 1e-12


def test_criterion_2_fixture_regression():
    with _Budget("2 (fixture regression)", 1.0):
        v = validate_fixture()
        assert v.passed
        by_key = {(c.problem_size, c.workers): c for c in v.cells}
        assert by_key[(983040, 32)].computed_speedup == pytest.approx(31.478, abs=1e-3)
        assert by_key[(983040, 32)].published_speedup == 31.431
        for c in v.cells:
            if c.gated:
                assert c.deviation <= 0.05, (c.problem_size, c.workers)
        assert len(v.anomalous) > 0  # excluded cells must still be reported
        assert "EXCLUDED" in v.report_text()


def test_criterion_3_synthetic_oracle():
    with _Budget("3 (synthetic oracle)", 30.0):
        plan = ExperimentPlan(
            workload=SyntheticSpec(
                compute_ms_per_worker=90, exchange_ms_per_worker=10, iterations=10
            ),
            mode="strong",
            worker_counts=(4,),
            base_problem_size=10,
            problem_sizes=(10,),
            repetitions=5,
            seed=42,
        )
        cells = {c.workers: c for c in run_plan(plan).cells}
        assert sorted(cells) == [1, 4]
        # Every worker computes 90 ms and exchanges 10 ms, so G = 9 at any p.
        for cell in cells.values():
            assert abs(cell.metrics.granularity - 9.0) <= 0.15 * 9.0, cell.metrics
            assert abs(cell.metrics.efficiency - 0.9) <= 0.05, cell.metrics


@skip_few_cores
def test_criterion_4_desk_scale_estimator_agreement():
    with _Budget("4 (estimator agreement)", 300.0):
        kmeans_plan = ExperimentPlan(
            workload=KMeansSpec(
                n_points=100_000, n_clusters=16, dims=8, max_iterations=10, seed=42
            ),
            mode="strong",
            worker_counts=(1, 2, 4),
            base_problem_size=100_000,
            problem_sizes=(100_000,),
            repetitions=5,
            seed=42,
        )
        pi_plan = ExperimentPlan(
            workload=PiSpec(n_samples=10_000_000, seed=42),
            mode="strong",
            worker_counts=(1, 2, 4),
            base_problem_size=10_000_000,
            problem_sizes=(10_000_000,),
            repetitions=5,
            seed=42,
        )
        for plan in (kmeans_plan, pi_plan):
            for cell in run_plan(plan).cells:
                assert cell.relative_error is not None
                assert abs(cell.relative_error) <= 0.20, (
                    plan.workload_id, cell.cell_key, cell.relative_error,
                )


@skip_few_cores
def test_criterion_5_weak_scaling_property():
    with _Budget("5 (weak scaling)", 180.0):
        plan = ExperimentPlan(
            workload=KMeansSpec(
                n_points=25_000, n_clusters=16, dims=8, max_iterations=10, seed=42
            ),
            mode="weak",
            worker_counts=(1, 2, 4),
            base_problem_size=25_000,
            repetitions=3,
            seed=42,
        )
        res = run_plan(plan)
        # The fixed per-worker-size track; the p=1 baselines of the larger
        # sizes lie off it.
        walls = [c.mean_wall for c in res.cells if c.problem_size == 25_000 * c.workers]
        assert len(walls) == 3
        assert (max(walls) - min(walls)) / min(walls) <= 0.25, walls
        assert scalability_verdict(res) == "scalable"


def test_criterion_6_correctness_oracles():
    with _Budget("6 (correctness oracles)", 60.0):
        for seed in (0, 1, 7, 42, 99):
            spec = KMeansSpec(
                n_points=2000, n_clusters=8, dims=4, max_iterations=10, seed=seed
            )
            data = generate_dataset(spec)
            c_serial, _, _ = kmeans_serial(spec, data)
            handle = begin_run("kmeans", 4, spec.n_points, seed)
            c_par, _, _ = kmeans_parallel(spec, data, 4, handle)
            assert np.max(np.abs(c_par - c_serial)) < 1e-6, seed

        spec = PiSpec(n_samples=10_000_000, seed=42)
        estimates = []
        for p in (1, 2, 4):
            handle = begin_run("pi", p, spec.n_samples, spec.seed)
            est, _ = monte_carlo_pi(spec, p, handle)
            estimates.append(est)
        assert estimates[0] == estimates[1] == estimates[2]
        assert abs(estimates[0] - math.pi) < 0.01


def test_criterion_7_statistics_protocol():
    with _Budget("7 (statistics protocol)", 5.0):
        d = filter_outliers([10, 11, 12, 13, 50])
        assert d.rejected == (50,)
        assert sorted(d.kept) == [10, 11, 12, 13]

        rng = random.Random(20260823)
        for _ in range(1000):
            n = rng.randint(1, 40)
            values = [
                rng.choice([rng.uniform(-1e4, 1e4), float(rng.randint(-3, 3))])
                for _ in range(n)
            ]
            med = statistics.median(values)
            d = filter_outliers(values)
            lower, upper = d.fences
            assert lower <= med <= upper
            assert all(v in d.kept for v in values if v == med)


def test_criterion_8_persistence_resume(tmp_path):
    with _Budget("8 (persistence/resume)", 60.0):
        plan = ExperimentPlan(
            workload=SyntheticSpec(5, 1, 1, simulate=True),
            mode="strong",
            worker_counts=(1, 2, 4),
            base_problem_size=4,
            problem_sizes=(4, 8),
            repetitions=3,
            seed=42,
        )
        full = tmp_path / "full.jsonl"
        run_plan(plan, out_path=full)
        full_bytes = full.read_bytes()
        lines = full.read_text().splitlines(keepends=True)
        assert len(lines) == 1 + 6

        # Simulate a kill after cell 3: the file is written incrementally,
        # so an interrupted sweep leaves exactly a prefix.
        interrupted = tmp_path / "interrupted.jsonl"
        interrupted.write_text("".join(lines[: 1 + 3]))
        resume(interrupted)
        resumed_bytes = interrupted.read_bytes()
        assert resumed_bytes == full_bytes
