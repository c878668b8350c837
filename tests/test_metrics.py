import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from granscale.metrics import (
    GranularityMetrics,
    TimingBreakdown,
    amdahl_speedup,
    granularity_metrics,
    gustafson_speedup,
    infer_amdahl_fraction,
    infer_gustafson_fraction,
    relative_error,
)


def metrics(workers, wall_clock, total_comp):
    return granularity_metrics(TimingBreakdown(workers, wall_clock, total_comp))


def with_granularity(g):
    """Metrics of a serial run with computation g and overhead 1 (up to rounding)."""
    return metrics(1, 1.0 + g, g)


class TestTimingBreakdown:
    def test_valid(self):
        b = TimingBreakdown(workers=4, wall_clock=10.0, total_comp=36.0)
        assert b.workers == 4

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(workers=0, wall_clock=1.0, total_comp=0.5),
            dict(workers=1, wall_clock=0.0, total_comp=0.0),
            dict(workers=1, wall_clock=1.0, total_comp=-0.1),
            dict(workers=4, wall_clock=10.0, total_comp=41.0),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            TimingBreakdown(**kwargs)

    def test_budget_epsilon_slack(self):
        # Just inside the timer-resolution slack.
        TimingBreakdown(workers=1, wall_clock=5.0, total_comp=5.0 + 4e-6)


class TestComputeOverhead:
    def test_serial_zero(self):
        assert metrics(1, 5.0, 5.0).overhead == 0.0

    def test_perfectly_efficient(self):
        assert metrics(4, 10.0, 40.0).overhead == 0.0

    def test_direct_arithmetic(self):
        r = metrics(4, 10.0, 36.0)
        assert r.overhead == pytest.approx(4.0)
        assert not r.overhead_clamped

    def test_clamps_timer_noise(self):
        r = metrics(1, 5.0, 5.0 + 4e-6)
        assert r.overhead == 0.0
        assert r.overhead_clamped

    def test_zero_iff_full_budget(self):
        for comp in (0.0, 10.0, 39.0):
            r = metrics(4, 10.0, comp)
            assert r.overhead >= 0.0
            assert (r.overhead == 0.0) == (comp == 4 * 10.0 or r.overhead_clamped)
        assert metrics(4, 10.0, 40.0).overhead == 0.0


class TestIsogranularity:
    def test_arithmetic(self):
        assert metrics(1, 10.0, 9.0).granularity == pytest.approx(9.0)

    def test_equal_split(self):
        assert metrics(1, 10.0, 5.0).granularity == pytest.approx(1.0)

    def test_zero_overhead_limit(self):
        assert metrics(1, 7.0, 7.0).granularity == math.inf

    def test_empty_measurement(self):
        with pytest.raises(ValueError, match="empty measurement"):
            metrics(1, 5e-10, 0.0)

    def test_overhead_floor(self):
        assert metrics(1, 1.0 + 5e-10, 1.0).granularity == math.inf
        assert math.isfinite(metrics(1, 1.0 + 2e-9, 1.0).granularity)


class TestEfficiency:
    @pytest.mark.parametrize("g,expected", [(9.0, 0.9), (1.0, 0.5), (0.0, 0.0)])
    def test_examples(self, g, expected):
        assert with_granularity(g).efficiency == pytest.approx(expected)

    def test_infinite(self):
        assert metrics(1, 7.0, 7.0).efficiency == 1.0

    def test_both_forms_agree(self):
        for g in np.logspace(-6, 6, 200):
            m = with_granularity(g)
            assert m.granularity == pytest.approx(g, rel=1e-9)
            assert abs(m.efficiency - 1.0 / (1.0 + 1.0 / m.granularity)) < 1e-12


class TestEstimatedSpeedup:
    @pytest.mark.parametrize(
        "e,p,expected", [(0.9, 4, 3.6), (1.0, 16, 16.0), (0.5, 8, 4.0)]
    )
    def test_examples(self, e, p, expected):
        # E = total_comp / (p * wall_clock), so a unit wall clock gives efficiency e.
        assert metrics(p, 1.0, e * p).estimated_speedup == pytest.approx(expected)


class TestScalingLaws:
    def test_amdahl_examples(self):
        assert amdahl_speedup(1.0, 16) == 16.0
        assert amdahl_speedup(0.0, 64) == 1.0
        assert amdahl_speedup(0.9, 8) == pytest.approx(1.0 / (0.1 + 0.9 / 8))

    def test_gustafson_examples(self):
        assert gustafson_speedup(1.0, 512) == 512.0
        assert gustafson_speedup(0.0, 512) == 1.0
        assert gustafson_speedup(0.9, 8) == pytest.approx(7.3)

    def test_monotone_in_n_and_fraction(self):
        ns = [1, 2, 4, 8, 64, 512]
        fracs = np.linspace(0.0, 1.0, 11)
        for f in fracs:
            amd = [amdahl_speedup(f, n) for n in ns]
            gus = [gustafson_speedup(f, n) for n in ns]
            assert amd == sorted(amd)
            assert gus == sorted(gus)
        for n in ns:
            amd = [amdahl_speedup(f, n) for f in fracs]
            gus = [gustafson_speedup(f, n) for f in fracs]
            assert amd == sorted(amd)
            assert gus == sorted(gus)

    def test_amdahl_bound(self):
        for f in np.linspace(0.0, 0.999, 50):
            for n in (2, 8, 64, 1024):
                s = amdahl_speedup(f, n)
                assert s <= min(n, 1.0 / (1.0 - f)) + 1e-12

    def test_bad_params(self):
        for law in (amdahl_speedup, gustafson_speedup):
            with pytest.raises(ValueError, match="parallel fraction"):
                law(1.5, 8)
            with pytest.raises(ValueError):
                law(0.0, 0)


class TestFractionInference:
    def test_amdahl_examples(self):
        assert infer_amdahl_fraction(8.0, 8).value == pytest.approx(1.0)
        assert infer_amdahl_fraction(1.0, 8).value == pytest.approx(0.0)
        # Verified against a brute-force scan below.
        assert infer_amdahl_fraction(4.70588, 8).value == pytest.approx(0.9, abs=1e-5)

    def test_amdahl_brute_force_scan(self):
        # Independent check: the inverse must agree with the best fraction on
        # a dense grid of forward evaluations.
        target, n = 4.70588, 8
        grid = np.linspace(0.0, 1.0, 100001)
        forward = np.array([amdahl_speedup(f, n) for f in grid])
        best = grid[np.argmin(np.abs(forward - target))]
        assert infer_amdahl_fraction(target, n).value == pytest.approx(best, abs=1e-4)

    def test_gustafson_examples(self):
        assert infer_gustafson_fraction(7.3, 8).value == pytest.approx(0.9)
        assert infer_gustafson_fraction(1.0, 8).value == pytest.approx(0.0)
        # Inverse of the published weak-scaling speedup 7.948 at 8 workers.
        assert infer_gustafson_fraction(7.948, 8).value == pytest.approx(
            (7.948 - 1.0) / 7.0
        )
        assert infer_gustafson_fraction(7.948, 8).value == pytest.approx(0.992571, abs=1e-6)

    def test_round_trip_grids(self):
        ns = [2 ** k for k in range(1, 11)]
        for f in np.linspace(0.0, 1.0, 21):
            for n in ns:
                s = amdahl_speedup(f, n)
                assert infer_amdahl_fraction(s, n).value == pytest.approx(f, abs=1e-9)
                s = gustafson_speedup(f, n)
                assert infer_gustafson_fraction(s, n).value == pytest.approx(f, abs=1e-9)

    def test_anomaly_flagging(self):
        assert infer_amdahl_fraction(10.0, 8).anomalous  # superlinear
        assert infer_amdahl_fraction(0.5, 8).anomalous  # below serial
        assert infer_gustafson_fraction(9.5, 8).anomalous
        assert not infer_amdahl_fraction(4.0, 8).anomalous

    def test_n_too_small(self):
        with pytest.raises(ValueError):
            infer_amdahl_fraction(1.5, 1)
        with pytest.raises(ValueError):
            infer_gustafson_fraction(1.5, 1)


class TestRelativeError:
    def test_examples(self):
        assert relative_error(100.0, 116.0) == pytest.approx(0.16)
        assert relative_error(8.0, 8.0) == 0.0
        assert relative_error(8.0, 7.6) == pytest.approx(-0.05)

    def test_rejects_nonpositive_actual(self):
        with pytest.raises(ValueError):
            relative_error(0.0, 1.0)


class TestPipelineIdentity:
    @given(
        workers=st.integers(min_value=1, max_value=64),
        wall=st.floats(min_value=1e-3, max_value=1e4),
        frac=st.floats(min_value=0.0, max_value=0.999),
    )
    def test_estimator_reduces_to_comp_over_wall(self, workers, wall, frac):
        # total_comp strictly below the budget keeps overhead positive.
        total_comp = workers * wall * frac
        b = TimingBreakdown(workers, wall, total_comp)
        m = granularity_metrics(b)
        if m.overhead > 1e-9:
            assert m.estimated_speedup == pytest.approx(total_comp / wall, rel=1e-9)

    def test_closed_form_example(self):
        b = TimingBreakdown(4, 10.0, 36.0)
        m = granularity_metrics(b)
        assert m.estimated_speedup == pytest.approx(36.0 / 10.0)
        assert m.granularity == pytest.approx(9.0)
        assert m.efficiency == pytest.approx(0.9)

    @pytest.mark.parametrize("breakdown, expected", [
        ((4, 10.0, 36.0), GranularityMetrics(4.0, 9.0, 0.9, 3.6, False)),
        ((1, 5.0, 5.0 + 4e-6), GranularityMetrics(0.0, math.inf, 1.0, 1.0, True)),
        ((8, 1.0, 4.0), GranularityMetrics(4.0, 1.0, 0.5, 4.0, False)),
    ], ids=["overhead", "clamped", "equal-split"])
    def test_exact_metrics(self, breakdown, expected):
        assert metrics(*breakdown) == expected

    @pytest.mark.parametrize("breakdown", [
        (1, math.nan, 0.5), (1, 1.0, math.nan), (math.nan, 1.0, 0.5), (1, math.inf, math.inf),
    ], ids=["nan-wall", "nan-comp", "nan-workers", "inf-wall-and-comp"])
    def test_non_finite_rejected(self, breakdown):
        with pytest.raises(ValueError):
            metrics(*breakdown)
