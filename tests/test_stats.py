import random
import statistics

import numpy as np
import pytest
from hypothesis import given, strategies as st

from granscale.stats import filter_outliers


class TestQuartiles:
    """The fences sit 1.5 IQR outside the type-7 quartiles (interpolated at (n-1)*q)."""

    def test_five_values(self):
        # Quartiles at positions 1.0 and 3.0 on [1..5]: 2 and 4, IQR 2.
        assert filter_outliers([1, 2, 3, 4, 5]).fences == (-1.0, 7.0)

    def test_single_value(self):
        assert filter_outliers([7]).fences == (7.0, 7.0)

    def test_four_values(self):
        # Positions 0.75 and 2.25: 1 + 0.75*(2-1) = 1.75, 3 + 0.25*(4-3) = 3.25.
        assert filter_outliers([1, 2, 3, 4]).fences == (-0.5, 5.5)

    def test_empty(self):
        with pytest.raises(ValueError):
            filter_outliers([])


class TestFilterOutliers:
    def test_rejects_high_outlier(self):
        d = filter_outliers([10, 11, 12, 13, 50])
        assert d.rejected == (50,)
        assert statistics.mean(d.kept) == pytest.approx(11.5)

    def test_zero_iqr_keeps_all(self):
        d = filter_outliers([5, 5, 5, 5])
        assert d.rejected == ()
        assert d.kept == (5, 5, 5, 5)

    def test_below_minimum_size_disabled(self):
        d = filter_outliers([1, 2])
        assert d.kept == (1.0, 2.0)
        assert d.rejected == ()

    def test_partition_preserved(self):
        values = [1.0, 2.0, 3.0, 4.0, 100.0, 2.5]
        d = filter_outliers(values)
        assert sorted(d.kept + d.rejected) == sorted(values)
        lower, upper = d.fences
        assert all(lower <= v <= upper for v in d.kept)
        assert all(not (lower <= v <= upper) for v in d.rejected)

    def test_lower_outlier_rejected(self):
        # The rule is two-sided: a value far below the quartiles goes too.
        assert filter_outliers([-100.0, 10, 11, 12, 13]).rejected == (-100.0,)


class TestProperties:
    @given(
        st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=50)
    )
    def test_median_never_rejected(self, values):
        med = statistics.median(values)
        d = filter_outliers(values)
        lower, upper = d.fences
        assert lower <= med <= upper

    def test_median_never_rejected_1000_multisets(self):
        rng = random.Random(1234)
        for _ in range(1000):
            n = rng.randint(1, 30)
            values = [rng.choice([rng.uniform(-1e3, 1e3), rng.randint(-5, 5)]) for _ in range(n)]
            med = statistics.median(values)
            d = filter_outliers(values)
            lower, upper = d.fences
            assert lower <= med <= upper
            assert all(v in d.kept for v in values if v == med)

    @given(
        st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=3, max_size=30),
        st.randoms(),
    )
    def test_permutation_invariance(self, values, rnd):
        shuffled = list(values)
        rnd.shuffle(shuffled)
        a = filter_outliers(values)
        b = filter_outliers(shuffled)
        assert sorted(a.kept) == sorted(b.kept)
        assert sorted(a.rejected) == sorted(b.rejected)
        assert a.fences == b.fences

    @given(
        st.lists(st.floats(min_value=-1e3, max_value=1e3, allow_nan=False), min_size=3, max_size=30)
    )
    def test_inserting_inside_fences_never_unrejects_rejected(self, values):
        # Adding a central value can shrink the IQR and reject previously
        # kept extremes (e.g. [0, 5, 5, 10] + 5 collapses the fences), but it
        # can never rescue a value that was already rejected.
        d = filter_outliers(values)
        q1, q3 = np.quantile(values, [0.25, 0.75])
        inside = q1 if q1 == q3 else (q1 + q3) / 2.0
        d2 = filter_outliers(list(values) + [inside])
        remaining = list(d2.rejected)
        for v in d.rejected:
            assert v in remaining
            remaining.remove(v)
