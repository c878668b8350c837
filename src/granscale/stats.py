"""Repetition statistics: Tukey 1.5*IQR outlier rejection.

Quartiles use linear interpolation on order statistics (the type-7
convention, numpy's default), stated explicitly so results reproduce
bit-for-bit elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

# Fences only apply from this many samples; below it every value is kept.
MIN_SAMPLES_FOR_REJECTION = 3


@dataclass(frozen=True)
class OutlierDecision:
    kept: tuple[float, ...]
    rejected: tuple[float, ...]
    fences: tuple[float, float]


def filter_outliers(values: Sequence[float]) -> OutlierDecision:
    """Reject values beyond 1.5 interquartile ranges from the quartiles, on both sides.

    This two-sided Tukey rule is the sweep's only outlier rule.
    """
    vals = tuple(float(v) for v in values)
    if not vals:
        raise ValueError("outlier filter of empty input")
    q1, q3 = map(float, np.quantile(vals, [0.25, 0.75]))
    iqr = q3 - q1
    lower, upper = q1 - 1.5 * iqr, q3 + 1.5 * iqr
    if len(vals) < MIN_SAMPLES_FOR_REJECTION:
        return OutlierDecision(kept=vals, rejected=(), fences=(lower, upper))
    kept = tuple(v for v in vals if lower <= v <= upper)
    rejected = tuple(v for v in vals if not lower <= v <= upper)
    return OutlierDecision(kept=kept, rejected=rejected, fences=(lower, upper))
