"""Core speedup/efficiency arithmetic.

Everything here is a pure function over immutable values. The estimator,
granularity_metrics, is four lines of arithmetic over one run's timing
breakdown: overhead = p*T_wall - total_comp, G = total_comp/overhead,
E = G/(G+1) and S = E*p. Next to it sit the classic strong/weak scaling
laws, their algebraic inverses used when fitting measured speedups back to
a parallel fraction, and the relative error of an estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

#: Overheads below this (seconds) are treated as timer noise, not signal.
OVERHEAD_FLOOR = 1e-9

# Slack on the total_comp <= workers * wall_clock budget, covering timer
# resolution when spans butt up against the wall-clock envelope.
_BUDGET_EPS = 1e-6


@dataclass(frozen=True)
class TimingBreakdown:
    """One run's worker count, wall-clock time, and summed computation time."""

    workers: int
    wall_clock: float
    total_comp: float

    def __post_init__(self):
        # Negated comparisons also reject NaN, which no estimate can come from.
        if not self.workers >= 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if not self.wall_clock > 0:
            raise ValueError(f"wall_clock must be positive, got {self.wall_clock}")
        if not 0 <= self.total_comp < math.inf:
            raise ValueError(f"total_comp must be finite and >= 0, got {self.total_comp}")
        budget = self.workers * self.wall_clock * (1.0 + _BUDGET_EPS)
        if self.total_comp > budget:
            raise ValueError(
                f"total_comp {self.total_comp} exceeds available worker-seconds "
                f"{self.workers} * {self.wall_clock}"
            )


@dataclass(frozen=True)
class GranularityMetrics:
    """Derived overhead, granularity, efficiency, and estimated speedup."""

    overhead: float
    granularity: float
    efficiency: float
    estimated_speedup: float
    overhead_clamped: bool = False


class FractionEstimate(NamedTuple):
    """Inferred parallel fraction; anomalous marks a clamped (out-of-model) fit."""

    value: float
    anomalous: bool


def granularity_metrics(breakdown: TimingBreakdown) -> GranularityMetrics:
    """The estimator: overhead, granularity G, efficiency E = G/(G+1), speedup S = E*p.

    A negative raw overhead (possible only through timer noise at
    workers=1) clamps to zero and sets overhead_clamped. An overhead below
    OVERHEAD_FLOOR is indistinguishable from timer noise, so G is infinite
    and E is 1; with no computation either, the run measured nothing.
    """
    workers, comp = breakdown.workers, breakdown.total_comp
    overhead = workers * breakdown.wall_clock - comp
    clamped = overhead < 0.0
    if clamped:
        overhead = 0.0
    if overhead < OVERHEAD_FLOOR:
        if comp == 0.0:
            raise ValueError("empty measurement")
        g = math.inf
    else:
        g = comp / overhead
    # comp / overhead can itself overflow to inf; E is 1 there too.
    e = 1.0 if math.isinf(g) else g / (g + 1.0)
    return GranularityMetrics(
        overhead=overhead,
        granularity=g,
        efficiency=e,
        estimated_speedup=e * workers,
        overhead_clamped=clamped,
    )


def _check_fraction(f: float) -> None:
    if not 0.0 <= f <= 1.0:
        raise ValueError(f"parallel fraction must be in [0, 1], got {f}")


def amdahl_speedup(f: float, n: int) -> float:
    """Strong-scaling speedup at n units for parallel fraction f: 1 / ((1-f) + f/n)."""
    _check_fraction(f)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if f == 1.0:
        return float(n)
    return 1.0 / ((1.0 - f) + f / n)


def gustafson_speedup(f: float, n: int) -> float:
    """Weak-scaling speedup at n units for scaled parallel fraction f: 1 + (n-1) * f."""
    _check_fraction(f)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return 1.0 + (n - 1) * f


def infer_amdahl_fraction(measured_speedup: float, n: int) -> FractionEstimate:
    """Invert the strong-scaling law for the parallel fraction.

    Speedups outside [1, n] cannot come from the model; the result is
    clamped to [0, 1] and flagged anomalous (superlinear/sublinear).
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if measured_speedup <= 0:
        return FractionEstimate(0.0, True)
    raw = (1.0 / measured_speedup - 1.0) / (1.0 / n - 1.0)
    clamped = min(1.0, max(0.0, raw))
    return FractionEstimate(clamped, clamped != raw)


def infer_gustafson_fraction(measured_speedup: float, n: int) -> FractionEstimate:
    """Invert the weak-scaling law for the scaled parallel fraction."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if measured_speedup < 0:
        raise ValueError(f"measured_speedup must be >= 0, got {measured_speedup}")
    raw = (measured_speedup - 1.0) / (n - 1.0)
    clamped = min(1.0, max(0.0, raw))
    return FractionEstimate(clamped, clamped != raw)


def relative_error(actual_speedup: float, estimated: float) -> float:
    """Signed relative error of an estimate: (estimated - actual) / actual."""
    if actual_speedup <= 0:
        raise ValueError(f"actual_speedup must be positive, got {actual_speedup}")
    return (estimated - actual_speedup) / actual_speedup
