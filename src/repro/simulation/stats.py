"""Descriptive statistics and confidence intervals.

The paper reports means, medians, standard deviations, ranges, and
99 % confidence intervals (Figure 2's error analysis, Tables 3 and 5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

#: Continued-fraction convergence: relative step below which the
#: incomplete-beta evaluation stops, and a floor that keeps the
#: modified Lentz recurrence away from division by zero.
_CF_EPSILON = 1e-16
_CF_TINY = 1e-300
_CF_MAX_TERMS = 1000


@dataclass(frozen=True)
class SummaryStatistics:
    count: int
    total: float
    mean: float
    median: float
    std: float
    minimum: float
    maximum: float

    def format_row(self) -> str:
        return (f"n={self.count} total={self.total:.2f} mean={self.mean:.2f} "
                f"median={self.median:.2f} std={self.std:.2f} "
                f"max={self.maximum:.2f}")


def summarize(values: Sequence[float]) -> SummaryStatistics:
    """Mean/median/std/min/max of *values* (sample std, ddof=1)."""
    data = sorted(float(v) for v in values)
    if not data:
        return SummaryStatistics(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    count = len(data)
    total = sum(data)
    mean = total / count
    middle = count // 2
    if count % 2:
        median = data[middle]
    else:
        median = (data[middle - 1] + data[middle]) / 2
    if count > 1:
        variance = sum((v - mean) ** 2 for v in data) / (count - 1)
        std = math.sqrt(variance)
    else:
        std = 0.0
    return SummaryStatistics(count=count, total=total, mean=mean,
                             median=median, std=std,
                             minimum=data[0], maximum=data[-1])


def ci99_halfwidth(values: Sequence[float]) -> float:
    """Half-width of the 99 % confidence interval about the mean,
    using the t distribution (the paper quotes +/- bounds)."""
    data = [float(v) for v in values]
    if len(data) < 2:
        return 0.0
    summary = summarize(data)
    t_critical = student_t_quantile(0.995, len(data) - 1)
    return float(t_critical * summary.std / math.sqrt(len(data)))


def mean_with_ci(values: Sequence[float]) -> str:
    """Render ``mean +/- ci99`` the way Figure 2's caption does."""
    summary = summarize(values)
    return f"{summary.mean:.2f} +/- {ci99_halfwidth(values):.2f}"


# ----------------------------------------------------------------------
# the Student t quantile, in the standard library
# ----------------------------------------------------------------------
def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function, evaluated
    with the modified Lentz method (converges for x < (a+1)/(a+b+2))."""
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > _CF_TINY else _CF_TINY)
    result = d
    for m in range(1, _CF_MAX_TERMS + 1):
        m2 = 2 * m
        for numerator in (m * (b - m) * x / ((a + m2 - 1.0) * (a + m2)),
                          -(a + m) * (a + b + m) * x
                          / ((a + m2) * (a + m2 + 1.0))):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > _CF_TINY else _CF_TINY)
            c = 1.0 + numerator / c
            if abs(c) < _CF_TINY:
                c = _CF_TINY
            step = c * d
            result *= step
        if abs(step - 1.0) < _CF_EPSILON:
            break
    return result


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and 0 <= x <= 1."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    log_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                 + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(log_front) * _beta_continued_fraction(a, b, x) / a
    return 1.0 - (math.exp(log_front)
                  * _beta_continued_fraction(b, a, 1.0 - x) / b)


def _t_upper_tail(t: float, df: int) -> float:
    """P(T > t) for t >= 0 under Student's t with *df* degrees."""
    return 0.5 * regularized_incomplete_beta(df / 2.0, 0.5,
                                             df / (df + t * t))


def student_t_quantile(probability: float, df: int) -> float:
    """Inverse CDF of Student's t: the t with P(T <= t) = *probability*,
    for an upper-half *probability* (the confidence-interval quantile).

    Bisects the t CDF (from the regularized incomplete beta function)
    until the bracket stops shrinking, so the result is as exact as
    the CDF itself (about 2 ms at df 200).  ``tests/simulation/
    test_stats.py`` pins the 99 % two-sided quantile for df 1-200 to a
    committed reference table.
    """
    if df < 1:
        raise ValueError(f"degrees of freedom must be positive: {df}")
    if not 0.5 < probability < 1.0:
        raise ValueError(f"probability must be in (0.5, 1): {probability}")
    tail = 1.0 - probability
    low, high = 0.0, 1.0
    while _t_upper_tail(high, df) > tail:
        low, high = high, 2.0 * high
    while True:
        middle = 0.5 * (low + high)
        if middle <= low or middle >= high:
            return high
        if _t_upper_tail(middle, df) > tail:
            low = middle
        else:
            high = middle
