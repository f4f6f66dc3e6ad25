"""Across-trial statistics.

The paper reports each data point as the result of 5 independent
trials.  We aggregate trial measurements into mean, standard deviation,
standard error and a 95 % Student-t confidence interval — enough to
judge whether curve separations (e.g. "migration beats no migration")
are real at the simulated scale.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

#: Two-sided coverage of every interval :func:`summarize` reports.
COVERAGE = 0.95


@dataclass(frozen=True)
class SummaryStats:
    """Aggregate of one measured quantity across trials."""

    n: int
    mean: float
    std: float
    stderr: float
    ci_low: float
    ci_high: float
    minimum: float
    maximum: float

    def __str__(self) -> str:
        half = (self.ci_high - self.ci_low) / 2.0
        return f"{self.mean:.4f} ± {half:.4f} (n={self.n})"


def _central(t: float, df: int) -> float:
    """P(|T| <= t) for Student's t with *df* degrees of freedom — the
    closed forms of Abramowitz & Stegun 26.7.3 (odd) and 26.7.4 (even)."""
    theta = math.atan(t / math.sqrt(df))
    c2 = math.cos(theta) ** 2
    odd = df % 2
    term = total = 1.0 if df > 1 else 0.0
    for k in range(3 if odd else 2, df - 1, 2):
        term *= c2 * (k - 1) / k
        total += term
    if odd:
        return 2.0 / math.pi * (theta + math.sin(theta) * math.cos(theta) * total)
    return math.sin(theta) * total


@functools.lru_cache(maxsize=None)
def _t_multiplier(df: int) -> float:
    """The two-sided :data:`COVERAGE` Student-t quantile for *df* >= 1
    degrees of freedom (12.706 at 1, 2.776 at 4, → 1.960 as df grows),
    by bisection on :func:`_central`."""
    low, high = 0.0, 1.0
    while _central(high, df) < COVERAGE:
        low, high = high, 2.0 * high
    for _ in range(100):
        mid = 0.5 * (low + high)
        if _central(mid, df) < COVERAGE:
            low = mid
        else:
            high = mid
    return high


def summarize(values: Sequence[float]) -> SummaryStats:
    """Summarise trial measurements.

    Uses the sample standard deviation (ddof=1) and a 95 % Student-t
    interval with ``n - 1`` degrees of freedom, ``mean ± t·sd/√n``.
    One trial gives a zero-width interval at its value.

    Raises:
        ValueError: for an empty sequence.
    """
    if not values:
        raise ValueError("cannot summarise zero trials")
    n = len(values)
    mean = sum(values) / n
    if n > 1:
        var = sum((v - mean) ** 2 for v in values) / (n - 1)
        std = math.sqrt(var)
    else:
        std = 0.0
    stderr = std / math.sqrt(n)
    half = _t_multiplier(n - 1) * stderr if n > 1 else 0.0
    return SummaryStats(
        n=n,
        mean=mean,
        std=std,
        stderr=stderr,
        ci_low=mean - half,
        ci_high=mean + half,
        minimum=min(values),
        maximum=max(values),
    )
