"""Order statistics for cell timings."""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence

#: A tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10


def tail_percentile(n: int, beyond: int = TAIL_BEYOND) -> Optional[int]:
    """The highest whole percentile with at least ``beyond`` of ``n``
    samples above it, or None when even the median does not qualify."""
    if n <= 0:
        return None
    p = (100 * (n - beyond)) // n
    return p if p >= 50 else None


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``p`` percent of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def _beta_cdf_steps(a: float, b: float, n: int, sub: int = 16) -> list:
    """The Beta(a, b) probability mass of each interval
    ``[(i - 1) / n, i / n]``, i = 1..n, by Simpson's rule on ``sub``
    panels per interval, normalized to sum to 1 (a, b >= 1)."""
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def pdf(x: float) -> float:
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(x)
                        + (b - 1) * math.log1p(-x))

    h = 1.0 / (n * sub)
    masses = []
    for i in range(n):
        x0 = i / n
        total = pdf(x0) + pdf(x0 + sub * h)
        for k in range(1, sub):
            total += (4 if k % 2 else 2) * pdf(x0 + k * h)
        masses.append(total * h / 3)
    s = sum(masses)
    return [m / s for m in masses]


def harrell_davis(values: Sequence[float], p: float) -> float:
    """The Harrell-Davis estimate of the ``p``-th percentile: a weighted
    mean of all order statistics, with Beta((n + 1) q, (n + 1)(1 - q))
    weights (q = p / 100).  Unlike a single order statistic it does not
    jump when the samples next to the rank trade places across a gap
    between cells, which is what makes the percentiles of a few dozen
    distinct cells steady from seed to seed."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    n = len(ordered)
    if n == 1:
        return ordered[0]
    q = p / 100.0
    weights = _beta_cdf_steps(q * (n + 1), (1 - q) * (n + 1), n)
    return sum(w * x for w, x in zip(weights, ordered))
