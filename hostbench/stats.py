"""Order statistics the benchmark reports and judges by."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: percentiles a tail may be reported at, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)

#: a tail percentile needs at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100), linear between closest ranks."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(n: int) -> float:
    """The highest ladder percentile with at least ``MIN_BEYOND`` of
    ``n`` samples beyond it; the median when even 75 has too few."""
    for q in TAIL_LADDER:
        # rounded: (100 - 99.9) is not exactly 0.1 in binary
        if round(n * (100.0 - q) / 100.0, 6) >= MIN_BEYOND:
            return q
    return 50.0


def tail(values: Sequence[float]) -> tuple[float, float]:
    """``(percentile, value)`` of the reportable tail of ``values``."""
    q = tail_percentile(len(values))
    return q, percentile(values, q)


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else math.inf
