"""Summary statistics and the seeded arrival schedule (no repro imports).

Kept free of the system under test so the self-tests exercise the
benchmark's own arithmetic in isolation.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

#: a tail percentile must have at least this many samples beyond it
TAIL_BEYOND = 10


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sample (mean of the middle pair when even)."""
    if not values:
        raise ValueError("median of an empty sample")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """The highest percentile that has at least ``TAIL_BEYOND`` samples beyond it.

    Returns ``(value, percentile, count)``.  With nearest-rank order
    statistics, the ``k``-th smallest of ``n`` samples has ``n - k`` samples
    beyond it, so the highest supported rank is ``n - TAIL_BEYOND``.  A sample
    too small to support any rank above the median (``n <= 2 * TAIL_BEYOND``)
    reports the median: nothing higher can be estimated from it.  Failed
    operations enter as ``inf`` and so count as later than every success.
    """
    if not values:
        raise ValueError("tail of an empty sample")
    ordered = sorted(values)
    n = len(ordered)
    rank = n - TAIL_BEYOND
    if rank <= n // 2:
        return median(ordered), 50.0, n
    return float(ordered[rank - 1]), 100.0 * rank / n, n


def poisson_schedule(rate: float, duration_s: float, seed: int) -> List[float]:
    """Arrival offsets (seconds from the start) of a Poisson process.

    Exponential gaps at ``rate`` per second, drawn from ``seed`` alone, until
    the next arrival would fall at or beyond ``duration_s``.
    """
    if rate <= 0 or duration_s <= 0:
        raise ValueError("rate and duration_s must be positive")
    rng = random.Random(seed)
    arrivals: List[float] = []
    at = rng.expovariate(rate)
    while at < duration_s:
        arrivals.append(at)
        at += rng.expovariate(rate)
    return arrivals
