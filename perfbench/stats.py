"""Summary statistics used by run.py."""

from __future__ import annotations

import math

# A tail percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(values: list[float], p: float) -> float:
    """The p-th percentile (0..100), interpolating linearly between order statistics."""
    if not values:
        raise ValueError("percentile of no samples")
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_rank(n: int, want: float = 90.0) -> float:
    """The percentile to report as the ``want``-th one for ``n`` samples.

    It is the highest percentile, at most ``want``, that leaves at least
    MIN_BEYOND samples beyond it, and never below the median.  So the 90th
    percentile needs at least 100 samples.
    """
    return max(50.0, min(want, 100.0 * (1 - MIN_BEYOND / n)))
