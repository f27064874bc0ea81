"""Order statistics for the benchmark report.

Timings are reported as a median plus the highest percentile that has
at least :data:`TAIL_SAMPLES` samples beyond it, so a tail figure is
never read off a handful of points.
"""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence

#: Samples a reported percentile needs beyond it.
TAIL_SAMPLES = 10

#: The percentiles the report may name, highest last.
LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile by linear interpolation between closest
    ranks (NumPy's default ``linear`` method)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    low = math.floor(rank)
    fraction = rank - low
    if fraction == 0 or math.isinf(ordered[low + 1]):
        # Exact rank, or interpolating towards a failed (infinitely
        # late) request: the percentile misses every limit too.
        return ordered[low] if fraction == 0 else math.inf
    return ordered[low] + (ordered[low + 1] - ordered[low]) * fraction


def highest_percentile(count: int) -> Optional[float]:
    """The highest percentile of :data:`LADDER` with at least
    :data:`TAIL_SAMPLES` of ``count`` samples beyond it, or ``None``
    when even the median lacks them."""
    best = None
    for p in LADDER:
        if count * (100.0 - p) / 100.0 >= TAIL_SAMPLES - 1e-9:
            best = p
    return best


def relative_iqr(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median — the spread the
    benchmark's bounds are compared with."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf


def windowed_rate(done_at: Sequence[float], origin: float, window: int) -> float:
    """Median completions per second over consecutive windows of
    ``window`` completions, the first window starting at ``origin``;
    completions past the last full window are dropped.  With fewer
    than ``window`` completions, the rate over all of them."""
    times = sorted(done_at)
    if not times:
        raise ValueError("rate of no completions")
    if len(times) < window:
        return len(times) / (times[-1] - origin)
    edges = [origin] + times[window - 1 :: window]
    return statistics.median(window / (end - start) for start, end in zip(edges, edges[1:]))
