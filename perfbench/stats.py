"""Order statistics used by the benchmark and its comparison."""

from __future__ import annotations

import math
import statistics


def percentile(values: list[float], pct: float) -> float:
    """The ``pct``-th percentile, linear between closest ranks."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(count: int, beyond: int = 10) -> int | None:
    """Highest whole percentile with at least ``beyond`` samples above it.

    ``None`` when ``count`` cannot support one.  Each result records it
    beside the workload's fixed tail percentile, which sits lower on the
    open loop to stay steady across seeds (see ``run.WORKLOADS``).
    """
    for pct in range(99, 0, -1):
        if count * (100 - pct) / 100.0 >= beyond:
            return pct
    return None


def median(values: list[float]) -> float:
    return statistics.median(values)


def iqr_share(values: list[float]) -> float:
    """Distance between the first and third quartile over the median."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
