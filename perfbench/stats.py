"""Order statistics for latency samples."""

from __future__ import annotations

import math

#: a tail percentile needs at least this many samples beyond it
TAIL_BEYOND = 10


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile (0 for no samples)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(pct * len(ordered) / 100.0))
    return float(ordered[min(rank, len(ordered)) - 1])


def median(values) -> float:
    """The nearest-rank p50, so a tail percentile never reads below it."""
    return percentile(values, 50)


def tail_percentile(count: int) -> int:
    """The highest whole percentile with at least :data:`TAIL_BEYOND`
    samples beyond it, never below the median (50) — with fewer than
    twenty samples the tail collapses onto the median."""
    if count <= 0:
        return 50
    return max(50, math.floor(100.0 * (count - TAIL_BEYOND) / count))


def tail(values) -> tuple[int, float]:
    """``(percentile, value)`` of the tail of ``values``."""
    pct = tail_percentile(len(values))
    return pct, percentile(values, pct)
