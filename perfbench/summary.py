"""Order statistics for job times."""

from __future__ import annotations

import math
import statistics
from fractions import Fraction
from typing import Optional

# Tail percentiles on offer, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


def _rank(p: float, count: int) -> int:
    """1-based nearest rank of percentile p among count samples, exactly."""
    return max(1, math.ceil(Fraction(str(p)) * count / 100))


def tail_percentile(count: int) -> Optional[float]:
    """Highest ladder percentile with at least MIN_BEYOND of count samples
    ranked above it; None when count is too small."""
    best = None
    for p in TAIL_LADDER:
        if count - _rank(p, count) >= MIN_BEYOND:
            best = p
    return best


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile: the ceil(p% * n)-th smallest value."""
    return sorted(values)[_rank(p, len(values)) - 1]


def median(values: list[float]) -> float:
    return statistics.median(values)
