"""Summary statistics shared by the benchmark and its tests."""

from __future__ import annotations

import bisect
import math
import statistics
from typing import Sequence

#: a tail percentile is reported only when at least this many samples lie
#: strictly beyond it; with fewer, the "percentile" is one or two samples.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> tuple[float, int]:
    """Nearest-rank ``q``-th percentile and the number of samples beyond it.

    Returns ``(value, beyond)`` where ``beyond`` counts samples strictly
    greater than ``value``.
    """
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile {q} outside (0, 100]")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    value = ordered[rank - 1]
    return value, len(ordered) - bisect.bisect_right(ordered, value)


def iqr_share(values: Sequence[float]) -> float:
    """Distance between the first and third quartile over the median, with
    quartiles as ``statistics.quantiles(values, n=4)`` gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
