"""Percentiles with their sample-count rule."""

from __future__ import annotations

import math
import statistics

MIN_BEYOND = 10  # a reported percentile needs this many samples above it


def rank(count: int, q: float) -> int:
    """1-based nearest rank of the q-th percentile among ``count`` samples."""
    if count < 1:
        raise ValueError("no samples")
    return max(1, math.ceil(q / 100 * count))


def beyond(count: int, q: float) -> int:
    """Samples strictly above the nearest-rank q-th percentile."""
    return count - rank(count, q)


def percentile(values, q: float, min_beyond: int = 0) -> float:
    """Nearest-rank percentile; raises if fewer than ``min_beyond`` lie beyond it."""
    ordered = sorted(values)
    if beyond(len(ordered), q) < min_beyond:
        raise ValueError(
            f"p{q:g} of {len(ordered)} samples has {beyond(len(ordered), q)} beyond it, "
            f"need {min_beyond}"
        )
    return ordered[rank(len(ordered), q) - 1]


def median(values) -> float:
    """Middle value, averaging the two middle ones of an even count."""
    return statistics.median(values)
