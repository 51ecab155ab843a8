"""Order statistics the benchmark reports.

Timings are reported as a median plus the highest percentile that still
has at least ``TAIL_BEYOND`` samples beyond it, with that percentile and the
sample count stated alongside, so a tail read from a short run is never
mistaken for a p99.
"""
from __future__ import annotations

import statistics

TAIL_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values))


def tail(values, beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """(value, percentile, sample count) of the tail latency.

    The value is the sample with exactly ``beyond`` samples above it in
    sorted order, and the percentile is the share of samples at or below it.
    With ``beyond`` samples or fewer no such sample exists; the smallest
    sample is returned at percentile 0, so every other sample lies beyond.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("tail of an empty sample")
    if n <= beyond:
        return float(xs[0]), 0.0, n
    i = n - beyond - 1
    return float(xs[i]), 100.0 * (i + 1) / n, n


def spread(values) -> float:
    """Interquartile distance as a share of the median (Python's quartiles)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med
