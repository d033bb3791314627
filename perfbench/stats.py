"""Arithmetic of the benchmark: percentiles, span self time, computed flops.

Pure functions on plain lists, kept apart from the runner so that the
tests in ``test_stats.py`` can pin them without running a workload.
"""

from __future__ import annotations

import statistics
from typing import Sequence

# a tail percentile is reported only when at least this many samples lie
# beyond it; for the 90th percentile that means at least 100 samples
MIN_BEYOND_TAIL = 10


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sample."""
    if not values:
        raise ValueError("median of an empty sample")
    return float(statistics.median(values))


def p90(values: Sequence[float]) -> float | None:
    """90th percentile, or None when fewer than 10 samples lie beyond it.

    With n samples, n/10 lie beyond the 90th percentile, so the value is
    reported only from 100 samples on.
    """
    if len(values) < 10 * MIN_BEYOND_TAIL:
        return None
    return float(statistics.quantiles(values, n=10)[-1])


def self_times(start: Sequence[float], end: Sequence[float], parent: Sequence[int]) -> list[float]:
    """Each span's duration minus the time covered by its direct children.

    Spans come from one thread and nest properly, so the children of a span
    cover disjoint parts of it and their durations add up to the covered
    time. ``parent[i]`` is the index of span i's parent, or -1 for a root.
    """
    own = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[i] - start[i]
    return own


def augl1_eval_flops(m: int, n: int) -> int:
    """Computed flops of one eval of an m x n matrix oracle.

    One eval of ``augl1`` or ``quad`` makes two matrix-vector products with
    the m x n matrix (``A.T @ y`` and ``A @ x``), each m*n multiply-adds,
    so 4mn flops. Vector work of order m + n is not counted.
    """
    return 4 * m * n


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
