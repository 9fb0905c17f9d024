"""Order statistics and interval arithmetic shared by the benchmark.

Pure functions over plain numbers, so the reporting rules (median,
tail percentile, self time, failure share) can be tested without
running a simulation.
"""

from __future__ import annotations

import statistics
import typing

#: A tail percentile needs at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def median(values: typing.Sequence[float]) -> float:
    """Median of *values*; 0.0 for an empty sequence (no work done)."""
    return statistics.median(values) if values else 0.0


def quartiles(values: typing.Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as :func:`statistics.quantiles` gives them."""
    if len(values) < 2:
        only = values[0] if values else 0.0
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class Tail(typing.NamedTuple):
    """The highest percentile that still has enough samples beyond it."""

    value: float
    percentile: float
    samples: int


def tail_percentile(
    values: typing.Sequence[float], min_beyond: int = TAIL_MIN_BEYOND
) -> Tail:
    """The highest percentile with at least *min_beyond* samples above it.

    With ``n`` sorted samples that is the ``(n - min_beyond)``-th
    smallest, i.e. percentile ``100 * (n - min_beyond) / n``. With too
    few samples no percentile qualifies; the maximum is returned as
    percentile 100 so the shortfall is visible next to the sample count.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return Tail(0.0, 0.0, 0)
    keep = n - min_beyond
    if keep < 1:
        return Tail(ordered[-1], 100.0, n)
    return Tail(ordered[keep - 1], 100.0 * keep / n, n)


def union_length(intervals: typing.Iterable[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` pairs."""
    covered = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                covered += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        covered += current_end - current_start
    return covered


def self_time(
    start: float, end: float, children: typing.Iterable[tuple[float, float]]
) -> float:
    """A span's duration minus the part of it its children cover.

    Children are clipped to the parent interval first, so a child that
    overruns its parent never makes self time negative.
    """
    clipped = [
        (max(start, child_start), min(end, child_end))
        for child_start, child_end in children
        if child_end > start and child_start < end
    ]
    return (end - start) - union_length(clipped)


def failed_fraction(failed: int, attempted: int) -> float:
    """Failed operations as a share of attempted ones."""
    if attempted <= 0:
        raise ValueError("failed_fraction needs at least one attempted operation")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, attempted={attempted}]")
    return failed / attempted
