"""Percentiles and span arithmetic for the benchmark's reports."""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from perfbench import spec


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[_rank(len(ordered), q) - 1]


def _rank(n: int, q: float) -> int:
    # Rounded first so that e.g. 99.9% of 10,000 is rank 9,990, not 9,991.
    return max(1, math.ceil(round(q / 100.0 * n, 9)))


def samples_beyond(n: int, q: float) -> int:
    """Samples strictly above the nearest-rank ``q``-th percentile of ``n``."""
    return n - _rank(n, q)


def tail_percentile(
    n: int, candidates: Iterable[float] = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0)
) -> float | None:
    """The highest candidate percentile with at least ``TAIL_SAMPLES``
    samples beyond it, or ``None`` when even the lowest has fewer."""
    for q in sorted(candidates, reverse=True):
        if samples_beyond(n, q) >= spec.TAIL_SAMPLES:
            return q
    return None


def covered(start: int, end: int, intervals: Iterable[tuple[int, int]]) -> int:
    """Length of ``[start, end)`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(start, lo), min(end, hi)) for lo, hi in intervals if hi > start and lo < end
    )
    total = 0
    cursor = start
    for lo, hi in clipped:
        lo = max(lo, cursor)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: Sequence[dict]) -> dict[int, int]:
    """Per span id: its duration minus the part its children cover.

    A span is a dict with ``id``, ``parent`` (an id or ``None``),
    ``start`` and ``end``.  Children may run on other threads; only their
    intervals matter.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    return {
        span["id"]: (span["end"] - span["start"])
        - covered(span["start"], span["end"], children.get(span["id"], ()))
        for span in spans
    }
