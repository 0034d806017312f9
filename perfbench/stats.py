"""Arithmetic of the benchmark: self time from nested spans, medians with
the highest percentile a sample count supports, and the failed-operation
share.

Standard library only, so the orchestrator and the tests can use it
without numpy or the program under test.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict
from dataclasses import dataclass

#: Percentiles offered for a tail figure, lowest first.
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9)
#: A percentile is reported only with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


@dataclass
class Span:
    """One timed call: [start, end) in seconds, parent is an index into the
    same span list or -1 for a root."""

    name: str
    start: float
    end: float
    parent: int
    iteration: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of `intervals`, each clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_hi is None or start > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = start, end
        else:
            cur_hi = max(cur_hi, end)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    return [
        span.duration - _covered(children.get(index, []), span.start, span.end)
        for index, span in enumerate(spans)
    ]


def subtree_self_sum(spans: list[Span], selfs: list[float], root: int) -> float:
    """Sum of the self times of `root` and every span below it."""
    below: dict[int, list[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        if span.parent >= 0:
            below[span.parent].append(index)
    total = 0.0
    stack = [root]
    while stack:
        index = stack.pop()
        total += selfs[index]
        stack.extend(below.get(index, []))
    return total


def self_time_by_name(spans: list[Span], selfs: list[float]) -> dict[str, float]:
    totals: dict[str, float] = defaultdict(float)
    for span, value in zip(spans, selfs):
        totals[span.name] += value
    return dict(totals)


def highest_percentile(count: int) -> float | None:
    """The highest ladder percentile with at least MIN_SAMPLES_BEYOND of
    `count` samples above it, or None when even the median lacks them."""
    best = None
    for p in PERCENTILE_LADDER:
        if count * (1.0 - p / 100.0) >= MIN_SAMPLES_BEYOND - 1e-9:
            best = p
    return best


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least p% of the
    samples at or below it."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


@dataclass
class Summary:
    median: float
    count: int
    tail_p: float | None  # highest supported percentile, if any
    tail: float | None

    def describe(self, unit: str) -> str:
        text = f"median {self.median:.6g} {unit}, n={self.count}"
        if self.tail_p is None:
            return text + f", no percentile has {MIN_SAMPLES_BEYOND} samples beyond it"
        return text + f", p{self.tail_p:g} {self.tail:.6g} {unit}"


def summarize(values: list[float]) -> Summary:
    if not values:
        raise ValueError("summary of no values")
    tail_p = highest_percentile(len(values))
    tail = percentile(values, tail_p) if tail_p is not None else None
    return Summary(statistics.median(values), len(values), tail_p, tail)


@dataclass
class OpCount:
    """Operations attempted and failed: CLI calls and output checks."""

    attempted: int = 0
    failed: int = 0

    def stage(self, exit_code: int) -> None:
        """A CLI call; any non-zero exit code is a failure."""
        self.attempted += 1
        self.failed += exit_code != 0

    def check(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
