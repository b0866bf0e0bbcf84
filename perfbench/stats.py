"""Statistics helpers for the benchmark: medians, quartiles, tail percentiles
and self time over nested spans. Pure functions, no robandit import."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Iterable, Sequence

# Percentiles a timing may be reported at, lowest first.
PERCENTILE_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9)
# A tail percentile is only reported when at least this many samples lie beyond it.
MIN_SAMPLES_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, as ``statistics.quantiles(n=4)``
    computes them (its default 'exclusive' method)."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def nearest_rank(sorted_values: Sequence[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile of ascending values and the number of samples
    strictly after its rank."""
    n = len(sorted_values)
    # rounding first keeps 99.9% of 10,000 at rank 9990, not 9991
    rank = max(1, math.ceil(round(pct * n / 100.0, 9)))
    return float(sorted_values[rank - 1]), n - rank


@dataclass(frozen=True)
class Tail:
    percentile: float
    value: float
    samples: int


def tail_percentile(values: Iterable[float]) -> Tail | None:
    """Highest ladder percentile that still has at least ``MIN_SAMPLES_BEYOND``
    samples above its rank, or None when even the median has fewer."""
    ordered = sorted(values)
    best = None
    for pct in PERCENTILE_LADDER:
        value, beyond = nearest_rank(ordered, pct)
        if beyond < MIN_SAMPLES_BEYOND:
            break
        best = Tail(pct, value, len(ordered))
    return best


@dataclass(frozen=True)
class Span:
    """One timed call. ``leaf_ns`` is time spent in aggregated leaf calls made
    directly under this span (counted, not recorded one by one). ``n`` and
    ``extra`` are work counts: values processed, or pulls and rounds of a race."""

    id: int
    parent: int | None
    name: str
    start: int
    end: int
    leaf_ns: int = 0
    n: int = 0
    extra: int = 0

    @property
    def duration(self) -> int:
        return self.end - self.start


def covered_length(intervals: Iterable[tuple[int, int]]) -> int:
    """Length of the union of half-open intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> dict[int, int]:
    """Self time of each span: its duration minus the part of its interval its
    child spans cover, minus its aggregated leaf time."""
    children: dict[int, list[tuple[int, int]]] = {}
    by_id = {s.id: s for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in by_id:
            p = by_id[s.parent]
            children.setdefault(s.parent, []).append((max(s.start, p.start), min(s.end, p.end)))
    return {
        s.id: s.duration - covered_length(children.get(s.id, ())) - s.leaf_ns for s in spans
    }


@dataclass
class NameTotals:
    """Totals over the spans sharing one name. ``calls`` and ``incl_ns`` count
    only spans not nested directly in a span of the same name (recursion);
    ``incl_ns`` leaves out the time of excluded descendants."""

    calls: int = 0
    incl_ns: int = 0
    self_ns: int = 0
    n: int = 0
    extra: int = 0


def net_durations(spans: Sequence[Span], excluded: tuple[str, ...] = ()) -> dict[int, int]:
    """Each span's duration less the time of descendants named in ``excluded``
    (tracer bookkeeping that ran inside the span)."""
    by_id = {s.id: s for s in spans}
    net = {s.id: s.duration for s in spans}
    for s in spans:
        if s.name in excluded:
            parent = s.parent
            while parent is not None and parent in by_id:
                net[parent] -= s.duration
                parent = by_id[parent].parent
    return net


def summarize_spans(spans: Sequence[Span], excluded: tuple[str, ...] = ()) -> dict[str, NameTotals]:
    """Per-name call counts, inclusive and self time, and work totals."""
    by_id = {s.id: s for s in spans}
    net = net_durations(spans, excluded)
    selfs = self_times(spans)
    out: dict[str, NameTotals] = {}
    for s in spans:
        t = out.setdefault(s.name, NameTotals())
        t.self_ns += selfs[s.id]
        parent = by_id.get(s.parent) if s.parent is not None else None
        if parent is not None and parent.name == s.name:
            continue
        t.calls += 1
        t.incl_ns += net[s.id]
        t.n += s.n
        t.extra += s.extra
    return out
