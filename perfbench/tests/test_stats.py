"""Self-tests for the benchmark's statistics helpers.

    python3 -m pytest perfbench/tests
"""

import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from stats import (  # noqa: E402
    Span,
    covered_length,
    nearest_rank,
    quartiles,
    self_times,
    summarize_spans,
    tail_percentile,
)


def test_no_tail_percentile_below_twenty_samples():
    assert tail_percentile(range(19)) is None


def test_median_is_the_tail_at_twenty_samples():
    tail = tail_percentile(range(1, 21))
    assert (tail.percentile, tail.value, tail.samples) == (50.0, 10.0, 20)


def test_tail_climbs_the_ladder_with_sample_count():
    assert tail_percentile(range(100)).percentile == 90.0
    assert tail_percentile(range(199)).percentile == 90.0
    assert tail_percentile(range(200)).percentile == 95.0
    assert tail_percentile(range(1000)).percentile == 99.0
    assert tail_percentile(range(10_000)).percentile == 99.9


def test_tail_keeps_ten_samples_beyond_it():
    for n in (20, 37, 100, 150, 200, 999, 1000, 10_000):
        values = list(range(n))
        tail = tail_percentile(values)
        assert sum(v > tail.value for v in values) >= 10


def test_tail_ignores_input_order():
    assert tail_percentile([5.0, 1.0, 3.0] * 10) == tail_percentile(sorted([5.0, 1.0, 3.0] * 10))


def test_nearest_rank():
    assert nearest_rank([1.0, 2.0, 3.0, 4.0], 50.0) == (2.0, 2)
    assert nearest_rank([1.0, 2.0, 3.0, 4.0], 90.0) == (4.0, 0)
    assert nearest_rank([7.0], 0.0) == (7.0, 0)


def test_quartiles_match_statistics_quantiles():
    values = [3.1, 2.0, 5.5, 4.2, 1.0, 9.9, 7.3, 6.0, 2.2, 8.8]
    assert quartiles(values) == tuple(statistics.quantiles(values, n=4))
    assert quartiles([4.0]) == (4.0, 4.0, 4.0)


def test_covered_length_merges_overlaps():
    assert covered_length([(0, 10), (5, 15), (20, 25)]) == 20
    assert covered_length([(20, 25), (0, 10), (2, 3)]) == 15
    assert covered_length([(4, 4), (6, 5)]) == 0
    assert covered_length([]) == 0


def test_self_time_subtracts_nested_children():
    spans = [
        Span(1, None, "race", 0, 100, leaf_ns=7),
        Span(2, 1, "draw", 10, 30),
        Span(3, 2, "sample", 12, 20),
        Span(4, 2, "sample", 22, 25),
        Span(5, 1, "draw", 50, 60),
    ]
    assert self_times(spans) == {1: 100 - 20 - 10 - 7, 2: 20 - 8 - 3, 3: 8, 4: 3, 5: 10}


def test_self_time_counts_overlapping_children_once():
    # children on other threads may overlap each other and the parent's end
    spans = [
        Span(1, None, "run", 0, 100),
        Span(2, 1, "rep", 10, 60),
        Span(3, 1, "rep", 40, 90),
        Span(4, 1, "rep", 95, 130),
    ]
    assert self_times(spans)[1] == 100 - 80 - 5


def test_self_times_partition_the_root():
    spans = [
        Span(1, None, "a", 0, 1000, leaf_ns=100),
        Span(2, 1, "b", 100, 400, leaf_ns=50),
        Span(3, 2, "c", 150, 200),
        Span(4, 1, "b", 500, 900),
        Span(5, 4, "c", 600, 800),
    ]
    selfs = self_times(spans)
    leaves = sum(s.leaf_ns for s in spans)
    assert sum(selfs.values()) + leaves == 1000


def test_summarize_counts_recursion_once_and_excludes_bookkeeping():
    spans = [
        Span(1, None, "race", 0, 100, n=40, extra=3),
        Span(2, 1, "moments", 10, 50),
        Span(3, 2, "moments", 20, 30),
        Span(4, 1, "replay", 60, 70, n=5),
    ]
    totals = summarize_spans(spans, excluded=("replay",))
    assert totals["moments"].calls == 1
    assert totals["moments"].incl_ns == 40
    assert totals["moments"].self_ns == 30 + 10
    assert totals["race"].incl_ns == 90
    assert totals["race"].self_ns == 100 - 40 - 10
    assert (totals["race"].n, totals["race"].extra) == (40, 3)
