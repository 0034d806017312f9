"""The benchmark's own arithmetic: self time from nested spans, the
percentile a sample count supports, and how failures are counted.

    python3 -m pytest perfbench
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from stats import (  # noqa: E402
    OpCount,
    Span,
    highest_percentile,
    percentile,
    self_time_by_name,
    self_times,
    subtree_self_sum,
    summarize,
)
from tracing import Tracer  # noqa: E402


# -- self time ------------------------------------------------------------------


def nested_spans():
    # stage [0, 10): a [1, 4) holding a1 [2, 3); b [5, 9) holding b1 [5, 6), b2 [7, 9)
    return [
        Span("stage", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("a1", 2.0, 3.0, 1),
        Span("b", 5.0, 9.0, 0),
        Span("b1", 5.0, 6.0, 3),
        Span("b2", 7.0, 9.0, 3),
    ]


def test_self_time_subtracts_only_direct_children():
    assert self_times(nested_spans()) == [3.0, 2.0, 1.0, 1.0, 1.0, 2.0]


def test_self_times_of_a_stage_add_up_to_its_wall_time():
    spans = nested_spans()
    selfs = self_times(spans)
    assert subtree_self_sum(spans, selfs, 0) == pytest.approx(spans[0].duration)
    assert subtree_self_sum(spans, selfs, 3) == pytest.approx(spans[3].duration)


def test_overlapping_children_are_covered_once_and_clipped_to_the_parent():
    spans = [
        Span("p", 0.0, 10.0, -1),
        Span("c", 2.0, 6.0, 0),
        Span("c", 4.0, 8.0, 0),
        Span("c", 9.0, 12.0, 0),  # runs past its parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_self_time_is_summed_per_name():
    spans = [Span("s", 0.0, 4.0, -1), Span("x", 0.0, 1.0, 0), Span("x", 2.0, 3.0, 0)]
    assert self_time_by_name(spans, self_times(spans)) == {"s": 2.0, "x": 2.0}


def test_tracer_nests_spans_and_restores_every_name():
    module = type(sys)("fake_module")

    def inner(x):
        return x + 1

    def outer(x):
        return module.inner(x) * 2

    module.inner, module.outer = inner, outer
    sys.modules["fake_module"] = module
    try:
        tracer = Tracer()
        tracer.install((
            ("fake_module", "inner", "fake.inner", None),
            ("fake_module", "outer", "fake.outer", lambda tr, a, kw, res: tr.add("fake.out", res)),
        ))
        assert tracer.stage("cli.x", lambda: module.outer(1)) == 4
        tracer.uninstall()
    finally:
        del sys.modules["fake_module"]
    assert module.inner is inner and module.outer is outer
    assert [(s.name, s.parent) for s in tracer.spans] == [
        ("cli.x", -1), ("fake.outer", 0), ("fake.inner", 1),
    ]
    assert tracer.counts["fake.out"] == 4
    assert tracer.calls["fake.inner"] == 1


# -- percentiles ----------------------------------------------------------------


@pytest.mark.parametrize(
    "count, expected",
    [(1, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
     (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_highest_percentile_keeps_ten_samples_beyond_it(count, expected):
    assert highest_percentile(count) == expected


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert percentile(values, 90.0) == 90
    assert percentile(values, 99.0) == 99
    assert percentile([5.0], 50.0) == 5.0


def test_summary_reports_median_count_and_supported_tail():
    small = summarize([3.0, 1.0, 2.0])
    assert (small.median, small.count, small.tail_p, small.tail) == (2.0, 3, None, None)
    large = summarize([float(v) for v in range(100)])
    assert (large.count, large.tail_p, large.tail) == (100, 90.0, 89.0)


# -- failed_share ----------------------------------------------------------------


def test_failed_share_counts_failed_stages_and_failed_checks():
    ops = OpCount()
    for code in (0, 0, 2, 0):  # one stage exits with a data error
        ops.stage(code)
    for ok in (True, False, True, True):  # one output check fails
        ops.check(ok)
    assert (ops.attempted, ops.failed) == (8, 2)
    assert ops.failed_share == pytest.approx(0.25)


def test_failed_share_is_zero_with_nothing_attempted_or_failed():
    assert OpCount().failed_share == 0.0
    ops = OpCount()
    ops.stage(0)
    ops.check(True)
    assert ops.failed_share == 0.0

