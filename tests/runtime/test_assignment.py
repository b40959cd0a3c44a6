"""Unit and property tests for iteration assignments."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.workload import WorkTable
from repro.runtime.assignment import (
    Assignment,
    CoverageError,
    check_coverage,
    equal_block_partition,
    merge_ranges,
    uncovered,
)


def test_merge_sorts_and_coalesces():
    assert merge_ranges([(5, 8), (0, 3), (3, 5)]) == [(0, 8)]


def test_merge_keeps_gaps():
    assert merge_ranges([(0, 2), (4, 6)]) == [(0, 2), (4, 6)]


def test_merge_drops_empty():
    assert merge_ranges([(3, 3), (1, 2)]) == [(1, 2)]


def test_merge_rejects_overlap():
    with pytest.raises(ValueError):
        merge_ranges([(0, 3), (2, 5)])


# -- the exactly-once check every backend shares ---------------------------
def test_check_coverage_accepts_an_exact_tiling():
    check_coverage({0: [(0, 4), (6, 8)], 2: [(4, 6)], 1: []}, 8)


def test_check_coverage_reports_a_gap_as_lost():
    with pytest.raises(CoverageError, match="lost iterations"):
        check_coverage({0: [(0, 4)], 1: [(5, 8)]}, 8)


def test_check_coverage_reports_an_overlap_as_duplicated():
    with pytest.raises(CoverageError, match="duplicated iterations"):
        check_coverage({0: [(0, 5)], 1: [(4, 8)]}, 8)


def test_check_coverage_rejects_an_empty_ledger():
    with pytest.raises(CoverageError, match="lost iterations"):
        check_coverage({}, 8)
    # ... as an AssertionError, what callers have always caught.
    with pytest.raises(AssertionError):
        check_coverage({0: []}, 1)


def test_uncovered_finds_orphans_in_the_middle():
    assert uncovered({0: [(0, 3), (9, 12)], 2: [(5, 7)]}, 12) == \
        [(3, 5), (7, 9)]


def test_uncovered_finds_an_orphaned_tail_and_an_empty_ledger():
    assert uncovered({0: [(0, 3)], 1: [(3, 6)]}, 10) == [(6, 10)]
    assert uncovered({}, 4) == [(0, 4)]
    assert uncovered({0: [(0, 4)]}, 4) == []


def test_uncovered_refuses_to_salvage_over_a_duplicate():
    with pytest.raises(CoverageError, match="duplicated iterations"):
        uncovered({0: [(0, 3)], 1: [(2, 4)]}, 8)


def test_coverage_error_is_still_exported_by_the_executor():
    from repro.runtime import executor
    assert executor.CoverageError is CoverageError


def test_equal_block_partition_covers_all():
    parts = equal_block_partition(10, 3)
    assert [p.count for p in parts] == [4, 3, 3]
    merged = merge_ranges(r for p in parts for r in p.ranges)
    assert merged == [(0, 10)]


def test_equal_block_partition_more_procs_than_iters():
    parts = equal_block_partition(2, 4)
    assert [p.count for p in parts] == [1, 1, 0, 0]


def test_count_and_empty():
    a = Assignment([(0, 4), (6, 8)])
    assert a.count == 6
    assert not a.empty
    assert Assignment().empty


def test_work_uniform():
    table = WorkTable(0.5, 20)
    assert Assignment([(0, 4)]).work(table) == pytest.approx(2.0)


def test_work_non_uniform():
    table = WorkTable(np.array([1.0, 2.0, 3.0, 4.0]))
    assert Assignment([(1, 3)]).work(table) == pytest.approx(5.0)


def test_head_work():
    table = WorkTable(np.array([1.0, 2.0, 3.0, 4.0]))
    a = Assignment([(0, 2), (3, 4)])
    assert a.head_work(table, 0) == 0.0
    assert a.head_work(table, 2) == pytest.approx(3.0)
    assert a.head_work(table, 3) == pytest.approx(7.0)


def test_head_count_for_work_rounds_up():
    table = WorkTable(1.0, 10)
    a = Assignment([(0, 5)])
    assert a.head_count_for_work(table, 0.0) == 0
    assert a.head_count_for_work(table, 0.5) == 1
    assert a.head_count_for_work(table, 2.0) == 2
    assert a.head_count_for_work(table, 2.1) == 3
    assert a.head_count_for_work(table, 99.0) == 5


def test_head_count_spans_ranges():
    table = WorkTable(1.0, 10)
    a = Assignment([(0, 2), (5, 8)])
    assert a.head_count_for_work(table, 3.5) == 4


def test_take_head():
    a = Assignment([(0, 3), (5, 8)])
    taken = a.take_head(4)
    assert taken == [(0, 3), (5, 6)]
    assert a.ranges == [(6, 8)]


def test_take_head_too_many_rejected():
    with pytest.raises(ValueError):
        Assignment([(0, 2)]).take_head(3)


def test_take_tail_count():
    a = Assignment([(0, 3), (5, 8)])
    taken = a.take_tail_count(4)
    assert taken == [(2, 3), (5, 8)]
    assert a.ranges == [(0, 2)]


def test_take_tail_work_rounds_down():
    table = WorkTable(1.0, 10)
    a = Assignment([(0, 6)])
    ranges, count = a.take_tail_work(table, 2.7)
    assert count == 2
    assert ranges == [(4, 6)]
    assert a.count == 4


def test_take_tail_work_keep_one():
    table = WorkTable(1.0, 10)
    a = Assignment([(0, 4)])
    ranges, count = a.take_tail_work(table, 100.0, keep_one=True)
    assert count == 3
    assert a.count == 1


def test_take_tail_work_zero_order():
    table = WorkTable(1.0, 10)
    a = Assignment([(0, 4)])
    ranges, count = a.take_tail_work(table, 0.5)
    assert count == 0 and ranges == []
    assert a.count == 4


def test_take_all():
    a = Assignment([(0, 2), (4, 6)])
    assert a.take_all() == [(0, 2), (4, 6)]
    assert a.empty


def test_add_merges():
    a = Assignment([(0, 2)])
    a.add([(2, 5)])
    assert a.ranges == [(0, 5)]


def test_add_rejects_overlap():
    a = Assignment([(0, 3)])
    with pytest.raises(ValueError):
        a.add([(1, 2)])


@given(st.integers(min_value=1, max_value=200),
       st.integers(min_value=1, max_value=32))
def test_partition_property(n, p):
    parts = equal_block_partition(n, p)
    assert len(parts) == p
    assert sum(q.count for q in parts) == n
    assert max(q.count for q in parts) - min(q.count for q in parts) <= 1


@given(st.lists(st.integers(min_value=0, max_value=99), min_size=1,
                max_size=30),
       st.floats(min_value=0.0, max_value=50.0))
@settings(max_examples=100, deadline=None)
def test_take_tail_work_never_exceeds_order(starts, work):
    """The shipped work never exceeds the ordered amount (round-down)."""
    ranges = merge_ranges({(s, s + 1) for s in starts})
    table = WorkTable(np.linspace(0.5, 1.5, 100))
    a = Assignment(ranges)
    before = a.work(table)
    taken, count = a.take_tail_work(table, work, keep_one=False)
    shipped = sum(table.range_work(s, e) for s, e in taken)
    assert shipped <= work * (1 + 1e-9)
    assert a.work(table) + shipped == pytest.approx(before, rel=1e-9)
    assert sum(e - s for s, e in taken) == count
