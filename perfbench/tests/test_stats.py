"""The benchmark's arithmetic: percentiles, open-loop timing, failure
counting and span self time.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import pytest

from perfbench import stats


def test_percentile_interpolates_between_closest_ranks():
    assert stats.percentile([5, 1, 4, 2, 3], 50) == 3
    assert stats.percentile([0, 10], 90) == pytest.approx(9.0)
    assert stats.percentile([7], 99) == 7
    assert stats.percentile([1, 2, 3, 4], 0) == 1
    assert stats.percentile([1, 2, 3, 4], 100) == 4
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1], 101)


@pytest.mark.parametrize(
    "count, tail",
    [
        (10000, 99.9),
        (1000, 99.0),
        (999, 95.0),  # 9.99 samples beyond p99: not enough
        (200, 95.0),
        (100, 90.0),
        (40, 75.0),
        (20, 50.0),
        (19, None),
        (0, None),
    ],
)
def test_supported_tail_needs_ten_samples_beyond(count, tail):
    assert stats.supported_tail(count) == tail


def test_open_loop_latency_counts_from_due_time():
    due = [0.0, 1.0, 2.0, 3.0]
    # The second request was issued 0.5 late because the first stalled.
    started = [0.0, 1.5, 2.0, 3.0]
    done = [1.5, 2.0, 2.1, 3.2]
    latency, late = stats.open_loop(due, started, done)
    assert latency == pytest.approx([1.5, 1.0, 0.1, 0.2])
    assert late == pytest.approx([0.0, 0.5, 0.0, 0.0])


def test_open_loop_never_reports_negative_lateness():
    _, late = stats.open_loop([1.0], [0.999], [1.2])
    assert late == [0.0]
    with pytest.raises(ValueError):
        stats.open_loop([1.0], [1.0, 2.0], [1.0])


def test_tally_counts_failures_against_attempts():
    tally = stats.Tally()
    for ok in (True, True, False, True):
        tally.record(ok, "read shed")
    assert (tally.attempted, tally.failed) == (4, 1)
    assert tally.ok_share == pytest.approx(0.75)
    assert tally.reasons == ["read shed"]


def test_ok_share_rejects_impossible_counts():
    assert stats.ok_share(5, 0) == 1.0
    with pytest.raises(ValueError):
        stats.ok_share(0, 0)
    with pytest.raises(ValueError):
        stats.ok_share(3, 4)


def test_union_length_merges_overlaps():
    assert stats.union_length([]) == 0.0
    assert stats.union_length([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)
    assert stats.union_length([(0, 10), (2, 3)]) == pytest.approx(10.0)


def test_self_time_subtracts_only_direct_children():
    spans = [
        ("op", 0.0, 10.0, -1, 1),
        ("a", 1.0, 5.0, 0, 1),
        ("a.inner", 2.0, 3.0, 1, 1),
        ("b", 6.0, 9.0, 0, 1),
    ]
    assert stats.self_times(spans) == pytest.approx([3.0, 3.0, 1.0, 3.0])
    assert stats.self_time_by_name(spans)["op"] == pytest.approx(3.0)


def test_self_time_counts_overlapping_children_once():
    # Children from two threads overlap; the parent is covered 1..7 once.
    spans = [
        ("op", 0.0, 8.0, -1, 1),
        ("x", 1.0, 5.0, 0, 1),
        ("y", 3.0, 7.0, 0, 2),
        ("z", 7.5, 9.0, 0, 1),  # runs past its parent: clipped
    ]
    assert stats.self_times(spans)[0] == pytest.approx(8.0 - 6.0 - 0.5)


def test_self_times_of_all_spans_add_up_to_the_roots():
    spans = [
        ("op", 0.0, 10.0, -1, 1),
        ("a", 1.0, 5.0, 0, 1),
        ("a.inner", 2.0, 3.0, 1, 1),
        ("b", 6.0, 9.0, 0, 1),
    ]
    assert sum(stats.self_times(spans)) == pytest.approx(10.0)


def test_coverage_is_the_share_of_operations_inside_layers():
    spans = [
        ("op", 0.0, 10.0, -1, 1),
        ("layer", 0.0, 9.0, 0, 1),
        ("op", 20.0, 30.0, -1, 1),
        ("layer", 20.0, 30.0, 2, 1),
        ("other", 40.0, 50.0, -1, 1),
    ]
    assert stats.coverage(spans, "op") == pytest.approx(19.0 / 20.0)
    assert stats.coverage(spans, "missing") == 0.0


def test_has_ancestor_walks_the_parent_chain():
    spans = [("plan", 0, 3, -1, 1), ("mid", 0, 2, 0, 1), ("volcano", 0, 1, 1, 1)]
    assert stats.has_ancestor(spans, 2, "plan")
    assert not stats.has_ancestor(spans, 0, "plan")
