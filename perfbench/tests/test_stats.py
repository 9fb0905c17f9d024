"""The reporting rules: tail percentile, self time, failure share."""

import pytest

from perfbench import stats


class TestTailPercentile:
    def test_keeps_ten_samples_beyond(self):
        tail = stats.tail_percentile([float(v) for v in range(1, 101)])
        assert tail.value == 90.0
        assert tail.percentile == 90.0
        assert tail.samples == 100
        assert sum(1 for v in range(1, 101) if v > tail.value) == 10

    def test_order_of_input_does_not_matter(self):
        values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0, 11.0, 0.5]
        tail = stats.tail_percentile(values)
        assert tail == stats.tail_percentile(sorted(values))
        # 12 samples: only the smallest-but-one keeps ten above it.
        assert tail.value == 1.0
        assert tail.percentile == pytest.approx(100 * 2 / 12)
        assert tail.samples == 12

    def test_too_few_samples_report_the_maximum(self):
        tail = stats.tail_percentile([3.0, 1.0, 2.0])
        assert tail == stats.Tail(3.0, 100.0, 3)

    def test_exactly_eleven_samples(self):
        tail = stats.tail_percentile([float(v) for v in range(11)])
        assert tail.value == 0.0
        assert tail.samples == 11

    def test_empty(self):
        assert stats.tail_percentile([]).samples == 0


class TestSelfTime:
    def test_no_children(self):
        assert stats.self_time(0.0, 10.0, []) == 10.0

    def test_disjoint_children(self):
        assert stats.self_time(0.0, 10.0, [(1.0, 3.0), (5.0, 6.0)]) == 7.0

    def test_overlapping_children_count_once(self):
        children = [(1.0, 5.0), (3.0, 7.0), (4.0, 6.0)]
        assert stats.self_time(0.0, 10.0, children) == 4.0

    def test_nested_and_touching_children(self):
        children = [(2.0, 4.0), (4.0, 6.0), (2.5, 3.0)]
        assert stats.self_time(0.0, 10.0, children) == 6.0

    def test_children_clipped_to_parent(self):
        children = [(-5.0, 2.0), (8.0, 15.0), (20.0, 30.0)]
        assert stats.self_time(0.0, 10.0, children) == 6.0

    def test_union_length(self):
        assert stats.union_length([(0, 2), (1, 3), (5, 6)]) == 4
        assert stats.union_length([]) == 0


class TestFailedFraction:
    def test_counts(self):
        assert stats.failed_fraction(0, 12) == 0.0
        assert stats.failed_fraction(3, 12) == 0.25
        assert stats.failed_fraction(12, 12) == 1.0

    @pytest.mark.parametrize("failed, attempted", [(0, 0), (-1, 4), (5, 4)])
    def test_rejects_impossible_counts(self, failed, attempted):
        with pytest.raises(ValueError):
            stats.failed_fraction(failed, attempted)


def test_quartiles_match_statistics_module():
    values = [4.0, 1.0, 3.0, 2.0, 5.0]
    q1, q2, q3 = stats.quartiles(values)
    assert q2 == 3.0
    assert q1 < q2 < q3
    assert stats.quartiles([7.0]) == (7.0, 7.0, 7.0)
