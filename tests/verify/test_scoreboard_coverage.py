"""Unit tests for scoreboards, memory checking and coverage."""

import pytest

from repro.errors import ConsistencyError, CoverageError
from repro.tlm import Memory
from repro.verify import CoverageCollector, Scoreboard, check_memory_image


class TestScoreboard:
    def test_in_order_matching(self):
        board = Scoreboard()
        board.expect_all([1, 2, 3])
        board.observe(1)
        board.observe(2)
        board.observe(3)
        assert board.matched == 3
        assert board.clean
        board.require_clean()

    def test_mismatch_strict_raises(self):
        board = Scoreboard()
        board.expect(1)
        with pytest.raises(ConsistencyError):
            board.observe(2)

    def test_unexpected_item(self):
        board = Scoreboard(strict=False)
        board.observe(1)
        assert board.mismatches
        assert not board.clean

    def test_lenient_collects(self):
        board = Scoreboard(strict=False)
        board.expect_all([1, 2])
        board.observe(9)
        board.observe(2)
        assert len(board.mismatches) == 1
        assert board.matched == 1

    def test_outstanding_expectations(self):
        board = Scoreboard()
        board.expect(1)
        assert board.outstanding == 1
        with pytest.raises(ConsistencyError, match="never observed"):
            board.require_clean()


class TestMemoryImage:
    def test_matching_window(self):
        memory = Memory(64)
        memory.load(0, [1, 2, 3])
        check_memory_image(memory, [1, 2, 3])

    def test_mismatch_reports_address(self):
        memory = Memory(64)
        memory.load(0, [1, 2, 3])
        with pytest.raises(ConsistencyError, match="0x4"):
            check_memory_image(memory, [1, 9, 3])

    def test_offset_base(self):
        memory = Memory(64)
        memory.load(0x10, [7])
        check_memory_image(memory, [7], base=0x10)


class TestCoverage:
    def test_basic_sampling(self):
        collector = CoverageCollector("test")
        collector.add_point("burst", [1, 2, 4])
        collector.sample("burst", 1)
        collector.sample("burst", 4)
        point = collector.point("burst")
        assert point.covered_bins == 2
        assert point.holes() == [2]
        assert point.coverage == pytest.approx(2 / 3)

    def test_other_values_counted_separately(self):
        collector = CoverageCollector()
        collector.add_point("p", ["a"])
        collector.sample("p", "not a bin")
        assert collector.point("p").others == 1
        assert collector.point("p").covered_bins == 0

    def test_at_least_threshold(self):
        collector = CoverageCollector()
        collector.add_point("p", ["x"], at_least=3)
        collector.sample("p", "x")
        assert collector.point("p").holes() == ["x"]
        collector.sample("p", "x")
        collector.sample("p", "x")
        assert collector.point("p").holes() == []

    def test_aggregate_goal(self):
        collector = CoverageCollector()
        collector.add_point("a", [1])
        collector.add_point("b", [1])
        collector.sample("a", 1)
        assert collector.coverage == pytest.approx(0.5)
        with pytest.raises(CoverageError):
            collector.require(goal=0.9)
        collector.sample("b", 1)
        collector.require(goal=1.0)

    def test_report_text(self):
        collector = CoverageCollector("pci")
        collector.add_point("term", ["completion", "retry"])
        collector.sample("term", "completion")
        text = collector.report()
        assert "pci" in text
        assert "holes: ['retry']" in text

    def test_validation(self):
        collector = CoverageCollector()
        with pytest.raises(CoverageError):
            collector.add_point("p", [])
        collector.add_point("p", [1])
        with pytest.raises(CoverageError):
            collector.add_point("p", [1])
        with pytest.raises(CoverageError):
            collector.sample("unknown", 1)
        with pytest.raises(CoverageError):
            collector.point("unknown")


class TestProbeCoverage:
    def _bound(self):
        from repro.instrument import TRANSACTION_END, ProbeBus
        from repro.verify import ProbeCoverage

        bus = ProbeBus()
        collector = CoverageCollector("bus")
        collector.add_point("burst", [1, 2, 4])
        sampler = ProbeCoverage(collector).cover(
            TRANSACTION_END, "burst", lambda time, source, words, begin: words
        )
        return bus, collector, sampler, TRANSACTION_END

    def test_samples_from_probe_emissions(self):
        bus, collector, sampler, kind = self._bound()
        sampler.attach(bus)
        bus.emit(kind, 100, "top.monitor", 1, 50)
        bus.emit(kind, 200, "top.monitor", 4, 150)
        point = collector.point("burst")
        assert point.covered_bins == 2
        assert point.holes() == [2]

    def test_none_extraction_skips_sample(self):
        bus, collector, sampler, kind = self._bound()
        sampler.attach(bus)
        bus.emit(kind, 100, "top.monitor", None, 50)
        assert collector.point("burst").covered_bins == 0
        assert collector.point("burst").others == 0

    def test_detach_stops_sampling(self):
        bus, collector, sampler, kind = self._bound()
        sampler.attach(bus)
        sampler.detach()
        sampler.detach()  # idempotent
        bus.emit(kind, 100, "top.monitor", 1, 50)
        assert collector.point("burst").covered_bins == 0

    def test_unknown_point_rejected_at_bind_time(self):
        from repro.instrument import TRANSACTION_END, ProbeBus
        from repro.verify import ProbeCoverage

        collector = CoverageCollector()
        with pytest.raises(CoverageError):
            ProbeCoverage(collector).cover(
                TRANSACTION_END, "nope", lambda *a: 1
            )
        collector.add_point("p", [1])
        sampler = ProbeCoverage(collector)
        sampler.attach(ProbeBus())
        with pytest.raises(CoverageError):
            sampler.cover(TRANSACTION_END, "p", lambda *a: 1)
