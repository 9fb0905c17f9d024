"""Tests for communication scorecards driven by synthetic probe events."""

from repro.instrument.probes import (
    DETECTION,
    METHOD_CALL,
    METHOD_GRANT,
    METHOD_QUEUE,
    TRANSACTION_BEGIN,
    TRANSACTION_END,
    ProbeBus,
)
from repro.telemetry.scorecard import (
    CellScore,
    MatrixScorecard,
    ScorecardProbe,
    beats_of,
    fairness_index,
)

NS = 1_000_000  # fs


class _Payload:
    def __init__(self, txn_id, word_count=1):
        self.txn_id = txn_id
        self.word_count = word_count


class _Request:
    def __init__(self, client, arrival_time=None, grant_time=None):
        self.client = client
        self.method = "put"
        self.arrival_time = arrival_time
        self.grant_time = grant_time


class TestHelpers:
    def test_beats_of_prefers_word_count(self):
        assert beats_of(_Payload(1, word_count=4)) == 4

    def test_beats_of_data_list(self):
        class P:
            data = [1, 2, 3]
        assert beats_of(P()) == 3

    def test_beats_of_count_attribute(self):
        class P:
            count = 2
        assert beats_of(P()) == 2

    def test_beats_of_defaults_to_one(self):
        assert beats_of(object()) == 1

    def test_fairness_perfectly_fair(self):
        assert fairness_index([5, 5, 5]) == 1.0

    def test_fairness_one_hog(self):
        # One of three clients got everything -> 1/3.
        value = fairness_index([9, 0, 0])
        assert abs(value - 1.0) < 1e-9

    def test_fairness_skewed_is_below_one(self):
        value = fairness_index([8, 1, 1])
        assert 0 < value < 1.0

    def test_fairness_none_without_grants(self):
        assert fairness_index([]) is None
        assert fairness_index([0, 0]) is None


def _drive(probe_bus, source="top.bus.mon", base=0, n=3, gap=100 * NS,
           duration=60 * NS, word_count=2):
    """Emit n paired transactions on the probe bus."""
    for index in range(n):
        payload = _Payload(txn_id=base + index, word_count=word_count)
        begin = base * 1000 + index * gap
        probe_bus.emit(TRANSACTION_BEGIN, begin, source, payload)
        probe_bus.emit(
            TRANSACTION_END, begin + duration, source, payload, begin
        )


class TestScorecardProbe:
    def test_pairs_transactions_and_measures_latency(self):
        bus = ProbeBus()
        probe = ScorecardProbe(cycle_fs=10 * NS).attach(bus)
        _drive(bus, n=4, duration=60 * NS)
        score = probe.score("pci", "synthesized", "unit")
        assert score.transactions == 4
        assert score.ends_total == 4
        assert score.beats == 8
        assert score.latency.count == 4
        assert score.latency.p50 == 60 * NS  # clamped to exact max
        assert score.primary_source == "top.bus.mon"

    def test_unpaired_end_counts_but_does_not_score(self):
        bus = ProbeBus()
        probe = ScorecardProbe().attach(bus)
        bus.emit(TRANSACTION_END, 100, "top.bus.mon", _Payload(1), None)
        score = probe.score()
        assert score.ends_total == 1
        assert score.transactions == 0

    def test_utilization_is_union_of_intervals(self):
        bus = ProbeBus()
        probe = ScorecardProbe().attach(bus)
        # Two overlapping transactions covering [0, 150] of a 200 span.
        a, b, c = _Payload(1), _Payload(2), _Payload(3)
        bus.emit(TRANSACTION_BEGIN, 0, "m", a)
        bus.emit(TRANSACTION_BEGIN, 50, "m", b)
        bus.emit(TRANSACTION_END, 100, "m", a, 0)
        bus.emit(TRANSACTION_END, 150, "m", b, 50)
        bus.emit(TRANSACTION_BEGIN, 200, "m", c)
        bus.emit(TRANSACTION_END, 200, "m", c, 200)
        score = probe.score()
        assert score.span_fs == 200
        assert score.busy_fs == 150
        assert abs(score.utilization - 0.75) < 1e-9

    def test_primary_source_is_busiest_emitter(self):
        bus = ProbeBus()
        probe = ScorecardProbe().attach(bus)
        _drive(bus, source="top.interface.channel", n=2)
        _drive(bus, source="top.bus.mon", base=100, n=5)
        score = probe.score()
        assert score.primary_source == "top.bus.mon"
        assert score.transactions == 5

    def test_grant_fairness_and_wait(self):
        bus = ProbeBus()
        probe = ScorecardProbe().attach(bus)
        for client, wait in (("a", 10), ("b", 20), ("a", 0)):
            request = _Request(client, arrival_time=100,
                               grant_time=100 + wait)
            bus.emit(METHOD_CALL, 100, "space", request)
            bus.emit(METHOD_QUEUE, 100, "space", request)
            bus.emit(METHOD_GRANT, 100 + wait, "space", request)
        score = probe.score()
        assert score.grants == 3
        assert score.grants_by_client == {"a": 2, "b": 1}
        assert score.wait.count == 3
        assert score.wait.max == 20
        assert 0 < score.fairness < 1.0
        assert score.queue_ratio == 1.0

    def test_detections_counted(self):
        bus = ProbeBus()
        probe = ScorecardProbe().attach(bus)
        bus.emit(DETECTION, object())
        assert probe.score().detections == 1

    def test_detach_stops_counting(self):
        bus = ProbeBus()
        probe = ScorecardProbe().attach(bus)
        _drive(bus, n=1)
        probe.detach()
        _drive(bus, base=50, n=3)
        assert probe.score().transactions == 1


class TestCellScore:
    def _score(self, n=3):
        bus = ProbeBus()
        probe = ScorecardProbe(cycle_fs=10 * NS).attach(bus)
        _drive(bus, n=n)
        return probe.score("pci", "synthesized", "x")

    def test_merge_sums_and_keeps_digests(self):
        total = CellScore("pci", "synthesized", "sum")
        total.merge(self._score(2))
        total.merge(self._score(3))
        assert total.transactions == 5
        assert total.latency.count == 5
        assert total.cycle_fs == 10 * NS

    def test_merge_order_independent(self):
        a, b = self._score(2), self._score(4)
        ab = CellScore().merge(a).merge(b)
        ba = CellScore().merge(b).merge(a)
        assert ab.to_dict()["latency"] == ba.to_dict()["latency"]
        assert ab.transactions == ba.transactions

    def test_dict_round_trip(self):
        score = self._score()
        document = score.to_dict()
        clone = CellScore.from_dict(document)
        assert clone.to_dict() == document

    def test_throughput_needs_cycle(self):
        score = self._score()
        score.cycle_fs = 0
        assert score.throughput == 0.0


class TestMatrixScorecard:
    def _card(self):
        cells = []
        for bus in ("pci", "wishbone"):
            for level in ("functional", "synthesized"):
                probe_bus = ProbeBus()
                probe = ScorecardProbe(cycle_fs=10 * NS).attach(probe_bus)
                _drive(probe_bus, n=3)
                cells.append(probe.score(bus, level, f"{bus}/{level}"))
        return MatrixScorecard(
            55, 25, ("pci", "wishbone"), ("functional", "synthesized"),
            cells,
        )

    def test_cell_lookup(self):
        card = self._card()
        assert card.cell("pci", "synthesized").bus == "pci"
        assert card.cell("axi4lite", "functional") is None

    def test_render_has_header_and_all_rows(self):
        text = self._card().render()
        assert "communication scorecard: seed 55" in text
        for column in ("util", "beats/cyc", "p50 ns", "p95 ns", "p99 ns"):
            assert column in text
        assert text.count("wishbone") == 2

    def test_markdown_is_a_table(self):
        lines = self._card().render_markdown().splitlines()
        assert lines[0].startswith("| bus | level |")
        assert all(line.startswith("|") for line in lines)
        assert len(lines) == 2 + 4

    def test_to_dict_orders_bus_major(self):
        document = self._card().to_dict()
        assert [c["bus"] for c in document["cells"]] == [
            "pci", "pci", "wishbone", "wishbone",
        ]
        assert document["seed"] == 55

    _FAMILIES = {
        "pci": {
            "bit_flip": {"detected": 3, "silent": 1},
            "glitch": {"benign": 2},
        },
        "wishbone": {
            "bit_flip": {"detected": 2, "recovered": 1},
        },
    }

    def _fault_card(self):
        card = self._card()
        return MatrixScorecard(
            card.seed, card.n_commands, card.buses, card.levels,
            card.cells, fault_families=self._FAMILIES,
        )

    def test_fault_family_table_renders(self):
        text = self._fault_card().render()
        assert "fault detection per family" in text
        assert "bit_flip" in text
        assert "75.0%" in text  # 3 detected / 4 effective on pci
        # No fault leg, no table.
        assert "fault detection" not in self._card().render()

    def test_fault_family_markdown(self):
        text = self._fault_card().render_markdown()
        assert "| bus | fault | runs | detected |" in text
        assert "| pci | glitch | 2 | 0 | 0 | 2 | 0 | n/a |" in text

    def test_fault_families_in_dict(self):
        document = self._fault_card().to_dict()
        assert document["fault_families"] == self._FAMILIES
        assert self._card().to_dict()["fault_families"] == {}
