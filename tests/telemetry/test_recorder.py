"""Tests for the flight recorder ring, dumps and replay."""

import json

import pytest

from repro.instrument.probes import (
    DETECTION,
    FAULT_ACTIVATE,
    METHOD_CALL,
    TRANSACTION_BEGIN,
    TRANSACTION_END,
    ProbeBus,
)
from repro.telemetry.recorder import (
    DEFAULT_RECORD_KINDS,
    FlightRecorder,
    flight_record_chrome_trace,
    load_flight_record,
    render_flight_record,
)


class _Payload:
    def __init__(self, txn_id):
        self.txn_id = txn_id


class _Request:
    method = "get_command"
    client = "top.app0"
    path = "top.app0"


class TestRing:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FlightRecorder(0)

    def test_manual_markers(self):
        recorder = FlightRecorder(8)
        recorder.record("run.start", run_id=3, fault="glitch")
        assert recorder.events[0]["kind"] == "run.start"
        assert recorder.events[0]["fault"] == "glitch"

    def test_ring_keeps_tail_and_counts_drops(self):
        recorder = FlightRecorder(4)
        for index in range(10):
            recorder.record("marker", index=index)
        assert recorder.seen == 10
        assert recorder.dropped == 6
        assert [e["index"] for e in recorder.events] == [6, 7, 8, 9]
        assert [e["index"] for e in recorder.tail(2)] == [8, 9]
        assert recorder.tail(0) == []

    def test_default_kinds_exclude_hot_kernel_events(self):
        assert "signal.commit" not in DEFAULT_RECORD_KINDS
        assert TRANSACTION_END in DEFAULT_RECORD_KINDS
        assert FAULT_ACTIVATE in DEFAULT_RECORD_KINDS


class TestProbeCapture:
    def test_captures_and_flattens_probe_events(self):
        bus = ProbeBus()
        recorder = FlightRecorder(16).attach(bus)
        bus.emit(METHOD_CALL, 1000, _Request(), _Request())
        payload = _Payload(7)
        bus.emit(TRANSACTION_BEGIN, 2000, "top.bus.mon", payload)
        bus.emit(TRANSACTION_END, 2500, "top.bus.mon", payload)
        events = recorder.events
        assert [e["kind"] for e in events] == [
            METHOD_CALL, TRANSACTION_BEGIN, TRANSACTION_END,
        ]
        assert events[0]["method"] == "get_command"
        assert events[1]["txn_id"] == 7
        # Every field must already be JSON-ready (no live objects).
        json.dumps(events)

    def test_detach_stops_recording(self):
        bus = ProbeBus()
        recorder = FlightRecorder(16).attach(bus)
        bus.emit(DETECTION, object())
        recorder.detach()
        bus.emit(DETECTION, object())
        assert recorder.seen == 1


class TestDumpAndReplay:
    def _dumped(self, tmp_path):
        bus = ProbeBus()
        recorder = FlightRecorder(16).attach(bus)
        payload = _Payload(3)
        bus.emit(TRANSACTION_BEGIN, 1_000_000, "top.bus.mon", payload)
        bus.emit(TRANSACTION_END, 2_000_000, "top.bus.mon", payload)
        bus.emit(DETECTION, object())
        path = tmp_path / "run000.jsonl"
        recorder.dump(path, header={"run_id": 0, "classification": "benign"})
        return path

    def test_round_trip(self, tmp_path):
        path = self._dumped(tmp_path)
        header, events = load_flight_record(path)
        assert header["type"] == "header"
        assert header["run_id"] == 0
        assert header["seen"] == 3
        assert header["dropped"] == 0
        assert len(events) == 3

    def test_render_timeline(self, tmp_path):
        header, events = load_flight_record(self._dumped(tmp_path))
        text = render_flight_record(header, events)
        assert "== flight record ==" in text
        assert "transaction.end" in text
        assert "classification" in text

    def test_chrome_trace_pairs_transactions(self, tmp_path):
        __, events = load_flight_record(self._dumped(tmp_path))
        slices = flight_record_chrome_trace(events)
        durations = [s for s in slices if s["ph"] == "X"]
        assert len(durations) == 1
        assert durations[0]["args"]["txn_id"] == 3
        assert durations[0]["dur"] > 0

    def test_chrome_trace_keeps_in_flight_transactions(self):
        # A crashed run: one transaction never ended, and an end on
        # another source must not close it despite the shared txn_id.
        events = [
            {"seq": 0, "kind": TRANSACTION_BEGIN, "time": 1_000_000,
             "source": "top.bus.mon", "payload": "Txn", "txn_id": 9},
            {"seq": 1, "kind": TRANSACTION_END, "time": 1_500_000,
             "source": "top.other", "payload": "Txn", "txn_id": 9},
            {"seq": 2, "kind": DETECTION, "time": 2_000_000,
             "source": "top.checker", "message": "stall"},
        ]
        slices = flight_record_chrome_trace(events)
        assert not [s for s in slices if s["ph"] == "X"]
        open_slices = [s for s in slices if s["args"].get("open")]
        assert len(open_slices) == 1
        assert open_slices[0]["name"] == TRANSACTION_BEGIN
        assert open_slices[0]["tid"] == "top.bus.mon"
        assert open_slices[0]["args"]["txn_id"] == 9
        assert [s["name"] for s in slices] == [
            TRANSACTION_BEGIN, TRANSACTION_END, DETECTION,
        ]
