"""Unit tests for in-memory waveform capture and comparison."""

import pytest

from repro.errors import SimulationError
from repro.hdl import Module
from repro.kernel import NS, Simulator, Timeout
from repro.trace import WaveformCapture


def _build(sim, values, period=10 * NS):
    """A module whose signal steps through *values* every *period*."""
    top = Module(sim, "top")
    signal = top.signal("data", width=8, init=values[0])

    def proc():
        for value in values[1:]:
            yield Timeout(period)
            signal.write(value)
        yield Timeout(period)

    sim.spawn(proc, "driver")
    return signal


class TestCapture:
    def test_history_records_changes(self):
        sim = Simulator()
        signal = _build(sim, [0, 1, 2])
        capture = WaveformCapture()
        capture.add_signal(signal)
        sim.add_tracer(capture)
        sim.run(100 * NS)
        changes = capture.changes("top.data")
        assert [v.to_int() for __, v in changes] == [0, 1, 2]

    def test_value_at_interpolates(self):
        sim = Simulator()
        signal = _build(sim, [7, 8])
        capture = WaveformCapture()
        capture.add_signal(signal)
        sim.add_tracer(capture)
        sim.run(100 * NS)
        assert capture.value_at("top.data", 0).to_int() == 7
        assert capture.value_at("top.data", 9 * NS).to_int() == 7
        assert capture.value_at("top.data", 10 * NS).to_int() == 8
        assert capture.value_at("top.data", 99 * NS).to_int() == 8

    def test_sample_grid(self):
        sim = Simulator()
        signal = _build(sim, [0, 1])
        capture = WaveformCapture()
        capture.add_signal(signal)
        sim.add_tracer(capture)
        sim.run(100 * NS)
        samples = capture.sample("top.data", 0, 30 * NS, 10 * NS)
        assert [v.to_int() for __, v in samples] == [0, 1, 1]

    def test_sample_bad_step(self):
        capture = WaveformCapture()
        sim = Simulator()
        signal = _build(sim, [0])
        capture.add_signal(signal)
        sim.add_tracer(capture)
        sim.run(20 * NS)
        with pytest.raises(SimulationError):
            capture.sample("top.data", 0, 10, 0)

    def test_unknown_signal_raises(self):
        capture = WaveformCapture()
        with pytest.raises(SimulationError):
            capture.value_at("nope", 0)


class TestDiff:
    def _capture_for(self, values):
        sim = Simulator()
        signal = _build(sim, values)
        capture = WaveformCapture()
        capture.add_signal(signal)
        sim.add_tracer(capture)
        sim.run(200 * NS)
        return capture

    def test_identical_runs_match(self):
        a = self._capture_for([0, 1, 2])
        b = self._capture_for([0, 1, 2])
        assert a.diff(b) == []

    def test_differing_runs_flagged(self):
        a = self._capture_for([0, 1, 2])
        b = self._capture_for([0, 1, 3])
        problems = a.diff(b)
        assert len(problems) == 1
        assert "top.data" in problems[0]

    def test_rename_mapping(self):
        a = self._capture_for([0, 5])
        b = self._capture_for([0, 5])
        b.history["renamed.data"] = b.history.pop("top.data")
        assert a.diff(b, rename=lambda n: n.replace("top", "renamed")) == []
