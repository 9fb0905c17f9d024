"""Unit tests for the Simulator facade: registry, elaboration, tracing."""

import pytest

from repro.errors import ElaborationError
from repro.hdl import Module
from repro.kernel import NS, Simulator


@pytest.fixture
def sim():
    return Simulator()


class TestRegistry:
    def test_lookup_by_path(self, sim):
        module = Module(sim, "top")
        child = Module(module, "child")
        assert sim.lookup("top") is module
        assert sim.lookup("top.child") is child

    def test_duplicate_names_rejected(self, sim):
        Module(sim, "top")
        with pytest.raises(ElaborationError):
            Module(sim, "top")

    def test_unknown_lookup_raises(self, sim):
        with pytest.raises(ElaborationError):
            sim.lookup("nope")

    def test_iter_named_sorted(self, sim):
        Module(sim, "beta")
        Module(sim, "alpha")
        names = [name for name, __ in sim.iter_named()]
        assert names == sorted(names)


class TestElaboration:
    def test_unbound_port_fails_elaboration(self, sim):
        module = Module(sim, "top")
        module.in_port("data", width=8)
        with pytest.raises(ElaborationError, match="never bound"):
            sim.run(1)

    def test_elaboration_is_idempotent(self, sim):
        Module(sim, "top")
        sim.elaborate()
        sim.elaborate()
        assert sim.elaborated

    def test_no_modules_after_elaboration(self, sim):
        sim.elaborate()
        with pytest.raises(ElaborationError):
            Module(sim, "late")

    def test_end_of_elaboration_hook_runs(self, sim):
        calls = []

        class Hooked(Module):
            def end_of_elaboration(self):
                calls.append(self.path)

        Hooked(sim, "a")
        parent = Hooked(sim, "b")
        Hooked(parent, "c")
        sim.elaborate()
        assert sorted(calls) == ["a", "b", "b.c"]


class TestTracing:
    def test_tracer_sees_signal_commits(self, sim):
        module = Module(sim, "top")
        signal = module.signal("s", width=8, init=0)
        seen = []

        class Recorder:
            def record_change(self, time, sig, value):
                seen.append((time, sig.name, value.to_int()))

        sim.add_tracer(Recorder())

        def writer():
            from repro.kernel import Timeout
            signal.write(5)
            yield Timeout(10 * NS)
            signal.write(9)
            yield Timeout(1)

        sim.spawn(writer, "w")
        sim.run(20 * NS)
        assert (0, "top.s", 5) in seen
        assert (10 * NS, "top.s", 9) in seen

    def test_remove_tracer(self, sim):
        recorder = type("R", (), {"record_change": lambda *a: None})()
        sim.add_tracer(recorder)
        sim.remove_tracer(recorder)
        assert recorder not in sim._tracers


class TestIdleRun:
    def test_result_is_the_end_time_integer(self, sim):
        Module(sim, "top")
        result = sim.run_until_idle(100 * NS)
        assert isinstance(result, int)
        assert result == sim.time
        assert result.quiescent
        assert list(result.blocked_processes) == []

    def test_blocked_guarded_call_is_reported(self, sim):
        from repro.osss import GlobalObject, guarded_method

        class Latch:
            def __init__(self):
                self.ready = False

            @guarded_method(lambda self: self.ready)
            def take(self):
                return True

        top = Module(sim, "top")
        latch = GlobalObject(top, "latch", Latch)

        def starved():
            yield from latch.take()

        sim.spawn(starved, "starved")
        result = sim.run_until_idle(100 * NS)
        assert not result.quiescent
        blocked = result.blocked_processes
        assert len(blocked) == 1
        assert blocked[0].method == "take"
        assert blocked[0].object_path == "top.latch"
        # The live query agrees with the snapshot on the result.
        assert [b.method for b in sim.blocked_processes()] == ["take"]


class TestDetections:
    def test_report_detection_records(self, sim):
        sim.report_detection("top.monitor", "TRDY# without DEVSEL#")
        assert len(sim.detections) == 1
        record = sim.detections[0]
        assert record.source == "top.monitor"
        assert "TRDY#" in record.message
        assert record.time == sim.time

    def test_simulator_detections_flow_over_the_bus(self):
        from repro.instrument import DETECTION

        sim = Simulator()
        seen = []
        sim.probes.subscribe(DETECTION, seen.append)
        sim.report_detection("checker", "boom")
        assert [record.source for record in seen] == ["checker"]
        # The bus carries the very record the simulator's log keeps.
        assert sim.detections[0] is seen[0]

    def test_detections_without_bus_still_recorded(self):
        sim = Simulator()  # no bus attached
        sim.report_detection("checker", "quiet")
        assert len(sim.detections) == 1
        assert sim._probes is None

    def test_nonstrict_monitor_violation_is_still_a_detection(self, sim):
        """The verify checkers feed detections even when not raising."""
        from repro.verify import InvariantChecker

        top = Module(sim, "top")
        flag = top.signal("flag", width=1, init=0)
        InvariantChecker(
            top, "inv", flag, lambda v: v.to_int() == 0, strict=False
        )

        def writer():
            from repro.kernel import Timeout
            yield Timeout(10 * NS)
            flag.write(1)
            yield Timeout(10 * NS)

        sim.spawn(writer, "w")
        sim.run(50 * NS)
        assert sim.detections
        assert "inv" in sim.detections[0].source
