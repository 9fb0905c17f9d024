"""Unit tests for module hierarchy, ports and binding."""

import pytest

from repro.errors import ElaborationError
from repro.hdl import Module
from repro.kernel import NS, Simulator, Timeout


@pytest.fixture
def sim():
    return Simulator()


class TestHierarchy:
    def test_paths(self, sim):
        top = Module(sim, "top")
        mid = Module(top, "mid")
        leaf = Module(mid, "leaf")
        assert leaf.path == "top.mid.leaf"
        assert leaf.sim is sim
        assert top.children == (mid,)

    def test_iter_modules_depth_first(self, sim):
        top = Module(sim, "top")
        a = Module(top, "a")
        b = Module(top, "b")
        a1 = Module(a, "a1")
        assert list(top.iter_modules()) == [top, a, a1, b]

    def test_bad_parent_rejected(self):
        with pytest.raises(ElaborationError):
            Module("not a parent", "x")


class TestPorts:
    def test_port_binding_and_io(self, sim):
        top = Module(sim, "top")
        wire = top.signal("wire", width=8, init=0)

        class Producer(Module):
            def __init__(self, parent, name):
                super().__init__(parent, name)
                self.out = self.out_port("out", width=8)
                self.thread(self._run)

            def _run(self):
                self.out.write(0x42)
                yield Timeout(0)

        class Consumer(Module):
            def __init__(self, parent, name):
                super().__init__(parent, name)
                self.inp = self.in_port("inp", width=8)
                self.seen = None
                self.thread(self._run)

            def _run(self):
                yield self.inp.changed
                self.seen = self.inp.read().to_int()

        producer = Producer(top, "producer")
        consumer = Consumer(top, "consumer")
        producer.out.bind(wire)
        consumer.inp.bind(wire)
        sim.run(10 * NS)
        assert consumer.seen == 0x42

    def test_write_to_input_rejected(self, sim):
        top = Module(sim, "top")
        port = top.in_port("p", width=1)
        port.bind(top.signal("s", width=1))
        with pytest.raises(ElaborationError):
            port.write(1)

    def test_width_mismatch_rejected(self, sim):
        top = Module(sim, "top")
        port = top.in_port("p", width=8)
        with pytest.raises(ElaborationError):
            port.bind(top.signal("s", width=4))

    def test_port_to_port_binding(self, sim):
        top = Module(sim, "top")
        signal = top.signal("s", width=4)
        outer = top.out_port("outer", width=4)
        outer.bind(signal)
        inner = top.out_port("inner", width=4)
        inner.bind(outer)
        assert inner.signal is signal

    def test_binding_to_unbound_port_rejected(self, sim):
        top = Module(sim, "top")
        a = top.in_port("a", width=1)
        b = top.in_port("b", width=1)
        with pytest.raises(ElaborationError):
            a.bind(b)

    def test_inout_needs_resolved(self, sim):
        top = Module(sim, "top")
        bus = top.resolved_signal("bus", 8)
        port = top.in_port("p", width=8)
        with pytest.raises(ElaborationError, match="INOUT"):
            port.bind(bus)

    def test_inout_drives_and_releases(self, sim):
        top = Module(sim, "top")
        bus = top.resolved_signal("bus", 8)
        port = top.inout_port("p", width=8)
        port.bind(bus)

        def proc():
            port.write(0x33)
            yield Timeout(10 * NS)
            port.release()
            yield Timeout(0)

        sim.spawn(proc, "p")
        sim.run(5 * NS)
        assert bus.read().to_int() == 0x33
        sim.run(20 * NS)
        assert bus.read().is_all_z

    def test_unbound_read_raises(self, sim):
        top = Module(sim, "top")
        port = top.in_port("p", width=1)
        with pytest.raises(ElaborationError):
            port.read()

    def test_bad_direction_rejected(self, sim):
        from repro.hdl.port import Port
        with pytest.raises(ElaborationError):
            Port("top", "p", "sideways")


class TestSensitivity:
    def test_method_sensitive_to_signal(self, sim):
        top = Module(sim, "top")
        a = top.signal("a", width=1, init=0)
        b = top.signal("b", width=1, init=0)
        # Combinational: b = ~a, evaluated on every change of a.
        top.method(lambda: b.write((~a.read())), sensitivity=[a])

        def driver():
            yield Timeout(10 * NS)
            a.write(1)
            yield Timeout(10 * NS)

        sim.spawn(driver, "d")
        sim.run(30 * NS)
        assert b.read().to_int() == 0

    def test_bad_sensitivity_item_rejected(self, sim):
        top = Module(sim, "top")
        with pytest.raises(ElaborationError):
            top.method(lambda: None, sensitivity=["nope"])
