"""1-bit signal writes and edge detection on the interned-value path."""

import pytest

from repro.hdl import Clock, LogicVector, Signal
from repro.hdl.bitvector import to_vector
from repro.hdl.logic import L0, L1
from repro.kernel import NS, Simulator, Timeout


@pytest.mark.parametrize(
    ("value", "expected"),
    [(0, 0), (1, 1), (True, 1), (False, 0), ("1", 1), ("0", 0),
     (L1, 1), (L0, 0)],
)
def test_one_bit_writes_commit_equal_values(value, expected):
    sim = Simulator()
    signal = Signal(sim, "s", width=1)

    def writer():
        signal.write(value)
        yield Timeout(1 * NS)

    sim.spawn(writer, "w")
    sim.run(2 * NS)
    committed = signal.read()
    assert committed == LogicVector(1, expected)
    assert committed == to_vector(1, expected)
    assert signal.to_int() == expected


def test_int_and_bool_share_interned_constants():
    assert to_vector(1, 1) is to_vector(1, True)
    assert to_vector(1, 0) is to_vector(1, False)
    # Only bit 0 counts, as in LogicVector(1, v).
    assert to_vector(1, 2) is to_vector(1, 0)
    assert to_vector(1, -1) == LogicVector(1, -1)
    assert to_vector(8, 5) == LogicVector(8, 5)


def test_edges_fire_once_per_edge_including_from_x():
    sim = Simulator()
    signal = Signal(sim, "s", width=1)  # powers up X
    edges = []

    def watch(event, label):
        def watcher():
            while True:
                yield event
                edges.append((label, sim.time // NS))
        return watcher

    sim.spawn(watch(signal.posedge, "pos"), "pos")
    sim.spawn(watch(signal.negedge, "neg"), "neg")

    def driver():
        for value in (1, True, 0, "X", 0, True, L1, L0, False):
            yield Timeout(10 * NS)
            signal.write(value)

    sim.spawn(driver, "d")
    sim.run(100 * NS)
    assert edges == [
        ("pos", 10),  # X -> 1
        ("neg", 30),  # 1 -> 0
        ("neg", 50),  # X -> 0
        ("pos", 60),  # 0 -> 1
        ("neg", 80),  # 1 -> 0
    ]


def test_clock_edges_fire_once_per_cycle():
    sim = Simulator()
    clock = Clock(sim, "clock", period=10 * NS)
    counts = {"pos": 0, "neg": 0}

    def count(event, label):
        def counter():
            while True:
                yield event
                counts[label] += 1
        return counter

    sim.spawn(count(clock.posedge, "pos"), "pos")
    sim.spawn(count(clock.negedge, "neg"), "neg")
    sim.run(1000 * NS + 1)
    assert clock.cycle_count == 100
    assert counts == {"pos": 100, "neg": 100}
