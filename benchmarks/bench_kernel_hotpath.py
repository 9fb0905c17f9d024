"""KER-HOT — kernel hot-path scaling, probe-bus overhead, clock floor.

Three questions about the evaluate/update core:

1. Does delta-event scheduling scale linearly in the number of pending
   delta notifications?  The scheduler used to guard against duplicate
   delta entries with an ``in`` scan over the pending list, which made a
   round of *n* notifications cost O(n^2); the per-event
   ``_delta_pending`` flag restores O(n).
2. What does the probe bus cost when nothing subscribes?  The hot paths
   (signal commit, process switch, delta begin/end) check a single
   attribute against ``None`` — the off-path must stay within noise of
   a kernel that never heard of probes.
3. What does one idle clock cycle cost before any model code runs?
   Host microseconds per cycle for a bare ``Clock`` and for a clock
   driving an idle synthesized (interpreted RTL) method channel. This
   is the floor under every pin-level and synthesized simulation.
"""

import time

import pytest
from _tables import print_table

from repro.hdl import Clock, Module
from repro.instrument import MetricsCollector
from repro.kernel import NS, Simulator, Timeout
from repro.osss import GlobalObject, connect, guarded_method
from repro.synthesis import SynthesisConfig, synthesize_communication

ROUNDS = 50


def _delta_storm(n_events, rounds=ROUNDS):
    """Run ``rounds`` rounds of ``n_events`` same-delta notifications."""
    sim = Simulator()
    events = [sim.event(f"e{i}") for i in range(n_events)]
    for event in events:
        event.add_callback(lambda: None)

    def driver():
        for __ in range(rounds):
            for event in events:
                event.notify_delta()
            yield Timeout(1000)

    sim.spawn(driver, "driver")
    started = time.perf_counter()
    sim.run(rounds * 1200)
    return time.perf_counter() - started


@pytest.mark.parametrize("n_events", [100, 400, 800])
def test_ker_hot_delta_scan_scales_linearly(benchmark, n_events):
    elapsed = benchmark.pedantic(
        _delta_storm, args=(n_events,), rounds=1, iterations=1
    )
    assert elapsed < 5.0


def test_ker_hot_delta_scan_table():
    rows = []
    base = None
    for n_events in (100, 200, 400, 800):
        elapsed = min(_delta_storm(n_events) for __ in range(3))
        if base is None:
            base = elapsed
        rows.append([n_events, f"{elapsed * 1e3:.1f}",
                     f"{elapsed / base:.1f}x"])
    print_table(
        "KER-HOT delta-event scheduling (50 rounds)",
        ["pending events", "best-of-3 (ms)", "vs 100"],
        rows,
    )
    # O(n): 8x the events must not cost more than ~20x the time (O(n^2)
    # costed ~45x here before the _delta_pending flag).
    assert rows[-1][0] / rows[0][0] == 8
    scale = float(rows[-1][2][:-1])
    assert scale < 20.0


def _counter_workload(instrumented):
    sim = Simulator()
    if instrumented:
        MetricsCollector().attach(sim.probes)
    state = {"count": 0}
    event = sim.event("tick")

    def producer():
        for __ in range(2000):
            event.notify_delta()
            yield Timeout(10)

    def consumer():
        while True:
            yield event
            state["count"] += 1

    sim.spawn(producer, "producer")
    sim.spawn(consumer, "consumer")
    started = time.perf_counter()
    sim.run(2000 * 12)
    elapsed = time.perf_counter() - started
    assert state["count"] == 2000
    return elapsed


def test_ker_hot_probe_bus_off_vs_on():
    off = min(_counter_workload(False) for __ in range(3))
    on = min(_counter_workload(True) for __ in range(3))
    print_table(
        "KER-HOT probe bus overhead (2000 event round-trips)",
        ["instrumentation", "best-of-3 (ms)"],
        [["off (null bus)", f"{off * 1e3:.2f}"],
         ["on (MetricsCollector)", f"{on * 1e3:.2f}"]],
    )
    # The subscribed path legitimately pays for its callbacks; the off
    # path must stay cheap in absolute terms.
    assert off < 1.0


CLOCK_PERIOD = 10 * NS
FLOOR_CYCLES = 20_000


class _Counter:
    def __init__(self):
        self.count = 0

    @guarded_method()
    def bump(self):
        self.count += 1


class _Host(Module):
    def __init__(self, parent, name):
        super().__init__(parent, name)
        self.obj = GlobalObject(self, "obj", _Counter)


def _bare_clock():
    sim = Simulator()
    return sim, Clock(sim, "clock", period=CLOCK_PERIOD), None


def _clock_and_idle_channel():
    sim = Simulator()
    clock = Clock(sim, "clock", period=CLOCK_PERIOD)
    hosts = [_Host(sim, f"h{i}") for i in range(2)]
    connect(*[host.obj for host in hosts])
    result = synthesize_communication(
        sim, clock.clk, SynthesisConfig(emit_hdl=False)
    )
    return sim, clock, result.groups[0].channel


def _us_per_cycle(build, cycles=FLOOR_CYCLES):
    """Host µs per idle clock cycle of the platform *build* returns."""
    sim, clock, channel = build()
    sim.run(CLOCK_PERIOD)  # elaborate and start every process untimed
    start_cycles = clock.cycle_count
    started = time.perf_counter()
    sim.run(cycles * CLOCK_PERIOD)
    elapsed = time.perf_counter() - started
    # Idle cycles are simulated, not skipped: every counter stays exact.
    assert clock.cycle_count - start_cycles == cycles
    if channel is not None:
        assert channel.idle_cycles == clock.cycle_count
        assert channel.calls_serviced == 0
    return elapsed / cycles * 1e6


def test_ker_hot_clock_floor_table():
    rows = []
    for label, build in (
        ("bare Clock", _bare_clock),
        ("Clock + idle synthesized channel", _clock_and_idle_channel),
    ):
        best = min(_us_per_cycle(build) for __ in range(3))
        rows.append([label, f"{best:.2f}"])
    print_table(
        f"KER-HOT idle clock floor ({FLOOR_CYCLES} cycles)",
        ["platform", "best-of-3 (us/cycle)"],
        rows,
    )
