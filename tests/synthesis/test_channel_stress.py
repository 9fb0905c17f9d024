"""Stress and edge cases of the executable RT-level channel.

Every case runs on both synthesis backends: the ``...Compiled``
subclasses repeat their base class with ``backend = "compiled"``.
"""

import pytest

from repro.compile import CompiledChannel
from repro.errors import SynthesisError
from repro.hdl import Clock, Module
from repro.kernel import MS, NS, Simulator
from repro.osss import GlobalObject, RoundRobinArbiter, connect, guarded_method
from repro.synthesis import SynthesisConfig, synthesize_communication

CLOCK = 10 * NS


class Tally:
    def __init__(self):
        self.per_client: dict = {}
        self.total = 0

    @guarded_method()
    def bump(self, who):
        self.per_client[who] = self.per_client.get(who, 0) + 1
        self.total += 1
        return self.total

    @guarded_method(lambda self: self.total >= 10)
    def over_ten(self):
        return self.total


def _stress(n_clients, calls_each, backend, arbiter=None):
    sim = Simulator()
    clock = Clock(sim, "clock", period=CLOCK)
    handles = []
    for i in range(n_clients):
        module = Module(sim, f"m{i}")
        handles.append(
            GlobalObject(module, "t", Tally,
                         arbiter=arbiter if i == 0 else None)
        )
    connect(*handles)
    result = synthesize_communication(
        sim, clock.clk, SynthesisConfig(emit_hdl=False, backend=backend)
    )
    channel = result.groups[0].channel
    finished = [0]

    def make(index, handle):
        def client():
            for __ in range(calls_each):
                yield from handle.bump(index)
            finished[0] += 1
            if finished[0] == n_clients:
                sim.stop()
        return client

    for index, handle in enumerate(handles):
        sim.spawn(make(index, handle), f"c{index}")
    sim.run(200 * MS)
    return handles[0].state, channel, finished[0]


class TestStress:
    backend = "interpreted"

    def test_twelve_clients(self):
        state, channel, finished = _stress(12, 10, self.backend)
        assert finished == 12
        assert state.total == 120
        assert all(count == 10 for count in state.per_client.values())
        assert channel.calls_serviced == 120

    def test_round_robin_twelve_clients(self):
        state, channel, finished = _stress(
            12, 5, self.backend, arbiter=RoundRobinArbiter()
        )
        assert state.total == 60
        # Rotation keeps worst-case waits bounded to roughly one lap.
        lap = 12 * 5  # clients x (handshake cycles per call)
        waits = [r.wait_time // CLOCK for r in channel.call_log]
        assert max(waits) < lap * 2

    def test_busy_idle_accounting(self):
        __, channel, ___ = _stress(2, 5, self.backend)
        assert channel.busy_cycles > 0
        assert channel.idle_cycles > 0
        assert channel.calls_serviced == 10


class TestStressCompiled(TestStress):
    backend = "compiled"

    def test_channel_runs_the_compiled_core(self):
        __, channel, ___ = _stress(2, 1, self.backend)
        assert isinstance(channel, CompiledChannel)
        assert channel.calls_serviced == 2


class TestEdgeCases:
    backend = "interpreted"

    def _config(self):
        return SynthesisConfig(emit_hdl=False, backend=self.backend)

    def test_guard_dependent_on_other_clients(self):
        """A guard that only becomes true through others' calls."""
        sim = Simulator()
        clock = Clock(sim, "clock", period=CLOCK)
        producer_host = Module(sim, "prod")
        waiter_host = Module(sim, "wait")
        producer = GlobalObject(producer_host, "t", Tally)
        waiter = GlobalObject(waiter_host, "t", Tally)
        connect(producer, waiter)
        synthesize_communication(sim, clock.clk, self._config())
        log = []

        def waiting_client():
            value = yield from waiter.over_ten()  # blocked until total>=10
            log.append(("woke", value, sim.time))
            sim.stop()

        def producing_client():
            for __ in range(12):
                yield from producer.bump("p")

        sim.spawn(waiting_client, "w")
        sim.spawn(producing_client, "p")
        sim.run(200 * MS)
        assert log and log[0][1] >= 10

    def test_unknown_method_raises_in_caller(self):
        sim = Simulator()
        clock = Clock(sim, "clock", period=CLOCK)
        host = Module(sim, "m")
        handle = GlobalObject(host, "t", Tally)
        synthesize_communication(sim, clock.clk, self._config())

        def caller():
            yield from handle.call("does_not_exist")

        sim.spawn(caller, "c")
        with pytest.raises(Exception):
            sim.run(10 * MS)

    def test_foreign_handle_rejected(self):
        sim = Simulator()
        clock = Clock(sim, "clock", period=CLOCK)
        host_a = Module(sim, "a")
        host_b = Module(sim, "b")
        handle_a = GlobalObject(host_a, "t", Tally)
        handle_b = GlobalObject(host_b, "t", Tally)  # separate group
        result = synthesize_communication(
            sim, clock.clk, self._config(),
            only=[handle_a],
        )
        channel = result.groups[0].channel
        with pytest.raises(SynthesisError):
            channel.client_index(handle_b)

    def test_body_exception_does_not_wedge_channel(self):
        class Fragile:
            def __init__(self):
                self.ok_calls = 0

            @guarded_method()
            def maybe(self, explode):
                if explode:
                    raise ValueError("no")
                self.ok_calls += 1
                return self.ok_calls

        sim = Simulator()
        clock = Clock(sim, "clock", period=CLOCK)
        host = Module(sim, "m")
        handle = GlobalObject(host, "t", Fragile)
        synthesize_communication(sim, clock.clk, self._config())
        outcomes = []

        def caller():
            try:
                yield from handle.maybe(True)
            except ValueError:
                outcomes.append("raised")
            value = yield from handle.maybe(False)
            outcomes.append(value)
            sim.stop()

        sim.spawn(caller, "c")
        sim.run(10 * MS)
        assert outcomes == ["raised", 1]


class TestEdgeCasesCompiled(TestEdgeCases):
    backend = "compiled"
