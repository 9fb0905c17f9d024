"""Compiled channels share generated code, never state.

Two compiled platforms of one design bind the same cached
``CompiledNetlist``; each keeps its own register file, so a fault in one
platform leaves the other's trace exactly as an unfaulted run's.
"""

from repro.compile import CompiledChannel
from repro.fault.models import StuckAtFault
from repro.hdl import Clock
from repro.kernel import NS, Simulator
from repro.osss import connect
from repro.synthesis import SynthesisConfig, synthesize_communication

from tests.analyze.test_passes import Client


def _compiled_latch():
    sim = Simulator()
    clock = Clock(sim, "clock", period=10 * NS)
    clients = [Client(sim, f"c{i}", delay=7 * i) for i in range(2)]
    connect(*(c.obj for c in clients))
    result = synthesize_communication(
        sim, clock.clk, SynthesisConfig(emit_hdl=False, backend="compiled")
    )
    channel = result.groups[0].channel
    assert isinstance(channel, CompiledChannel)
    return sim, channel


def _trace(channel):
    return (
        [(r.client, r.method, r.request_time, r.grant_time, r.done_time)
         for r in channel.call_log],
        channel.idle_cycles,
        channel.busy_cycles,
    )


def test_platforms_share_code_but_not_registers():
    reference_sim, reference = _compiled_latch()
    reference_sim.run(1000 * NS)

    sim_a, a = _compiled_latch()
    sim_b, b = _compiled_latch()
    assert a.netlist is b.netlist is reference.netlist
    assert a._regs is not b._regs
    StuckAtFault(a.req[0].name, value=0).arm(sim_a)
    # Interleave the two simulations so shared state would leak.
    for __ in range(20):
        sim_a.run(50 * NS)
        sim_b.run(50 * NS)

    assert len(_trace(reference)[0]) >= 8
    assert _trace(b) == _trace(reference)
    assert _trace(a) != _trace(reference)
    assert all(record.client != "c0.obj" for record in a.call_log)
