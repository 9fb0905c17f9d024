"""Signal faults on PCI resolved wires heal back to the drivers' value.

A ``ResolvedSignal`` caches the resolution of its drivers and only
recomputes it when a contribution changes. ``stuck_at`` and ``bit_flip``
write the committed value out of band, so the next update must still
compare the (cached) resolution against it and restore the line, even
when no driver changed in between.
"""

from repro.fault import BitFlipFault, StuckAtFault
from repro.hdl import Module
from repro.kernel import NS, Simulator, Timeout
from repro.pci.signals import PciBus


def _rig(drive, fault, sample_ns):
    """Run a PCI bus whose masters m0/m1 follow *drive*, under *fault*.

    :returns: the bus and ``{ns: committed value}`` of the fault's
        target line at each time in *sample_ns*.
    """
    sim = Simulator()
    bus = PciBus(Module(sim, "top"), "bus")
    pins = {
        master: {name: getattr(bus, name).get_driver(master)
                 for name in ("ad", "frame_n")}
        for master in ("m0", "m1")
    }
    sim.spawn(lambda: drive(pins["m0"], pins["m1"]), "drive")
    sim.elaborate()
    fault.arm(sim)
    line = sim.lookup(fault.target_path)
    seen = {}

    def sampler():
        for time in sample_ns:
            yield Timeout(time * NS - sim.time)
            seen[time] = line.read()

    sim.spawn(sampler, "sampler")
    sim.run(60 * NS)
    return bus, seen


def test_stuck_at_frame_heals_without_driver_activity():
    def drive(m0, m1):
        yield Timeout(10 * NS)
        m0["frame_n"].write(0)  # asserted, then held for the whole run

    fault = StuckAtFault("top.bus.frame_n", window=(15 * NS, 45 * NS), value=1)
    __, seen = _rig(drive, fault, [12, 30, 50])
    assert seen == {12: 0, 30: 1, 50: 0}
    assert fault.activations >= 1


def test_stuck_at_ad_heals_on_unchanged_driver_write():
    def drive(m0, m1):
        yield Timeout(10 * NS)
        m0["ad"].write(0x1234)
        yield Timeout(40 * NS)
        m1["ad"].release()  # an update, but no contribution changed

    fault = StuckAtFault("top.bus.ad", window=(15 * NS, 45 * NS), value=0)
    bus, seen = _rig(drive, fault, [12, 30, 55])
    assert seen == {12: 0x1234, 30: 0, 55: 0x1234}
    assert bus.ad.read() == 0x1234


def test_bit_flip_ad_heals_on_next_update():
    def drive(m0, m1):
        yield Timeout(10 * NS)
        m0["ad"].write(0x10)
        yield Timeout(10 * NS)
        m0["ad"].write(0x20)  # first commit inside the window: flipped
        yield Timeout(30 * NS)
        m1["ad"].release()  # an update, but no contribution changed

    fault = BitFlipFault("top.bus.ad", window=(15 * NS, 40 * NS), bit=3)
    __, seen = _rig(drive, fault, [25, 45, 55])
    assert fault.activations == 1
    assert seen == {25: 0x28, 45: 0x28, 55: 0x20}
