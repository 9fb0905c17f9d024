"""Tests for PCI configuration space and bus enumeration."""

import pytest

from repro.errors import ProtocolError
from repro.hdl import Clock, Module
from repro.kernel import MS, NS, Simulator
from repro.pci import (
    CMD_MEMORY_ENABLE,
    PciBus,
    PciCentralArbiter,
    PciConfigSpace,
    PciMaster,
    PciMonitor,
    PciOperation,
    PciTarget,
    REG_BAR0,
    REG_COMMAND_STATUS,
    REG_ID,
    STATUS_OK,
    config_read,
    enumerate_bus,
)
from repro.tlm import Memory


class TestConfigSpaceRegisters:
    def test_identity(self):
        space = PciConfigSpace(0x104C, 0xAC10, bar0_size=0x1000)
        assert space.config_read(REG_ID) == 0xAC10_104C

    def test_class_and_revision(self):
        space = PciConfigSpace(1, 2, bar0_size=16, class_code=0x020000,
                               revision=0x42)
        assert space.config_read(0x08) == 0x0200_0042

    def test_command_memory_enable(self):
        space = PciConfigSpace(1, 2, bar0_size=16)
        assert not space.memory_enabled
        space.config_write(REG_COMMAND_STATUS, CMD_MEMORY_ENABLE)
        assert space.memory_enabled

    def test_bar_sizing_handshake(self):
        space = PciConfigSpace(1, 2, bar0_size=0x4000)
        space.config_write(REG_BAR0, 0xFFFFFFFF)
        mask = space.config_read(REG_BAR0)
        assert ((~mask + 1) & 0xFFFFFFFF) == 0x4000
        space.config_write(REG_BAR0, 0x8000_4000)
        assert space.config_read(REG_BAR0) == 0x8000_4000
        assert space.bar0_base == 0x8000_4000

    def test_bar_base_aligned_to_size(self):
        space = PciConfigSpace(1, 2, bar0_size=0x1000)
        space.config_write(REG_BAR0, 0x1234_5678)
        assert space.bar0_base == 0x1234_5000

    def test_memory_decode_needs_enable_and_window(self):
        space = PciConfigSpace(1, 2, bar0_size=0x100, bar0_base=0x1000)
        assert not space.decodes_memory(0x1000)  # not enabled yet
        space.config_write(REG_COMMAND_STATUS, CMD_MEMORY_ENABLE)
        assert space.decodes_memory(0x1000)
        assert space.decodes_memory(0x10FC)
        assert not space.decodes_memory(0x1100)

    def test_identity_read_only(self):
        space = PciConfigSpace(1, 2, bar0_size=16)
        space.config_write(REG_ID, 0xFFFF_FFFF)
        assert space.config_read(REG_ID) == 0x0002_0001

    def test_validation(self):
        with pytest.raises(ProtocolError):
            PciConfigSpace(0x10000, 0, bar0_size=16)
        with pytest.raises(ProtocolError):
            PciConfigSpace(1, 2, bar0_size=24)  # not a power of two
        with pytest.raises(ProtocolError):
            PciConfigSpace(1, 2, bar0_size=0x100, bar0_base=0x10)


class EnumBench(Module):
    """A host bridge master plus two configurable devices."""

    def __init__(self, parent, name):
        super().__init__(parent, name)
        self.clock = Clock(self, "clock", period=10 * NS)
        self.bus = PciBus(self, "bus")
        PciCentralArbiter(self, "arb", self.bus, self.clock.clk)
        self.monitor = PciMonitor(self, "mon", self.bus, self.clock.clk)
        self.mem0 = Memory(0x1000)
        self.dev0 = PciTarget(
            self, "dev0", self.bus, self.clock.clk, self.mem0,
            base=0, size=0x1000,
            config_space=PciConfigSpace(0x104C, 0x0001, bar0_size=0x1000),
            idsel_index=0,
        )
        self.mem1 = Memory(0x4000)
        self.dev1 = PciTarget(
            self, "dev1", self.bus, self.clock.clk, self.mem1,
            base=0, size=0x4000,
            config_space=PciConfigSpace(0x8086, 0x7777, bar0_size=0x4000),
            idsel_index=2,
        )
        self.master = PciMaster(self, "master", self.bus, self.clock.clk)


class TestPinLevelConfigCycles:
    def test_config_read_identity(self):
        sim = Simulator()
        tb = EnumBench(sim, "tb")
        results = []

        def software():
            ok, identity = yield from config_read(tb.master, 0, REG_ID)
            results.append((ok, identity))
            sim.stop()

        sim.spawn(software, "sw")
        sim.run(5 * MS)
        assert results == [(True, 0x0001_104C)]

    def test_empty_slot_master_aborts(self):
        sim = Simulator()
        tb = EnumBench(sim, "tb")
        results = []

        def software():
            ok, __ = yield from config_read(tb.master, 7, REG_ID)
            results.append(ok)
            sim.stop()

        sim.spawn(software, "sw")
        sim.run(5 * MS)
        assert results == [False]

    def test_memory_disabled_until_programmed(self):
        sim = Simulator()
        tb = EnumBench(sim, "tb")
        statuses = []

        def software():
            op = PciOperation.read(0x0000_0000)
            yield from tb.master.transact(op)
            statuses.append(op.status)
            sim.stop()

        sim.spawn(software, "sw")
        sim.run(5 * MS)
        # Nobody decodes: both devices are unprogrammed.
        assert statuses == ["master_abort"]


class TestEnumeration:
    def _enumerate(self):
        sim = Simulator()
        tb = EnumBench(sim, "tb")
        outcome = {}

        def software():
            devices = yield from enumerate_bus(tb.master, n_slots=4)
            outcome["devices"] = devices
            # Use the newly-programmed windows.
            dev0 = devices[0]
            op = PciOperation.write(dev0.bar0_base + 0x10, [0xABCD])
            yield from tb.master.transact(op)
            outcome["write"] = op.status
            op = PciOperation.read(dev0.bar0_base + 0x10)
            yield from tb.master.transact(op)
            outcome["readback"] = op.data
            sim.stop()

        sim.spawn(software, "sw")
        sim.run(20 * MS)
        return tb, outcome

    def test_finds_both_devices(self):
        tb, outcome = self._enumerate()
        devices = outcome["devices"]
        assert len(devices) == 2
        assert (devices[0].vendor_id, devices[0].device_id) == (0x104C, 0x0001)
        assert (devices[1].vendor_id, devices[1].device_id) == (0x8086, 0x7777)
        assert devices[0].bar0_size == 0x1000
        assert devices[1].bar0_size == 0x4000

    def test_windows_disjoint_and_aligned(self):
        __, outcome = self._enumerate()
        devices = outcome["devices"]
        for device in devices:
            assert device.bar0_base % device.bar0_size == 0
        a, b = devices
        assert (a.bar0_base + a.bar0_size <= b.bar0_base
                or b.bar0_base + b.bar0_size <= a.bar0_base)

    def test_memory_usable_after_enumeration(self):
        tb, outcome = self._enumerate()
        assert outcome["write"] == STATUS_OK
        assert outcome["readback"] == [0xABCD]
        assert tb.mem0.read_word(0x10) == 0xABCD
        assert not tb.monitor.violations
