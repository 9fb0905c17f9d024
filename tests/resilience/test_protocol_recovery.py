"""Protocol-level transaction replay inside the interface elements.

The paper's refinement claim, exploited for robustness: recovery lives
in the swappable bus-interface IP, so the same unmodified applications
survive wire-level damage at the pin-accurate level, after communication
synthesis, and behind a different bus from the library.
"""

import io

import pytest

from repro.core.command import CommandType
from repro.fault.models import make_fault
from repro.flow.platforms import PciPlatformConfig, build_platform
from repro.instrument.probes import RESILIENCE_GIVEUP, RESILIENCE_RETRY
from repro.kernel.simtime import MS, NS, US
from repro.resilience import InterfaceRecovery, RecoveryLog, ResilienceConfig
from repro.trace.vcd import VcdTracer

# Read data with odd parity: a PAR wire stuck low is then a guaranteed
# PERR#-style mismatch on every read data phase inside the window.
_COMMANDS = [
    CommandType.write(0x100, [1, 2, 3]),
    CommandType.read(0x100, count=3),
    CommandType.read(0x100, count=2),
]

#: Protocol replay only — no call-level policy, so the recovery we
#: observe is attributable to the interface element alone.
_REPLAY_ONLY = ResilienceConfig(
    guard_policy=None,
    interface=InterfaceRecovery(
        replay_limit=3, backoff=2 * US, check_parity=True
    ),
)


def _config(resilience=None):
    # Campaign conditions: the strict monitor would raise on the very
    # parity violation the replay is meant to absorb.
    return PciPlatformConfig(monitor_strict=False, resilience=resilience)


def _run_pci(synthesize, fault_spec=None, resilience=None):
    bundle = build_platform(
        [list(_COMMANDS)], _config(resilience),
        bus="pci", synthesize=synthesize
    )
    log = RecoveryLog().attach(bundle.handle.sim.probes)
    fault = None
    if fault_spec is not None:
        kind, path, window, params = fault_spec
        fault = make_fault(kind, path, window, **params)
        fault.arm(bundle.handle.sim)
    result = bundle.run(10 * MS)
    return bundle, result, log, fault


#: PAR stuck low while read data is on the wire. The master regenerates
#: the expected parity from AD/CBE# one cycle behind the data phase, so
#: the mismatch is detected PERR#-style and the whole operation replays.
_PARITY_FAULT = ("stuck_at", "top.bus.par", (200 * NS, 1 * US), {"value": 0})


class TestPciParityReplay:
    @pytest.mark.parametrize("synthesize", [False, True],
                             ids=["pin_accurate", "post_synthesis"])
    def test_parity_mismatch_replays_to_golden_behaviour(self, synthesize):
        golden_bundle, golden, __, __ = _run_pci(synthesize)
        bundle, result, log, fault = _run_pci(
            synthesize, _PARITY_FAULT, _REPLAY_ONLY
        )
        assert fault.activations > 0
        interface = bundle.interface
        assert interface.master.parity_errors_seen >= 1
        assert interface.operations_replayed >= 1
        assert interface.operations_recovered >= 1
        assert log.count(RESILIENCE_RETRY) >= 1
        assert log.recoveries >= 1
        episodes = [e for e in log.episodes() if e.outcome == "recovered"]
        assert episodes and all(e.latency > 0 for e in episodes)
        # The applications never noticed: same traces as the clean run.
        assert result.traces == golden.traces
        for app in bundle.handle.applications:
            assert app.finished

    def test_without_recovery_the_same_fault_corrupts_silently(self):
        golden_bundle, golden, __, __ = _run_pci(False)
        bundle, result, log, fault = _run_pci(False, _PARITY_FAULT)
        assert fault.activations > 0
        assert bundle.interface.operations_replayed == 0
        assert len(log) == 0
        # PAR stuck low corrupts nothing by itself (it is a check bit),
        # and with parity checking off nobody even looks at it.
        assert bundle.interface.master.parity_errors_seen == 0
        assert result.traces == golden.traces

    def test_exhausted_replays_give_up_and_surface_the_failure(self):
        # A fault window far longer than the whole replay budget: every
        # re-issue fails again and the episode ends in a giveup.
        fault_spec = ("stuck_at", "top.bus.par", (200 * NS, 9 * MS),
                      {"value": 0})
        bundle, result, log, fault = _run_pci(False, fault_spec, _REPLAY_ONLY)
        assert log.count(RESILIENCE_GIVEUP) >= 1
        episodes = [e for e in log.episodes() if e.outcome == "giveup"]
        assert episodes
        assert episodes[0].attempts == _REPLAY_ONLY.interface.replay_limit


class TestWishboneReplay:
    def test_bus_error_replays_to_golden_behaviour(self):
        config = PciPlatformConfig(monitor_strict=False)
        golden = build_platform([list(_COMMANDS)], config, bus="wishbone")
        golden_result = golden.run(10 * MS)

        damaged_config = PciPlatformConfig(
            monitor_strict=False,
            resilience=ResilienceConfig(
                guard_policy=None,
                interface=InterfaceRecovery(replay_limit=3, backoff=2 * US),
            ),
        )
        bundle = build_platform([list(_COMMANDS)], damaged_config,
                                bus="wishbone")
        log = RecoveryLog().attach(bundle.handle.sim.probes)
        # ERR asserted over a short window: in-flight operations abort
        # with a bus_error status and replay once the wire clears.
        fault = make_fault(
            "glitch", "top.bus.err", (100 * NS, 400 * NS), value=1
        )
        fault.arm(bundle.handle.sim)
        result = bundle.run(10 * MS)
        assert fault.activations > 0
        assert bundle.interface.operations_replayed >= 1
        assert bundle.interface.operations_recovered >= 1
        assert log.recoveries >= 1
        assert result.traces == golden_result.traces

    def test_clean_wishbone_run_replays_nothing(self):
        config = PciPlatformConfig(
            monitor_strict=False,
            resilience=ResilienceConfig(
                guard_policy=None, interface=InterfaceRecovery()
            ),
        )
        bundle = build_platform([list(_COMMANDS)], config, bus="wishbone")
        log = RecoveryLog().attach(bundle.handle.sim.probes)
        bundle.run(10 * MS)
        assert bundle.interface.operations_replayed == 0
        assert len(log) == 0


class TestRecoveryAccounting:
    def test_replay_counters_start_at_zero(self):
        bundle, __, __, __ = _run_pci(False)
        assert bundle.interface.recovery is None
        assert bundle.interface.operations_replayed == 0
        assert bundle.interface.operations_recovered == 0

    def test_enable_recovery_arms_parity_checking(self):
        bundle = build_platform([list(_COMMANDS)], _config(), bus="pci")
        assert bundle.interface.master.check_parity is False
        bundle.interface.enable_recovery(
            InterfaceRecovery(check_parity=True)
        )
        assert bundle.interface.master.check_parity is True
        assert bundle.interface.recovery is not None


def _vcd_dump(config):
    bundle = build_platform(
        [[CommandType.write(0x40, [11, 22, 33]),
          CommandType.read(0x40, count=3)]],
        config, bus="pci",
    )
    sim = bundle.handle.sim
    stream = io.StringIO()
    tracer = VcdTracer(stream)
    tracer.add_signals([bundle.clock.clk] + bundle.bus.shared_signals())
    sim.add_tracer(tracer)
    bundle.run(10 * MS)
    tracer.close(sim.time)
    return stream.getvalue()


class TestVcdDeterminism:
    def test_recovery_off_platform_reproduces_vcd_exactly(self):
        """Two fresh builds with resilience off dump identical VCDs —
        the recovery machinery's off path must not perturb a single
        signal edge (the fig4 byte-stability gate in miniature)."""
        assert _vcd_dump(PciPlatformConfig()) == _vcd_dump(
            PciPlatformConfig()
        )
