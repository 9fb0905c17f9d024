"""Canonical executable platforms, one per bus family.

Every platform hosts the same IPs (a memory and a register-block
peripheral) behind the same address map, and the same applications —
only the bus interface element differs, which is exactly the paper's
refinement claim. Examples, tests and benches build their systems
through :func:`build_platform` instead of hand-wiring testbenches.

Address map::

    0x0000_0000 .. +mem_size   memory
    peripheral_base .. +0x10   status register block

The bus families (:data:`BUS_FAMILIES`):

``functional``
    TLM interface straight into the functional IP models (no wires).
``pci``
    The paper's example: multiplexed tri-state PCI with central arbiter.
``wishbone``
    Classic-cycle Wishbone B3.
``axi4lite``
    Five-channel VALID/READY AXI4-Lite.
``tlmgp``
    TLM-2.0-style generic payload through a blocking-transport socket.
"""

from __future__ import annotations

import typing

from ..core.application import Application
from ..core.command import CommandType
from ..core.functional_interface import FunctionalBusInterface
from ..core.pci_interface import PciBusInterface
from ..core.refinement import PlatformHandle
from ..errors import RefinementError
from ..hdl.clock import Clock
from ..hdl.module import Module
from ..iface.params import IfaceParams
from ..kernel.simtime import NS
from ..kernel.simulator import Simulator
from ..osss.arbiter import Arbiter
from ..pci.arbiter import PciCentralArbiter
from ..pci.monitor import PciMonitor
from ..pci.signals import PciBus
from ..pci.target import PciTarget
from ..tlm.memory import Memory
from ..tlm.peripheral import StatusRegisterBlock
from ..tlm.router import AddressRouter

#: Every bus family :func:`build_platform` can elaborate.
BUS_FAMILIES = ("functional", "pci", "wishbone", "axi4lite", "tlmgp")


class PciPlatformConfig:
    """Shared knobs of the example platforms.

    (The name is historical — the same config drives every bus family;
    family-specific knobs like ``wait_states`` map onto the nearest
    analogue of each substrate.)
    """

    def __init__(
        self,
        clock_period: int = 30 * NS,
        mem_size: int = 1 << 16,
        peripheral_base: int = 0x0001_0000,
        decode_latency: int = 1,
        wait_states: int = 0,
        retry_count: int = 0,
        disconnect_after: int | None = None,
        word_latency: int = 0,
        arbiter: Arbiter | None = None,
        monitor_strict: bool = True,
        app_think_time: int = 0,
        resilience: object | None = None,
        backend: str = "interpreted",
        params: IfaceParams | None = None,
    ) -> None:
        if backend not in ("interpreted", "compiled"):
            raise RefinementError(
                f"unknown backend {backend!r}; expected 'interpreted' or "
                "'compiled'"
            )
        self.clock_period = clock_period
        self.mem_size = mem_size
        self.peripheral_base = peripheral_base
        self.decode_latency = decode_latency
        self.wait_states = wait_states
        self.retry_count = retry_count
        self.disconnect_after = disconnect_after
        self.word_latency = word_latency
        self.arbiter = arbiter
        #: Structural parameters of the interface element (widths, burst
        #: bound, response-FIFO depth).
        self.params = params if params is not None else IfaceParams()
        self.monitor_strict = monitor_strict
        #: fs of local work each application simulates between commands
        #: (0 = back-to-back traffic; >0 leaves idle bus cycles).
        self.app_think_time = app_think_time
        #: Optional :class:`repro.resilience.ResilienceConfig`; when set,
        #: builders wire call-level retry + protocol replay onto the
        #: interface element (applications stay untouched). None keeps
        #: the recovery-free fast path — the shipping default.
        self.resilience = resilience
        #: Execution backend for synthesized channels: "interpreted"
        #: (the generator-based RTL channel) or "compiled" (the
        #: generated-code core from repro.compile). Takes effect when a
        #: builder runs with synthesize=True; an explicit
        #: synthesis_config passed to the builder wins over this knob.
        self.backend = backend


def _maybe_apply_resilience(interface, config: "PciPlatformConfig") -> None:
    """Arm the interface element when the config carries a resilience
    configuration (applied after synthesis, so lowered channels are
    handled: call-level policies only take effect on behavioural
    channels, protocol replay works at every refinement level)."""
    if config.resilience is None:
        return
    from ..resilience import apply_resilience

    apply_resilience(interface, config.resilience)


class PlatformBundle:
    """A built platform plus handles on its interesting pieces."""

    def __init__(
        self,
        handle: PlatformHandle,
        top: Module,
        memory: Memory,
        peripheral: StatusRegisterBlock,
        interface,
        monitor=None,
        clock: Clock | None = None,
        synthesis: object | None = None,
        bus=None,
    ) -> None:
        self.handle = handle
        self.top = top
        self.memory = memory
        self.peripheral = peripheral
        self.interface = interface
        #: Bus monitor (PciMonitor/WishboneMonitor/AxiLiteMonitor), when
        #: the family has wires to watch.
        self.monitor = monitor
        self.clock = clock
        self.synthesis = synthesis
        self.bus = bus

    def run(self, max_time: int):
        return self.handle.run(max_time)


# -- per-family structural elaboration ---------------------------------------
#
# Each attach function wires the family's substrate onto *top* in a FIXED
# creation order (modules, signals and processes register in creation
# order, and waveform byte-stability — fig4.vcd — depends on it). All of
# them leave ``top.interface`` behind; clocked families also set
# ``top.clock``/``top.bus``/``top.monitor``.


def _attach_functional(top: Module, config: PciPlatformConfig,
                       element_cls: type) -> None:
    top.memory = Memory(config.mem_size)
    top.peripheral = StatusRegisterBlock()
    router = AddressRouter()
    router.add_target(0, config.mem_size, top.memory, "mem")
    router.add_target(config.peripheral_base, 0x10, top.peripheral, "regs")
    top.interface = element_cls(
        top,
        "interface",
        router,
        word_latency=config.word_latency,
        arbiter=config.arbiter,
        params=config.params,
    )


def _attach_pci(top: Module, config: PciPlatformConfig,
                element_cls: type) -> None:
    top.clock = Clock(top, "clock", period=config.clock_period)
    top.bus = PciBus(top, "bus", n_masters=1,
                     ad_width=config.params.data_width)
    top.pci_arbiter = PciCentralArbiter(
        top, "pci_arbiter", top.bus, top.clock.clk
    )
    top.memory = Memory(config.mem_size)
    top.peripheral = StatusRegisterBlock()
    top.mem_target = PciTarget(
        top, "mem_target", top.bus, top.clock.clk, top.memory,
        base=0, size=config.mem_size,
        decode_latency=config.decode_latency,
        wait_states=config.wait_states,
        retry_count=config.retry_count,
        disconnect_after=config.disconnect_after,
    )
    top.reg_target = PciTarget(
        top, "reg_target", top.bus, top.clock.clk, top.peripheral,
        base=config.peripheral_base, size=0x10,
        decode_latency=config.decode_latency,
    )
    top.monitor = PciMonitor(
        top, "monitor", top.bus, top.clock.clk,
        strict=config.monitor_strict,
    )
    top.interface = element_cls(
        top,
        "interface",
        top.bus,
        top.clock.clk,
        arbiter=config.arbiter,
        params=config.params,
    )


def _attach_wishbone(top: Module, config: PciPlatformConfig,
                     element_cls: type) -> None:
    from ..wishbone.monitor import WishboneMonitor
    from ..wishbone.signals import WishboneBus
    from ..wishbone.slave import WishboneSlave

    top.clock = Clock(top, "clock", period=config.clock_period)
    top.bus = WishboneBus(top, "bus",
                          data_width=config.params.data_width,
                          addr_width=config.params.addr_width)
    top.memory = Memory(config.mem_size)
    top.peripheral = StatusRegisterBlock()
    top.mem_slave = WishboneSlave(
        top, "mem_slave", top.bus, top.clock.clk, top.memory,
        base=0, size=config.mem_size,
        ack_latency=config.wait_states,
    )
    top.reg_slave = WishboneSlave(
        top, "reg_slave", top.bus, top.clock.clk, top.peripheral,
        base=config.peripheral_base, size=0x10,
    )
    top.monitor = WishboneMonitor(
        top, "monitor", top.bus, top.clock.clk,
        strict=config.monitor_strict,
    )
    top.interface = element_cls(
        top,
        "interface",
        top.bus,
        top.clock.clk,
        arbiter=config.arbiter,
        params=config.params,
    )


def _attach_axi4lite(top: Module, config: PciPlatformConfig,
                     element_cls: type) -> None:
    from ..axi.monitor import AxiLiteMonitor
    from ..axi.signals import AxiLiteBus
    from ..axi.slave import AxiLiteSlave

    top.clock = Clock(top, "clock", period=config.clock_period)
    top.bus = AxiLiteBus(top, "bus",
                         data_width=config.params.data_width,
                         addr_width=config.params.addr_width)
    top.memory = Memory(config.mem_size)
    top.peripheral = StatusRegisterBlock()
    top.mem_slave = AxiLiteSlave(
        top, "mem_slave", top.bus, top.clock.clk, top.memory,
        base=0, size=config.mem_size,
        accept_latency=config.wait_states,
    )
    top.reg_slave = AxiLiteSlave(
        top, "reg_slave", top.bus, top.clock.clk, top.peripheral,
        base=config.peripheral_base, size=0x10,
    )
    top.monitor = AxiLiteMonitor(
        top, "monitor", top.bus, top.clock.clk,
        strict=config.monitor_strict,
    )
    top.interface = element_cls(
        top,
        "interface",
        top.bus,
        top.clock.clk,
        arbiter=config.arbiter,
        params=config.params,
    )


def _attach_tlmgp(top: Module, config: PciPlatformConfig,
                  element_cls: type) -> None:
    from ..tlm.generic_payload import GpTargetSocket

    # A clock so the channel can still be synthesized (the generic
    # payload itself never touches wires).
    top.clock = Clock(top, "clock", period=config.clock_period)
    top.memory = Memory(config.mem_size)
    top.peripheral = StatusRegisterBlock()
    router = AddressRouter()
    router.add_target(0, config.mem_size, top.memory, "mem")
    router.add_target(config.peripheral_base, 0x10, top.peripheral, "regs")
    top.socket = GpTargetSocket(
        router,
        accept_latency=config.decode_latency * config.clock_period,
        word_latency=config.word_latency,
    )
    top.interface = element_cls(
        top,
        "interface",
        top.socket,
        arbiter=config.arbiter,
        params=config.params,
    )


_FAMILY_ATTACH = {
    "functional": _attach_functional,
    "pci": _attach_pci,
    "wishbone": _attach_wishbone,
    "axi4lite": _attach_axi4lite,
    "tlmgp": _attach_tlmgp,
}


def _default_element(bus: str) -> type:
    if bus == "functional":
        return FunctionalBusInterface
    if bus == "pci":
        return PciBusInterface
    if bus == "wishbone":
        from ..wishbone.interface import WishboneBusInterface

        return WishboneBusInterface
    if bus == "axi4lite":
        from ..axi.interface import AxiLiteBusInterface

        return AxiLiteBusInterface
    if bus == "tlmgp":
        from ..tlm.generic_payload import TlmGpBusInterface

        return TlmGpBusInterface
    raise RefinementError(
        f"unknown bus family {bus!r}; expected one of {BUS_FAMILIES}"
    )


def _family_of_element(element_cls: type) -> str:
    """The platform topology an interface-element class plugs into."""
    abstraction = getattr(element_cls, "ABSTRACTION", "abstract")
    if abstraction == "functional":
        return "functional"
    if abstraction == "transaction":
        return "tlmgp"
    bus = getattr(element_cls, "BUS_NAME", "abstract")
    if bus not in BUS_FAMILIES:
        raise RefinementError(
            f"{element_cls.__name__} targets unknown bus {bus!r}"
        )
    return bus


def _default_label(bus: str, synthesize: bool) -> str:
    if bus == "functional":
        return "functional"
    if bus == "pci":
        return "post_synthesis" if synthesize else "pin_accurate"
    return f"{bus}_post_synthesis" if synthesize else bus


class _PlatformTop(Module):
    """Generic top module: one family substrate + the applications."""

    def __init__(
        self,
        parent: Simulator,
        name: str,
        config: PciPlatformConfig,
        workloads: typing.Sequence[typing.Sequence[CommandType]],
        family: str,
        element_cls: type,
    ) -> None:
        super().__init__(parent, name)
        _FAMILY_ATTACH[family](self, config, element_cls)
        self.apps = [
            Application(self, f"app{i}", commands, self.interface,
                        think_time=config.app_think_time)
            for i, commands in enumerate(workloads)
        ]


def build_platform(
    workloads: typing.Sequence[typing.Sequence[CommandType]],
    config: PciPlatformConfig | None = None,
    bus: str = "pci",
    synthesize: bool = False,
    label: str | None = None,
    synthesis_config: object | None = None,
    element: type | None = None,
) -> PlatformBundle:
    """Build the example system behind any library interface element.

    :param bus: a :data:`BUS_FAMILIES` name selecting the substrate and
        its default element.
    :param element: an explicit interface-element class; overrides *bus*
        (the family is derived from the element's tags), which is the
        "pick a different IP from the library" move.
    :param synthesize: apply communication synthesis to every
        global-object channel before returning (the paper's step 2).
        Rejected for the functional family — there is nothing to lower.
    """
    config = config or PciPlatformConfig()
    if element is not None:
        family = _family_of_element(element)
    else:
        family = bus
        if family not in BUS_FAMILIES:
            raise RefinementError(
                f"unknown bus family {family!r}; expected one of "
                f"{BUS_FAMILIES}"
            )
        element = _default_element(family)
    if synthesize and family == "functional":
        raise RefinementError(
            "the functional platform has no channel to synthesize; pick a "
            "pin-level or transaction family"
        )
    sim = Simulator()
    top = _PlatformTop(sim, "top", config, workloads, family, element)
    synthesis = None
    if synthesize:
        from ..synthesis.tool import SynthesisConfig, synthesize_communication

        if synthesis_config is None:
            synthesis_config = SynthesisConfig(
                backend=config.backend,
                data_width=config.params.data_width,
            )
        synthesis = synthesize_communication(
            sim, top.clock.clk, synthesis_config  # type: ignore[arg-type]
        )
    if label is None:
        label = _default_label(family, synthesize)
    interface = top.interface
    _maybe_apply_resilience(interface, config)
    clock = getattr(top, "clock", None)
    handle = PlatformHandle(
        sim, top.apps, label,
        quiesce=lambda: (
            interface.channel_state.commands_put == interface.commands_serviced
        ),
        quiesce_poll=config.clock_period if clock is not None else NS,
    )
    return PlatformBundle(
        handle, top, top.memory, top.peripheral, interface,
        monitor=getattr(top, "monitor", None),
        clock=clock,
        synthesis=synthesis,
        bus=getattr(top, "bus", None),
    )


def build_functional_platform(
    workloads: typing.Sequence[typing.Sequence[CommandType]],
    config: PciPlatformConfig | None = None,
    label: str = "functional",
) -> PlatformBundle:
    """The high-level executable model: TLM interface, functional IPs."""
    return build_platform(workloads, config, bus="functional", label=label)


def standard_flow_builders(
    workloads: typing.Sequence[typing.Sequence[CommandType]],
    config: PciPlatformConfig | None = None,
    bus: str = "pci",
):
    """(functional_builder, implementation_builder) for :class:`DesignFlow`."""
    if not workloads:
        raise RefinementError("standard platforms need at least one workload")

    def functional_builder():
        return build_functional_platform(workloads, config).handle

    def implementation_builder(synthesize: bool):
        bundle = build_platform(
            workloads, config, bus=bus, synthesize=synthesize
        )
        return bundle.handle, bundle.synthesis

    return functional_builder, implementation_builder
