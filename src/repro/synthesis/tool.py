"""The communication synthesis driver (the "ODETTE tool").

:func:`synthesize_communication` takes a built (not yet run) design,
discovers every global-object connection group, stops the behavioural
servers and replaces each group's communication with an RT-level
:class:`~repro.synthesis.rtl_channel.RtlMethodChannel`, generating the
matching structural netlists, HDL text and the synthesis report along
the way. Application code is untouched: its guarded-method calls are
served by the synthesized channel from then on.
"""

from __future__ import annotations

import copy
import typing

from ..errors import SynthesisError
from ..hdl.module import Module
from ..hdl.signal import Signal
from ..kernel.simulator import Simulator
from ..osss.global_object import GlobalObject
from ..osss.polymorphism import PolymorphicVar
from .arbiter_synth import RtlStaticPriorityPolicy
from .cache import NETLIST_CACHE
from .channel_synth import build_channel_ir
from .emit_verilog import emit_verilog
from .emit_vhdl import emit_vhdl
from .object_synth import build_object_ir, estimate_state_bits
from .poly_synth import synthesize_dispatch
from .report import ModuleReport, SynthesisReport
from .rtl_channel import RtlMethodChannel


#: Execution backends a synthesized design can run on.
BACKENDS = ("interpreted", "compiled")


class SynthesisConfig:
    """Knobs of the communication synthesizer.

    :param body_cycles: clocks charged per method-body execution.
    :param data_width: width of the opaque data buses in the netlists.
    :param emit_hdl: attach Verilog/VHDL text to the result. The text
        of a netlist is generated once per process and looked up by its
        fingerprint afterwards, so this only matters the first time a
        design is synthesized.
    :param lint_ir: check every generated netlist against the IR design
        rules before HDL emission; error-severity findings abort
        synthesis. A netlist that passed is not linted again in the
        same process until the set of IR rules changes.
    :param backend: execution backend for the synthesized channels —
        ``"interpreted"`` (the generator-based RTL channel) or
        ``"compiled"`` (the channel IR lowered to generated Python by
        :mod:`repro.compile`; cycle-equivalent, much faster).
    """

    def __init__(
        self,
        body_cycles: int = 1,
        data_width: int = 32,
        emit_hdl: bool = True,
        lint_ir: bool = True,
        backend: str = "interpreted",
    ) -> None:
        if body_cycles < 1:
            raise SynthesisError("body_cycles must be >= 1")
        if data_width < 1:
            raise SynthesisError("data_width must be >= 1")
        if backend not in BACKENDS:
            raise SynthesisError(
                f"unknown backend {backend!r}; expected one of {BACKENDS}"
            )
        self.body_cycles = body_cycles
        self.data_width = data_width
        self.emit_hdl = emit_hdl
        self.lint_ir = lint_ir
        self.backend = backend


class SynthesizedGroup:
    """Everything produced for one connection group."""

    def __init__(
        self,
        name: str,
        handles: list[GlobalObject],
        channel: RtlMethodChannel,
        channel_ir,
        object_ir,
        verilog: str,
        vhdl: str,
        dispatch_irs: list | None = None,
    ) -> None:
        self.name = name
        self.handles = handles
        self.channel = channel
        self.channel_ir = channel_ir
        self.object_ir = object_ir
        self.verilog = verilog
        self.vhdl = vhdl
        #: Netlists of polymorphic dispatches found in the object state.
        self.dispatch_irs = dispatch_irs or []

    @property
    def client_count(self) -> int:
        return len(self.channel.clients)


class SynthesisResult:
    """Outcome of one synthesis run."""

    def __init__(self, top: Module, report: SynthesisReport) -> None:
        self.top = top
        self.report = report
        self.groups: list[SynthesizedGroup] = []

    def group_for(self, handle: GlobalObject) -> SynthesizedGroup:
        root = handle._root()
        for group in self.groups:
            if any(h._root() is root for h in group.handles):
                return group
        raise SynthesisError(f"{handle.path} was not synthesized")

    def all_verilog(self) -> str:
        return "\n\n".join(g.verilog for g in self.groups if g.verilog)

    def all_vhdl(self) -> str:
        return "\n\n".join(g.vhdl for g in self.groups if g.vhdl)


#: When set, every completed synthesis run is reported here as
#: ``callback(sim, result)`` — how ``python -m repro analyze`` captures
#: the netlists built deep inside a user script it merely executes
#: (same pattern as the profile CLI's process-wide probe bus).
_SYNTHESIS_SINK: "typing.Callable[[Simulator, SynthesisResult], None] | None" \
    = None


def set_synthesis_sink(
    sink: "typing.Callable[[Simulator, SynthesisResult], None] | None",
) -> "typing.Callable[[Simulator, SynthesisResult], None] | None":
    """Install (or clear, with ``None``) the process-wide result sink.

    Returns the previous sink so callers can restore it.
    """
    global _SYNTHESIS_SINK
    previous = _SYNTHESIS_SINK
    _SYNTHESIS_SINK = sink
    return previous


def _lint_group_netlists(
    group_name: str,
    modules: list,
    fingerprints: "list[str] | None" = None,
) -> None:
    """IR sanity pass over one group's netlists; errors abort synthesis.

    A pass is cached under the netlist's fingerprint and the active IR
    rule ids; a failure is not, so it raises on every call.
    """
    # Imported lazily: the lint package imports synthesis.ir.
    from ..lint.engine import IR, default_registry
    from ..lint.runner import lint_rtl_module

    def lint(module) -> bool:
        report = lint_rtl_module(module)
        if report.has_errors:
            raise SynthesisError(
                f"group {group_name!r}: netlist {module.name!r} failed the "
                "IR design rules:\n" + report.render()
            )
        return True

    rule_ids = tuple(rule.rule_id for rule in default_registry.rules(IR))
    if fingerprints is None:
        fingerprints = [module.fingerprint() for module in modules]
    for module, fingerprint in zip(modules, fingerprints):
        NETLIST_CACHE.get(
            ("lint", fingerprint, rule_ids), lambda: lint(module)
        )


def discover_groups(sim: Simulator) -> list[list[GlobalObject]]:
    """All global-object connection groups in the design, as handle lists."""
    by_root: dict[int, list[GlobalObject]] = {}
    for __, obj in sim.iter_named():
        if isinstance(obj, GlobalObject):
            by_root.setdefault(id(obj._root()), []).append(obj)
    return [sorted(handles, key=lambda h: h.path) for handles in by_root.values()]


def synthesize_communication(
    sim: Simulator,
    clk: Signal,
    config: SynthesisConfig | None = None,
    only: typing.Sequence[GlobalObject] | None = None,
    top_name: str = "odette_synth",
) -> SynthesisResult:
    """Lower global-object communication to RT level.

    :param sim: the built design (must not be elaborated/run yet).
    :param clk: the clock every synthesized channel runs on.
    :param only: restrict synthesis to the groups containing these
        handles (default: every group in the design).
    :returns: a :class:`SynthesisResult`; after this call the design is
        the paper's "mixed RT-behavioural" model and can be simulated
        for the post-synthesis validation step.
    """
    if sim.elaborated:
        raise SynthesisError("synthesize before elaborating/running the design")
    config = config or SynthesisConfig()
    groups = discover_groups(sim)
    if only is not None:
        wanted_roots = {id(handle._root()) for handle in only}
        groups = [g for g in groups if id(g[0]._root()) in wanted_roots]
    if not groups:
        raise SynthesisError("no global-object communication found to synthesize")

    top = Module(sim, top_name)
    report = SynthesisReport()
    result = SynthesisResult(top, report)

    for index, handles in enumerate(groups):
        root = handles[0]._root()
        space = root._space
        assert space is not None
        if space.stats.total_requests:
            raise SynthesisError(
                f"group of {root.path} already communicated; synthesize "
                "before running the model"
            )
        group_name = f"chan{index}_" + root.path.replace(".", "_")
        # Stop the behavioural server; the RTL channel takes over.
        space.server.kill()
        if config.backend == "compiled":
            # Imported lazily: repro.compile imports synthesis and analyze.
            from ..compile.channel import CompiledChannel

            channel: RtlMethodChannel = typing.cast(
                RtlMethodChannel,
                CompiledChannel(
                    top, group_name, space, handles, clk, config.body_cycles
                ),
            )
        else:
            channel = RtlMethodChannel(
                top, group_name, space, handles, clk, config.body_cycles
            )
        for handle in handles:
            handle._root()._lowered = channel
        # Structural netlists.
        priorities = None
        if isinstance(channel.policy, RtlStaticPriorityPolicy):
            priorities = channel.policy.priorities
        channel_ir = build_channel_ir(
            group_name,
            len(channel.clients),
            channel.method_names,
            channel.policy.kind,
            config.body_cycles,
            priorities,
            config.data_width,
        )
        if config.backend == "compiled":
            # The compiled backend *executes* the synthesized netlist:
            # the channel IR is lowered to generated Python and bound as
            # the channel's clocked core.
            channel.bind_netlist(channel_ir)
        object_ir = build_object_ir(
            f"obj{index}_" + type(space.state).__name__.lower(),
            space.state,
            space.methods,
            channel.method_names,
        )
        # Polymorphic members of the shared state lower to tag+mux
        # dispatch structures (the SystemC+ late-binding feature).
        dispatch_irs = []
        state_vars = vars(space.state) if hasattr(space.state, "__dict__") else {}
        for attr_name, attr_value in sorted(state_vars.items()):
            if isinstance(attr_value, PolymorphicVar):
                dispatch_module, dispatch_info = synthesize_dispatch(
                    attr_value,
                    f"poly{index}_{attr_name.lstrip('_')}",
                )
                dispatch_irs.append(dispatch_module)
                report.add_dispatch(dispatch_info)
        report.add_channel_info(
            {
                "name": group_name,
                "clients": len(channel.clients),
                "methods": len(channel.method_names),
                "arbiter": channel.policy.kind,
                "cls": type(space.state).__name__,
                "state_bits": sum(estimate_state_bits(space.state).values()),
            }
        )
        # Everything derived from a netlist is looked up by content:
        # repeated synthesis of one design lints, measures and emits
        # each netlist once per process.
        modules = [channel_ir, object_ir, *dispatch_irs]
        fingerprints = [module.fingerprint() for module in modules]
        for module, fingerprint in zip(modules, fingerprints):
            row = NETLIST_CACHE.get(
                ("report", fingerprint), lambda: ModuleReport(module)
            )
            report.modules.append(copy.copy(row))
        if config.lint_ir:
            _lint_group_netlists(group_name, modules, fingerprints)
        verilog = vhdl = ""
        if config.emit_hdl:
            verilog = "\n\n".join(
                NETLIST_CACHE.get(
                    ("verilog", fingerprint), lambda: emit_verilog(module)
                )
                for module, fingerprint in zip(modules, fingerprints)
            )
            vhdl = "\n\n".join(
                NETLIST_CACHE.get(
                    ("vhdl", fingerprint), lambda: emit_vhdl(module)
                )
                for module, fingerprint in zip(modules, fingerprints)
            )
        result.groups.append(
            SynthesizedGroup(
                group_name, list(handles), channel, channel_ir, object_ir,
                verilog, vhdl, dispatch_irs,
            )
        )
    if _SYNTHESIS_SINK is not None:
        _SYNTHESIS_SINK(sim, result)
    return result
