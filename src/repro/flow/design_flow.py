"""The end-to-end design flow of the paper's Figure 2.

Stages::

    specifications
        -> functional system model        (units under design + functional
                                           IPs + stimuli generators)
        -> validation by simulation
        -> static design-rule lint        (structural + guard analysis)
        -> communication refinement       (library interface swap)
        -> implementation model           (pin-accurate bus interface)
        -> communication synthesis        (the ODETTE tool)
        -> post-synthesis netlist analysis (driver/loop/FSM/race checks)
        -> post-synthesis validation      (re-simulate, check consistency)

The lint stage runs the static design rules (:mod:`repro.lint`) over
freshly-built functional and implementation models *before* synthesis is
attempted: error-severity findings abort the flow with a
:class:`~repro.errors.SynthesisError` instead of letting a broken design
reach the synthesizer.

:class:`DesignFlow` drives the stages over user-supplied platform
builders and records a :class:`FlowReport` with every intermediate
result — the programmatic equivalent of walking Figure 2 top to bottom.
"""

from __future__ import annotations

import time
import typing

from ..core.refinement import PlatformHandle, RunResult
from ..errors import RefinementError, SynthesisError
from ..instrument.probes import FLOW_STAGE, ProbeBus, default_bus
from ..lint import LintConfig, LintReport, lint_design
from ..verify.consistency import ConsistencyReport, check_traces

#: Signature of the functional-model builder.
FunctionalBuilder = typing.Callable[[], PlatformHandle]
#: Signature of the implementation-model builder; the flag selects
#: whether communication synthesis is applied. Returns the platform and
#: the synthesis result (None when not synthesizing).
ImplementationBuilder = typing.Callable[
    [bool], tuple[PlatformHandle, typing.Optional[object]]
]


class FlowStage:
    """Record of one executed flow stage."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.status = "pending"
        self.wall_seconds = 0.0
        self.detail = ""

    def __repr__(self) -> str:
        return f"FlowStage({self.name}: {self.status})"


class FlowReport:
    """Everything the flow produced, stage by stage."""

    def __init__(self, design_name: str) -> None:
        self.design_name = design_name
        self.stages: list[FlowStage] = []
        self.functional_result: RunResult | None = None
        self.implementation_result: RunResult | None = None
        self.post_synthesis_result: RunResult | None = None
        self.refinement_check: ConsistencyReport | None = None
        self.synthesis_check: ConsistencyReport | None = None
        self.synthesis_result: object | None = None
        self.lint_report: LintReport | None = None
        #: :class:`~repro.analyze.AnalysisReport` of the synthesized
        #: netlists (None when the analysis stage did not run).
        self.analysis_report: object | None = None

    @property
    def succeeded(self) -> bool:
        return all(stage.status == "ok" for stage in self.stages)

    def summary(self) -> str:
        lines = [f"design flow report: {self.design_name}"]
        for stage in self.stages:
            lines.append(
                f"  [{stage.status:>4}] {stage.name} "
                f"({stage.wall_seconds:.3f}s){': ' + stage.detail if stage.detail else ''}"
            )
        return "\n".join(lines)


class DesignFlow:
    """Drives the Figure 2 flow over a pair of platform builders.

    :param specification: free-form description; must at least name the
        design (checked as the flow's first stage).
    :param functional_builder: builds the high-level executable model.
    :param implementation_builder: builds the implementation model, with
        or without communication synthesis applied.
    :param lint_config: policy for the static design-rule stage
        (suppressions, strictness); default policy when ``None``.
    :param probe_bus: bus that receives a ``flow.stage`` probe per
        finished stage; falls back to the process-wide default bus.
    """

    def __init__(
        self,
        specification: typing.Mapping[str, object],
        functional_builder: FunctionalBuilder,
        implementation_builder: ImplementationBuilder,
        lint_config: LintConfig | None = None,
        probe_bus: ProbeBus | None = None,
    ) -> None:
        self.specification = dict(specification)
        self.functional_builder = functional_builder
        self.implementation_builder = implementation_builder
        self.lint_config = lint_config
        self._probe_bus = probe_bus

    def run(self, max_time: int) -> FlowReport:
        """Execute every stage; raises on hard failures."""
        name = str(self.specification.get("name", "unnamed-design"))
        report = FlowReport(name)

        with _stage(report, self._probe_bus, "check specifications") as stage:
            if "name" not in self.specification:
                raise RefinementError("specification must carry a 'name'")
            stage.detail = ", ".join(sorted(self.specification))

        with _stage(report, self._probe_bus, "build + simulate functional model") as stage:
            report.functional_result = self.functional_builder().run(max_time)
            stage.detail = repr(report.functional_result)

        with _stage(report, self._probe_bus, "static design-rule lint") as stage:
            # Fresh builds: the stage-2 platforms have already been run,
            # and lint analyses a built-but-not-run design.
            lint = LintReport("flow")
            lint.extend(lint_design(
                self.functional_builder().sim, self.lint_config,
                label="functional",
            ))
            platform, __ = self.implementation_builder(False)
            lint.extend(lint_design(
                platform.sim, self.lint_config, label="implementation",
            ))
            report.lint_report = lint
            stage.detail = lint.summary_line()
            if lint.has_errors:
                raise SynthesisError(
                    "design-rule violations block synthesis:\n" + lint.render()
                )

        with _stage(report, self._probe_bus, "refine communication (library swap)") as stage:
            platform, __ = self.implementation_builder(False)
            report.implementation_result = platform.run(max_time)
            stage.detail = repr(report.implementation_result)

        with _stage(report, self._probe_bus, "validate refinement") as stage:
            assert report.functional_result and report.implementation_result
            report.refinement_check = check_traces(
                report.functional_result.traces,
                report.implementation_result.traces,
                "functional",
                "implementation",
            )
            report.refinement_check.require_consistent()
            stage.detail = f"{report.refinement_check.compared_items} items equal"

        with _stage(report, self._probe_bus, "communication synthesis") as stage:
            platform, synthesis = self.implementation_builder(True)
            report.synthesis_result = synthesis
            report.post_synthesis_result = platform.run(max_time)
            stage.detail = repr(report.post_synthesis_result)

        with _stage(report, self._probe_bus, "post-synthesis netlist analysis") as stage:
            # Gate: the synthesized netlists must pass the dataflow
            # analyses (driver conflicts, comb loops, FSM liveness,
            # X-prop, shared-state races) before the design goes on to
            # the consistency check.
            from ..analyze import analyze_design

            analysis = analyze_design(
                synthesis, platform.sim, self.lint_config,
                label="post-synthesis",
            )
            report.analysis_report = analysis
            stage.detail = analysis.summary_line()
            if analysis.has_errors:
                raise SynthesisError(
                    "netlist analysis violations block the flow:\n"
                    + analysis.lint.render()
                )

        with _stage(report, self._probe_bus, "post-synthesis validation") as stage:
            assert report.implementation_result and report.post_synthesis_result
            report.synthesis_check = check_traces(
                report.implementation_result.traces,
                report.post_synthesis_result.traces,
                "pre-synthesis",
                "post-synthesis",
            )
            report.synthesis_check.require_consistent()
            stage.detail = f"{report.synthesis_check.compared_items} items equal"

        return report


class _stage:
    """Context manager recording one stage's outcome and wall time."""

    def __init__(
        self,
        report: FlowReport,
        bus: ProbeBus | None,
        name: str,
    ) -> None:
        self.report = report
        self.bus = bus
        self.stage = FlowStage(name)

    def __enter__(self) -> FlowStage:
        self.report.stages.append(self.stage)
        self._started = time.perf_counter()
        return self.stage

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stage.wall_seconds = time.perf_counter() - self._started
        self.stage.status = "ok" if exc_type is None else "FAIL"
        if exc is not None and not self.stage.detail:
            self.stage.detail = str(exc)
        bus = self.bus if self.bus is not None else default_bus()
        if bus is not None:
            bus.emit(
                FLOW_STAGE,
                self.stage.name,
                self.stage.status,
                self.stage.wall_seconds,
            )
