"""Declarative fault-campaign specifications and their expansion.

A :class:`CampaignSpec` says *what to attack* (fault kinds + target
globs + optional time windows), *on which platform*, and *with which
seed*; :func:`expand_campaign` turns it into a flat, deterministic list
of :class:`RunSpec` objects — one concrete fault per run. Everything is
plain picklable data so run specs travel into worker processes
unchanged.
"""

from __future__ import annotations

import fnmatch
import typing

from ..core.workload import _Lcg
from ..kernel.simtime import NS
from .models import CHANNEL_TARGET, FAULT_KINDS, FaultInjectionError

#: Platforms a campaign can run against (the bus families of
#: :func:`repro.flow.build_platform`).
PLATFORMS = ("pci", "wishbone", "axi4lite", "tlmgp", "functional")


class FaultSpec:
    """One line of a campaign: a fault kind aimed at a target glob.

    :param kind: a tag from :data:`~repro.fault.models.FAULT_KINDS`.
    :param target: ``fnmatch`` glob over hierarchical paths; every match
        becomes its own set of runs.
    :param window: optional fixed ``(start, end)`` fs window. When
        omitted, each run draws a window from the campaign seed so the
        same fault lands at different times across repetitions.
    :param repeats: runs per matched target.
    :param params: extra keyword arguments for the fault model
        (``value``, ``bit``, ``field``, ``mask``, ...). ``bit=None`` or
        ``mask=None`` draw per-run values from the seed.
    """

    def __init__(
        self,
        kind: str,
        target: str,
        window: "tuple[int, int] | None" = None,
        repeats: int = 1,
        params: "dict[str, object] | None" = None,
    ) -> None:
        if kind not in FAULT_KINDS:
            raise FaultInjectionError(
                f"unknown fault kind {kind!r}; known: {sorted(FAULT_KINDS)}"
            )
        if repeats < 1:
            raise FaultInjectionError(f"repeats must be >= 1, got {repeats}")
        self.kind = kind
        self.target = target
        self.window = window
        self.repeats = repeats
        self.params = dict(params or {})

    @property
    def target_kind(self) -> str:
        return FAULT_KINDS[self.kind].target_kind

    def to_dict(self) -> dict:
        """Plain-data form, stable enough to content-hash (the durable
        layer folds every fault line into the campaign spec hash)."""
        return {
            "kind": self.kind,
            "target": self.target,
            "window": list(self.window) if self.window else None,
            "repeats": self.repeats,
            "params": {k: self.params[k] for k in sorted(self.params)},
        }

    def __repr__(self) -> str:
        return f"FaultSpec({self.kind} @ {self.target!r} x{self.repeats})"


class CampaignSpec:
    """A whole campaign: platform + workload + fault lines + seed.

    The workload knobs mirror :func:`~repro.core.workload
    .generate_workload`; each application ``i`` gets the workload seeded
    with ``seed + i``.
    """

    def __init__(
        self,
        name: str,
        faults: typing.Sequence[FaultSpec],
        platform: str = "pci",
        seed: int = 11,
        n_apps: int = 2,
        commands_per_app: int = 6,
        max_time: int = 200_000 * NS,
        wall_timeout: float = 60.0,
        address_span: int = 0x100,
        write_fraction: float = 0.6,
        think_time: int = 0,
        trace_spans: bool = False,
        resilience: bool = False,
        crash_run_ids: typing.Sequence[int] = (),
        synthesize: bool = False,
        telemetry: bool = False,
        flight_record_dir: "str | None" = None,
    ) -> None:
        if platform not in PLATFORMS:
            raise FaultInjectionError(
                f"unknown platform {platform!r}; known: {PLATFORMS}"
            )
        if not faults:
            raise FaultInjectionError("a campaign needs at least one FaultSpec")
        if synthesize and platform == "functional":
            raise FaultInjectionError(
                "the functional platform has no clock to synthesize "
                "against; use a clocked platform (pci, wishbone, "
                "axi4lite or tlmgp)"
            )
        self.name = name
        self.faults = list(faults)
        self.platform = platform
        self.seed = seed
        self.n_apps = n_apps
        self.commands_per_app = commands_per_app
        self.max_time = max_time
        self.wall_timeout = wall_timeout
        self.address_span = address_span
        self.write_fraction = write_fraction
        #: fs between an application's commands; >0 leaves idle bus
        #: cycles so idle-time faults are exercised too.
        self.think_time = think_time
        #: attach a SpanTracer to every run (golden and faulty) and
        #: report per-run span counts/latencies on the outcomes. The
        #: spec is picklable, so parallel workers trace identically.
        self.trace_spans = trace_spans
        #: arm the resilience stack (guarded-call retry policies seeded
        #: from the campaign seed + protocol replay in the interface
        #: element) on every platform the campaign builds — golden and
        #: faulty alike, so traces stay comparable. Runs whose damage
        #: the stack absorbs classify as ``recovered``.
        self.resilience = resilience
        #: chaos knob for the self-healing runner: pool workers
        #: hard-exit (``os._exit``) before executing these run ids, so
        #: tests can prove completed results survive a worker crash.
        #: The serial runner classifies them ``worker_error`` directly,
        #: keeping serial and parallel reports identical.
        self.crash_run_ids = tuple(crash_run_ids)
        #: apply communication synthesis to every platform the campaign
        #: builds (golden, probe and faulty runs alike, so traces stay
        #: comparable).
        self.synthesize = synthesize
        #: attach a communication ScorecardProbe to every run and carry
        #: the per-run gauges (as a picklable dict) on the outcomes;
        #: reports merge them into campaign-level digests that are
        #: identical for serial and process-pool execution.
        self.telemetry = telemetry
        #: when set, every run dumps its flight-recorder ring (the last
        #: :data:`~repro.telemetry.recorder.DEFAULT_CAPACITY` structured
        #: events) as ``run<NNN>.jsonl`` under this directory —
        #: including runs that crash or misbehave, which is the whole
        #: point.
        self.flight_record_dir = flight_record_dir

    def workload_seeds(self) -> list[int]:
        return [self.seed + i for i in range(self.n_apps)]

    def __repr__(self) -> str:
        return (
            f"CampaignSpec({self.name}: {len(self.faults)} fault specs on "
            f"{self.platform}, seed={self.seed})"
        )


class RunSpec:
    """One concrete faulty run, fully determined and picklable."""

    def __init__(
        self,
        run_id: int,
        kind: str,
        target_path: str,
        window: "tuple[int, int] | None",
        params: dict,
    ) -> None:
        self.run_id = run_id
        self.kind = kind
        self.target_path = target_path
        self.window = window
        self.params = params

    @property
    def label(self) -> str:
        return f"run{self.run_id:03d}:{self.kind}@{self.target_path}"

    def __repr__(self) -> str:
        return f"RunSpec({self.label}, window={self.window})"


def match_targets(
    pattern: str, candidates: typing.Iterable[str]
) -> list[str]:
    """Sorted candidate paths matching an ``fnmatch`` glob."""
    return sorted(
        path for path in candidates if fnmatch.fnmatchcase(path, pattern)
    )


def _rand_below(rng: _Lcg, bound: int) -> int:
    """A seeded draw in ``[0, bound)`` for bounds past the LCG's 31 bits.

    Horizons are femtosecond counts, far beyond ``next_int``'s 31-bit
    range — a single draw would silently pin every window to the first
    couple of microseconds of the run.
    """
    if bound <= 0x7FFFFFFF:
        return rng.next_int(bound)
    high = rng.next_int(0x7FFFFFFF)
    low = rng.next_int(0x7FFFFFFF)
    return ((high << 31) | low) % bound


def _draw_window(
    rng: _Lcg, horizon: int, kind: str
) -> tuple[int, int]:
    """A seeded window inside ``[0, 1.5 * horizon)``.

    Starts are drawn past the golden end time on purpose: a fault that
    arms after all traffic has drained must classify as *benign*, and
    the campaign should exercise that path.
    """
    start = _rand_below(rng, max(1, (3 * horizon) // 2))
    span = max(1, horizon // 4)
    if kind == "glitch":
        span = max(1, horizon // 50)
    return (start, start + span)


def _draw_params(rng: _Lcg, kind: str, params: dict) -> dict:
    """Fill seed-drawn parameter values left unset in the spec."""
    drawn = dict(params)
    if kind == "bit_flip" and drawn.get("bit") is None:
        drawn["bit"] = rng.next_int(32)
    if kind == "command_corruption" and drawn.get("mask") is None:
        drawn["mask"] = 1 << rng.next_int(30)
    return {k: v for k, v in drawn.items() if v is not None}


def expand_campaign(
    spec: CampaignSpec,
    signal_paths: typing.Iterable[str],
    channel_paths: typing.Iterable[str],
    horizon: int,
) -> list[RunSpec]:
    """Expand a campaign into its deterministic run list.

    :param signal_paths: hierarchical names of every injectable signal
        on the platform (from a probe build).
    :param channel_paths: hierarchical names of every global-object
        handle.
    :param horizon: the golden run's end time (fs), the reference for
        seeded window placement.
    :raises FaultInjectionError: when a fault line matches nothing —
        a silently empty campaign is always a spec bug.
    """
    signal_paths = list(signal_paths)
    channel_paths = list(channel_paths)
    runs: list[RunSpec] = []
    run_id = 0
    for fault_index, fault in enumerate(spec.faults):
        candidates = (
            channel_paths
            if fault.target_kind == CHANNEL_TARGET
            else signal_paths
        )
        matched = match_targets(fault.target, candidates)
        if not matched:
            raise FaultInjectionError(
                f"campaign {spec.name!r}: fault line {fault!r} matches no "
                f"{fault.target_kind} target"
            )
        for target_index, path in enumerate(matched):
            for repeat in range(fault.repeats):
                # One private stream per run: reordering fault lines or
                # adding targets never perturbs other runs' draws.
                rng = _Lcg(
                    spec.seed
                    ^ (0x9E3779B1 * (fault_index + 1))
                    ^ (0x85EBCA77 * (target_index + 1))
                    ^ (0xC2B2AE35 * (repeat + 1))
                )
                window = fault.window
                if window is None:
                    window = _draw_window(rng, horizon, fault.kind)
                runs.append(
                    RunSpec(
                        run_id,
                        fault.kind,
                        path,
                        window,
                        _draw_params(rng, fault.kind, fault.params),
                    )
                )
                run_id += 1
    return runs


def demo_campaign_spec(
    platform: str = "pci",
    seed: int = 11,
    runs: int = 60,
) -> CampaignSpec:
    """The stock demo campaign on the Figure-4 platform.

    Six fault lines spanning all three interception layers (pin, OSSS
    scheduling, transaction), scaled so the total expansion is close to
    *runs*. On the PCI platform the pin lines target the AD bus (silent
    data corruption — PAR is regenerated from the corrupted wire, so
    parity cannot catch it), spurious FRAME# assertions (the monitor's
    address-phase rules catch idle-time strikes) and DEVSEL# stuck
    deasserted (missing target: master aborts, TRDY#-without-DEVSEL#
    violations, or lost commands).
    """
    if platform == "pci":
        pin_lines = [
            FaultSpec("bit_flip", "top.bus.ad", params={"bit": None}),
            FaultSpec("glitch", "top.bus.frame_n", params={"value": 0}),
            FaultSpec("stuck_at", "top.bus.devsel_n", params={"value": 1}),
        ]
    elif platform == "wishbone":
        pin_lines = [
            FaultSpec("bit_flip", "top.bus.dat_w", params={"bit": None}),
            FaultSpec("glitch", "top.bus.ack", params={"value": 1}),
            FaultSpec("stuck_at", "top.bus.ack", params={"value": 0}),
        ]
    elif platform == "axi4lite":
        pin_lines = [
            FaultSpec("bit_flip", "top.bus.wdata", params={"bit": None}),
            FaultSpec("glitch", "top.bus.bvalid", params={"value": 1}),
            FaultSpec("stuck_at", "top.bus.arready", params={"value": 0}),
        ]
    else:
        # The functional and generic-payload platforms have no wires;
        # only the channel layer is attackable.
        pin_lines = []
    channel = "top.interface.channel"
    channel_lines = [
        FaultSpec("command_corruption", channel,
                  params={"field": "data", "mask": None}),
        FaultSpec("dropped_request", channel,
                  params={"method": "put_command"}),
        FaultSpec("delayed_grant", channel),
    ]
    faults = pin_lines + channel_lines
    repeats = max(1, runs // len(faults))
    for fault in faults:
        fault.repeats = repeats
    return CampaignSpec(
        name=f"demo-{platform}",
        faults=faults,
        platform=platform,
        seed=seed,
        think_time=0 if platform == "functional" else 240 * NS,
    )
