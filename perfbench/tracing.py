"""Outside-in tracing: spans and counts around the program's public calls.

Nothing under ``src/`` is changed. :class:`Instrumentation` swaps each
public function for a timing wrapper *at the place where its caller
looks it up* (``repro.fault.runner.execute_run``, not only the defining
``repro.fault.campaign.execute_run``), and restores every original on
exit. Counts come from a :class:`CountingBus` installed as the
process-wide default probe bus while each platform is built, so every
simulator gets a bus of its own and observers that other code attaches
(span tracers, detection logs) never see another run's events.

Spans (name, start, end, parent id, iteration id) stay in memory and
are written once, at the end, as a Chrome trace.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import time
import typing

from repro.core import refinement
from repro.fault import campaign, runner
from repro.flow import platforms
from repro.instrument.probes import (
    DELTA_BEGIN,
    METHOD_GRANT,
    METHOD_GUARD_BLOCK,
    PROCESS_ACTIVATE,
    SIGNAL_COMMIT,
    ProbeBus,
    set_default_bus,
)
from repro.instrument.profiler import write_chrome_trace
from repro.kernel.simtime import NS
from repro.synthesis import tool

#: Simulated clock period every cycle count is expressed in (the
#: platforms' default 30 ns PCI clock).
CYCLE_FS = 30 * NS


class CountingBus(ProbeBus):
    """A probe bus that counts kernel, hdl and OSSS events exactly."""

    def __init__(self) -> None:
        super().__init__()
        self.deltas = 0
        self.activations = 0
        self.commits = 0
        self.grants = 0
        self.guard_blocks = 0
        #: Simulated fs each granted call waited since it arrived.
        self.queue_waits: list[int] = []
        self.subscribe(DELTA_BEGIN, self._on_delta)
        self.subscribe(PROCESS_ACTIVATE, self._on_activate)
        self.subscribe(SIGNAL_COMMIT, self._on_commit)
        self.subscribe(METHOD_GRANT, self._on_grant)
        self.subscribe(METHOD_GUARD_BLOCK, self._on_guard_block)

    def _on_delta(self, time, index) -> None:
        self.deltas += 1

    def _on_activate(self, time, process, cause) -> None:
        self.activations += 1

    def _on_commit(self, time, signal, value) -> None:
        self.commits += 1

    def _on_grant(self, time, space, request) -> None:
        self.grants += 1
        self.queue_waits.append(time - request.arrival_time)

    def _on_guard_block(self, time, space, requests) -> None:
        self.guard_blocks += 1

    def snapshot(self) -> tuple[int, int, int, int, int, int]:
        return (
            self.deltas, self.activations, self.commits,
            self.grants, self.guard_blocks, len(self.queue_waits),
        )


class Span:
    """One timed call into a layer (host seconds from ``perf_counter``)."""

    __slots__ = ("sid", "name", "parent", "iteration", "start", "end", "args")

    def __init__(self, sid: int, name: str, parent: "int | None",
                 iteration: int) -> None:
        self.sid = sid
        self.name = name
        self.parent = parent
        self.iteration = iteration
        self.start = 0.0
        self.end = 0.0
        self.args: dict = {}

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span store plus the per-call counts recorded with it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.iteration = 0
        #: Simulated fs every granted call waited (all traced runs).
        self.queue_waits: list[int] = []
        #: digests already seen in the current iteration, per layer.
        self._seen: dict[str, set] = {}

    def begin_iteration(self, iteration: int) -> None:
        self.iteration = iteration
        self._seen = {}

    def call(self, name: str, fn, args: tuple = (),
             kwargs: "dict | None" = None, tags: "dict | None" = None):
        """Run ``fn(*args, **kwargs)`` inside a span named *name*."""
        span = Span(
            len(self.spans), name,
            self._open[-1] if self._open else None, self.iteration,
        )
        if tags:
            span.args.update(tags)
        self.spans.append(span)
        self._open.append(span.sid)
        span.start = time.perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def last(self, name: str) -> Span:
        for span in reversed(self.spans):
            if span.name == name:
                return span
        raise LookupError(name)

    def mark_netlist(self, name: str, digest: str) -> None:
        """Tag the most recent *name* span as a repeat when *digest* was
        already seen in this iteration."""
        seen = self._seen.setdefault(name, set())
        self.last(name).args["repeat"] = digest in seen
        seen.add(digest)

    def chrome_events(self) -> list[dict]:
        origin = min((span.start for span in self.spans), default=0.0)
        return [
            {
                "name": span.name,
                "cat": span.layer,
                "ph": "X",
                "ts": (span.start - origin) * 1e6,
                "dur": span.duration * 1e6,
                "pid": 1,
                "tid": 1,
                "args": dict(
                    span.args, sid=span.sid, parent=span.parent,
                    iteration=span.iteration,
                ),
            }
            for span in self.spans
        ]

    def write_chrome_trace(self, path: str) -> None:
        write_chrome_trace(path, self.chrome_events())


def _build_level(bound: inspect.BoundArguments) -> str:
    arguments = bound.arguments
    if not arguments.get("synthesize", False):
        return "functional"
    synthesis_config = arguments.get("synthesis_config")
    config = arguments.get("config")
    if synthesis_config is not None:
        backend = synthesis_config.backend
    else:
        backend = config.backend if config is not None else "interpreted"
    return "compiled" if backend == "compiled" else "synthesized"


class _Swaps:
    """Attribute/item replacements undone in reverse order on exit."""

    def __init__(self) -> None:
        self._undo: list[typing.Callable[[], None]] = []

    def attr(self, owner, name: str, value) -> None:
        original = getattr(owner, name)
        setattr(owner, name, value)
        self._undo.append(lambda: setattr(owner, name, original))

    def item(self, owner: dict, key, value) -> None:
        original = owner[key]
        owner[key] = value
        self._undo.append(lambda: owner.__setitem__(key, original))

    def undo(self) -> None:
        while self._undo:
            self._undo.pop()()


class RunLog:
    """Simulated statistics of every platform run, for the digests.

    Installed for traced and untraced iterations alike: one list append
    per platform run, no per-event cost.
    """

    def __init__(self) -> None:
        self.runs: list[tuple[str, int, int, int]] = []
        self._swaps = _Swaps()

    def __enter__(self) -> "RunLog":
        original = refinement.PlatformHandle.run
        log = self.runs

        @functools.wraps(original)
        def run(handle, max_time):
            try:
                return original(handle, max_time)
            finally:
                log.append((
                    handle.label,
                    handle.sim.time,
                    handle.sim.delta_count,
                    sum(len(app.records) for app in handle.applications),
                ))

        self._swaps.attr(refinement.PlatformHandle, "run", run)
        return self

    def __exit__(self, *exc) -> None:
        self._swaps.undo()


class Instrumentation:
    """Wrap the program's public functions with spans for one tracer."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._swaps = _Swaps()
        self._previous_sink = None

    def __enter__(self) -> "Instrumentation":
        tracer = self.tracer
        swaps = self._swaps
        build_signature = inspect.signature(platforms.build_platform)

        original_build = platforms.build_platform

        @functools.wraps(original_build)
        def build_platform(*args, **kwargs):
            level = _build_level(build_signature.bind(*args, **kwargs))
            # A fresh counting bus per simulator built under this call.
            previous = set_default_bus(CountingBus())
            try:
                return tracer.call(
                    "flow.build", original_build, args, kwargs,
                    tags={"level": level},
                )
            finally:
                set_default_bus(previous)

        swaps.attr(platforms, "build_platform", build_platform)
        # Campaign builds reach build_platform through partials bound
        # when repro.fault.campaign was imported.
        for family, partial in list(campaign._BUILDERS.items()):
            swaps.item(
                campaign._BUILDERS, family,
                functools.partial(build_platform, **partial.keywords),
            )

        self._wrap(campaign, "build_campaign_platform", "fault.build")
        self._wrap(runner, "plan_campaign", "fault.plan")
        self._wrap(runner, "execute_run", "fault.run")
        self._wrap(tool, "synthesize_communication", "synthesis.synthesize")
        compile_channel = importlib.import_module("repro.compile.channel")
        original_compile = compile_channel.compile_module

        @functools.wraps(original_compile)
        def compile_module(*args, **kwargs):
            compiled = tracer.call(
                "compile.compile_module", original_compile, args, kwargs
            )
            tracer.mark_netlist(
                "compile.compile_module", _digest(compiled.source)
            )
            return compiled

        swaps.attr(compile_channel, "compile_module", compile_module)
        self._wrap(
            importlib.import_module("repro.verify.consistency"),
            "check_traces", "verify.check_traces",
        )
        self._wrap(
            importlib.import_module("repro.trace.correlate"),
            "correlate", "trace.correlate",
        )

        original_run = refinement.PlatformHandle.run

        @functools.wraps(original_run)
        def run(handle, max_time):
            # Every traced simulator was built under build_platform above,
            # so it carries its own counting bus.
            bus = handle.sim._probes
            before = bus.snapshot()
            started_fs = handle.sim.time
            try:
                return tracer.call("kernel.run", original_run, (handle, max_time))
            finally:
                deltas, activations, commits, grants, blocks, __ = (
                    b - a for a, b in zip(before, bus.snapshot())
                )
                tracer.last("kernel.run").args.update(
                    cycles=(handle.sim.time - started_fs) / CYCLE_FS,
                    deltas=deltas, activations=activations, commits=commits,
                    grants=grants, guard_blocks=blocks,
                )
                tracer.queue_waits.extend(bus.queue_waits[before[5]:])

        swaps.attr(refinement.PlatformHandle, "run", run)

        def sink(sim, result) -> None:
            tracer.mark_netlist(
                "synthesis.synthesize", _digest(result.all_verilog())
            )

        self._previous_sink = tool.set_synthesis_sink(sink)
        return self

    def _wrap(self, owner, name: str, span_name: str) -> None:
        original = getattr(owner, name)
        tracer = self.tracer

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return tracer.call(span_name, original, args, kwargs)

        self._swaps.attr(owner, name, wrapper)

    def __exit__(self, *exc) -> None:
        tool.set_synthesis_sink(self._previous_sink)
        self._swaps.undo()


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()
