"""CI gates: off-path costs and runtime budgets against one baseline file.

Every case in ``benchmarks/baselines.json`` records ``{kind, reference,
tolerance, workload}`` and passes when ``value <= reference * (1 +
tolerance)``.  The ``workload`` parameters are passed to the case, so
the file is the single record of what each gate measures.

Two kinds of measurement:

* ``counted`` — Python-level ``call`` events into ``repro`` code
  objects, counted under :func:`sys.setprofile` on a second run (the
  first warms imports and caches).  The simulations are deterministic,
  so the count repeats exactly across runs and processes.  The off-path
  gates use it because their 2–10% bounds sit far below wall-time
  jitter on a shared host, and any real work added to an off path — a
  method call, a lookup, a hook — moves the count at once.
* ``timed`` — best-of-N wall time normalized by a pure-Python
  calibration loop timed once per process, for the two runtime budgets
  (analyze, swap matrix) whose 30–35% bounds sit above that jitter.

The off-path cases also run their "on" variants, check that each still
does its job and print the on/off call ratio; only the off path is
gated.

Usage::

    python benchmarks/gates.py                      # every case (CI)
    python benchmarks/gates.py durable_off analyze  # named cases
    python benchmarks/gates.py CASE --update        # rewrite references
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import shutil
import sys
import tempfile
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if os.path.join(_ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(_ROOT, "src"))

import repro  # noqa: E402
from repro.analyze import analyze_design  # noqa: E402
from repro.core import CommandType, generate_workload  # noqa: E402
from repro.fault import demo_campaign_spec, run_campaign  # noqa: E402
from repro.flow import PciPlatformConfig, build_platform  # noqa: E402
from repro.hdl import Clock, Module  # noqa: E402
from repro.iface import run_swap_matrix  # noqa: E402
from repro.instrument import (  # noqa: E402
    EVENT_NOTIFY,
    PROCESS_ACTIVATE,
    MetricsCollector,
)
from repro.kernel import MS, NS, Simulator  # noqa: E402
from repro.osss import GlobalObject, connect, guarded_method  # noqa: E402
from repro.resilience import ResilienceConfig  # noqa: E402
from repro.synthesis import SynthesisConfig, synthesize_communication  # noqa: E402
from repro.synthesis.tool import set_synthesis_sink  # noqa: E402
from repro.telemetry.recorder import FlightRecorder  # noqa: E402
from repro.telemetry.scorecard import ScorecardProbe  # noqa: E402
from repro.trace import SpanTracer, attribute  # noqa: E402

BASELINES_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "baselines.json")
REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
#: Python 3.12 inlines these (PEP 709) while 3.11 calls them; CI runs
#: both, so they are never counted.
INLINED_COMPREHENSIONS = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>"})
TIMED_REPEATS = 5
CALIBRATION_LOOPS = 200_000


class GateError(Exception):
    """The baseline file and the case table disagree."""


# -- measurement -------------------------------------------------------------


def counts_toward(code) -> bool:
    """Whether a ``call`` into *code* counts: repro code, not inlined."""
    return (code.co_filename.startswith(REPRO_DIR)
            and code.co_name not in INLINED_COMPREHENSIONS)


def count_calls(fn):
    """Run ``fn()`` under :func:`sys.setprofile`; returns ``(calls,
    result)`` where *calls* counts the ``call`` events that
    :func:`counts_toward` accepts (generator resumes included).

    The cyclic collector is paused while counting: closing a collected
    simulation's suspended process generators resumes them, and when
    that happens depends on what the process allocated before."""
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call" and counts_toward(frame.f_code):
            calls += 1

    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(profiler)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
        if was_enabled:
            gc.enable()
    return calls, result


def measure_counted(setup):
    """``setup()`` returns a fresh zero-argument run; the first run
    warms imports and caches, the second is counted."""
    setup()()
    return count_calls(setup())


@functools.lru_cache(maxsize=None)
def calibration_seconds() -> float:
    """Best-of-N time of a fixed pure-Python loop: the host yardstick."""
    best = float("inf")
    for __ in range(TIMED_REPEATS):
        acc = 0
        started = time.perf_counter()
        for i in range(CALIBRATION_LOOPS):
            acc += i % 7
        best = min(best, time.perf_counter() - started)
    return best


def measure_timed(setup):
    """Best of :data:`TIMED_REPEATS` fresh runs, in calibration units."""
    best = float("inf")
    for __ in range(TIMED_REPEATS):
        run = setup()
        started = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - started)
    return best / calibration_seconds(), result


MEASURES = {"counted": measure_counted, "timed": measure_timed}


# -- cases -------------------------------------------------------------------


def pci_platform(seed, n_commands, resilience=None):
    """The synthesized PCI platform over a generated workload."""
    workload = generate_workload(
        seed=seed, n_commands=n_commands, address_span=0x400,
        max_burst=4, partial_byte_enable_fraction=0.2,
    )
    return build_platform([workload], PciPlatformConfig(resilience=resilience),
                          bus="pci", synthesize=True)


def run_to_completion(bundle):
    """Run a platform until its applications finish; returns it."""
    bundle.run(200 * MS)
    for app in bundle.handle.applications:
        assert app.done, f"{app.path} did not finish"
    return bundle


def _ratio_line(label, on_calls, off_calls, detail):
    print(f"    {label:<16} {on_calls:9d} calls ({on_calls / off_calls:.3f}x off), "
          f"{detail}")


def pci_probes_off(measure, seed, n_commands):
    """Synthesized PCI with no probe subscriber and no recovery stack:
    the shipping path that spans, telemetry and resilience must leave
    untouched."""
    def setup():
        bundle = pci_platform(seed, n_commands)
        return lambda: run_to_completion(bundle)

    value, bundle = measure(setup)
    assert bundle.interface.recovery is None

    bundle = pci_platform(seed, n_commands)
    tracer = SpanTracer().attach(bundle.handle.sim.probes)
    calls, __ = count_calls(lambda: run_to_completion(bundle))
    spans = len(attribute(tracer.finalize()))
    assert spans == n_commands, f"{spans} transactions assembled"
    _ratio_line("span tracer", calls, value, f"{spans} transactions assembled")

    bundle = pci_platform(seed, n_commands)
    probes = bundle.handle.sim.probes
    scorecard = ScorecardProbe(cycle_fs=bundle.clock.period).attach(probes)
    FlightRecorder(512).attach(probes)
    calls, __ = count_calls(lambda: run_to_completion(bundle))
    scored = scorecard.score("pci", "synthesized", "gate").transactions
    assert scored == n_commands, f"{scored} transactions scored"
    _ratio_line("telemetry", calls, value, f"{scored} transactions scored")

    bundle = pci_platform(seed, n_commands, ResilienceConfig.default(seed))
    calls, __ = count_calls(lambda: run_to_completion(bundle))
    replays = bundle.interface.operations_replayed
    assert replays == 0, f"{replays} replays on a clean run"
    _ratio_line("resilience", calls, value, "0 replays, every app finished")
    return value


class Accumulator:
    def __init__(self):
        self.total = 0

    @guarded_method()
    def add(self, n):
        self.total += n
        return self.total


def _method_call_setup(clients, calls_per_client, on_simulator=None):
    """Concurrent clients calling one guarded method through a
    synthesized channel; returns the zero-argument run."""
    sim = Simulator()
    if on_simulator is not None:
        on_simulator(sim)
    clock = Clock(sim, "clock", period=10 * NS)
    handles = [GlobalObject(Module(sim, f"client{i}"), "acc", Accumulator)
               for i in range(clients)]
    connect(*handles)
    synthesize_communication(sim, clock.clk, SynthesisConfig(emit_hdl=False))
    finished = [0]

    def client(handle):
        for __ in range(calls_per_client):
            yield from handle.add(1)
        finished[0] += 1
        if finished[0] == clients:
            sim.stop()

    for i, handle in enumerate(handles):
        sim.spawn(lambda handle=handle: client(handle), f"proc{i}")

    def run():
        sim.run(100 * MS)
        assert finished[0] == clients, f"{finished[0]}/{clients} clients"
    return run


def instrument_off(measure, clients, calls_per_client):
    """The guarded-method call path with the null probe bus."""
    value, __ = measure(
        lambda: _method_call_setup(clients, calls_per_client)
    )
    causes = {EVENT_NOTIFY: 0, PROCESS_ACTIVATE: 0}

    def instrument(sim):
        MetricsCollector().attach(sim.probes)
        for kind in causes:
            def count_cause(t, subject, cause=None, kind=kind):
                causes[kind] += cause is not None
            sim.probes.subscribe(kind, count_cause)

    calls, __ = count_calls(
        _method_call_setup(clients, calls_per_client, instrument)
    )
    for kind, carried in causes.items():
        assert carried > 0, f"no {kind} probe carried a cause"
    _ratio_line("metrics", calls, value, "probes carry causes")
    return value


def _campaign(spec, runs, scratch=None):
    result = run_campaign(
        spec, workers=1, max_runs=runs,
        journal_dir=scratch and os.path.join(scratch, "journal"),
        cache_dir=scratch and os.path.join(scratch, "cache"),
    )
    assert len(result.outcomes) == runs, f"{len(result.outcomes)} outcomes"
    return result


def durable_off(measure, seed, runs):
    """A serial demo campaign with no journal, cache or resume."""
    spec = demo_campaign_spec(platform="pci", seed=seed, runs=runs)
    value, __ = measure(lambda: lambda: _campaign(spec, runs))
    scratch = tempfile.mkdtemp(prefix="gate_durable_")
    try:
        calls, __ = count_calls(lambda: _campaign(spec, runs, scratch))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    _ratio_line("journal+cache", calls, value, f"{runs} outcomes")
    return value


def analyze(measure):
    """``analyze_design`` over the synthesized Figure 4 PCI netlists."""
    captured = []
    previous = set_synthesis_sink(lambda sim, result: captured.append((sim, result)))
    try:
        build_platform(
            [[CommandType.write(0x100, [0xDEADBEEF, 0x12345678, 0xCAFEF00D]),
              CommandType.read(0x100, count=3)]],
            PciPlatformConfig(wait_states=1), bus="pci", synthesize=True,
        )
    finally:
        set_synthesis_sink(previous)
    ((sim, synthesis),) = captured
    value, report = measure(
        lambda: lambda: analyze_design(synthesis, sim, label="gate")
    )
    assert not report.has_errors, report.lint.render()
    assert report.schedules(), "no netlist levelized"
    return value


def swap_matrix(measure, seed, n_commands):
    """The full bus x level swap matrix; every cell must be CONSISTENT
    with every transaction signature matching."""
    value, report = measure(
        lambda: lambda: run_swap_matrix(seed=seed, n_commands=n_commands)
    )
    assert report.all_consistent, report.render()
    short = [cell for cell in report.cells
             if cell.signature_matches != n_commands]
    assert not short, f"{len(short)} cell(s) short of {n_commands} matches"
    print(f"    {len(report.cells)} cells CONSISTENT, "
          f"{n_commands}/{n_commands} signatures each")
    return value


CASES = {
    "pci_probes_off": pci_probes_off,
    "instrument_off": instrument_off,
    "durable_off": durable_off,
    "analyze": analyze,
    "swap_matrix": swap_matrix,
}


# -- harness -----------------------------------------------------------------


def load_baselines(path=BASELINES_PATH) -> dict:
    with open(path) as handle:
        baselines = json.load(handle)
    missing = sorted(set(CASES) - set(baselines))
    unknown = sorted(set(baselines) - set(CASES))
    if missing or unknown:
        raise GateError(f"{path}: cases without a baseline {missing}, "
                        f"baselines without a case {unknown}")
    return baselines


def limit(entry) -> float:
    return entry["reference"] * (1.0 + entry["tolerance"])


def within(value, entry) -> bool:
    """The one compare rule every gate uses."""
    return value <= limit(entry)


def run_case(name, entry):
    return CASES[name](MEASURES[entry["kind"]], **entry["workload"])


def _fmt(value, kind):
    return f"{value:.0f} calls" if kind == "counted" else f"{value:.2f} units"


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("cases", nargs="*", metavar="CASE",
                        help=f"cases to run (default all: {', '.join(CASES)})")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the named cases' references from this run")
    args = parser.parse_args(argv)
    unknown = [name for name in args.cases if name not in CASES]
    if unknown:
        parser.error(f"unknown case(s) {unknown}; known: {list(CASES)}")

    baselines = load_baselines()
    failed = []
    for name in args.cases or CASES:
        entry = baselines[name]
        print(f"{name} ({entry['kind']}):")
        value = run_case(name, entry)
        if args.update:
            entry["reference"] = value
        ok = within(value, entry)
        print(f"    value {_fmt(value, entry['kind'])}, reference "
              f"{_fmt(entry['reference'], entry['kind'])}, limit "
              f"{_fmt(limit(entry), entry['kind'])} (+{entry['tolerance']:.0%})"
              f"  {'OK' if ok else 'FAIL'}")
        if not ok:
            failed.append(name)

    if args.update:
        with open(BASELINES_PATH, "w") as handle:
            json.dump(baselines, handle, indent=2)
            handle.write("\n")
        print(f"references updated: {BASELINES_PATH}")
    if failed:
        print(f"FAIL: {', '.join(failed)} over the limit", file=sys.stderr)
        return 1
    print("OK: every gate within its limit")
    return 0


if __name__ == "__main__":
    sys.exit(main())
