#!/usr/bin/env python3
"""The repository benchmark: one command per workload, outputs checked.

Run from the repository root::

    python3 perfbench/run.py --workload swap_matrix --seed 55 --seconds 12 --trace 0

Workloads are ``swap_matrix``, ``fault_campaign`` and ``sparse_sim``
(see :mod:`perfbench.workloads`). The seed only chooses the workload
inputs. With ``--trace 0`` the last stdout line is a JSON object whose
``metrics`` hold every end-to-end metric named in ``BENCHMARK.json``;
with ``--trace 1`` the same command instead wraps the program's public
functions in spans (:mod:`perfbench.tracing`), reports every per-layer
metric and writes the spans as a Chrome trace under
``.bench_build/perfbench/``. Lines before the JSON name every metric
with its unit, the failures, and a digest of simulated statistics per
case, which must repeat exactly for the same seed on any commit that
does not change the model.

Timing. ``--seconds`` fixes the amount of work, not a deadline: the
seed expands into as many cases as fill that many seconds on the
reference host, and each case runs once after set-up (imports, inputs,
references and one untimed iteration). A fixed amount of work keeps
sample counts, and so percentiles, the same on every run.

Host speed. The shared host's speed drifts by tens of percent within
minutes. A fixed pure-Python calibration loop, run between iterations,
measures that speed; every iteration's host times are reported scaled
to the reference host on which the loop takes
:data:`REFERENCE_CALIBRATION_S`, using the calibrations right before and
after it. The loop does not use the program, so a change to the program
does not change the scale.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Fresh processes timed from start through the first iteration.
SETUP_SAMPLES = 3
SETUP_READY = "perfbench: setup ready"

CALIBRATION_LOOPS = 1_000_000
#: Seconds the calibration loop takes on the reference host.
REFERENCE_CALIBRATION_S = 0.060

#: Span layers, named by the module whose public functions they time.
LAYERS = (
    "bench", "iface", "fault", "flow", "synthesis", "compile", "kernel",
    "verify", "trace",
)


def _load_program() -> None:
    """Put the checkout's ``src`` first on the path, or exit non-zero."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no program source at {src}")
    sys.path[:0] = [src, ROOT]


def _metric_catalogue() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def calibrate() -> float:
    """Host seconds of the fixed calibration loop."""
    acc = 0
    started = time.perf_counter()
    for i in range(CALIBRATION_LOOPS):
        acc += i % 7
    elapsed = time.perf_counter() - started
    if acc <= 0:
        raise RuntimeError("calibration loop did no work")
    return elapsed


def host_scales(calibrations: list[float]) -> list[float]:
    """Reference-host seconds per host second for each interval between
    consecutive calibrations, from the two calibrations around it."""
    return [
        2 * REFERENCE_CALIBRATION_S / (before + after)
        for before, after in zip(calibrations, calibrations[1:])
    ]


def case_count(workload, seconds: float) -> int:
    """Cases that fill *seconds* on the reference host (at least two)."""
    return max(2, round(seconds / workload.nominal_iteration_s))


class Bench:
    """One workload's cases, iterations, checks and samples."""

    def __init__(self, workload, seed: int, count: int) -> None:
        from perfbench.workloads import case_seeds

        self.workload = workload
        self.seeds = case_seeds(seed, count)
        self.cases = workload.prepare(seed, count)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        #: case index -> (digest sha, digest summary) of its first run.
        self.digests: dict[int, tuple[str, dict]] = {}
        #: Host seconds of each timed untraced / traced iteration.
        self.walls: list[float] = []
        self.traced_walls: list[float] = []
        #: Calibrations before, between and after the timed iterations.
        self.calibrations: list[float] = []
        #: Host ms of each operation, per timed untraced iteration.
        self.latencies_ms: list[list[float]] = []
        #: Operations and simulated cycles of the timed untraced iterations.
        self.operations = 0
        self.sim_cycles = 0.0
        self.traced_outcomes: list = []
        self.tracer = None

    def iterate(self, index: int, traced: bool = False):
        """Run case *index* once; returns ``(host seconds, outcome, cycles)``."""
        from perfbench.tracing import CYCLE_FS, Instrumentation, RunLog

        case = self.cases[index]
        with RunLog() as log:
            started = time.perf_counter()
            if traced:
                self.tracer.begin_iteration(len(self.traced_outcomes))
                with Instrumentation(self.tracer):
                    outcome = self.tracer.call(
                        self.workload.root, self.workload.iterate, (case,)
                    )
            else:
                outcome = self.workload.iterate(case)
            wall = time.perf_counter() - started
        outcome.digest["platform_runs"] = log.runs
        self._check(index, outcome)
        if traced:
            self.traced_outcomes.append(outcome)
        cycles = sum(run[1] for run in log.runs) / CYCLE_FS
        return wall, outcome, cycles

    def _check(self, index: int, outcome) -> None:
        self.attempted += outcome.attempted
        failed = outcome.failed
        problems = list(outcome.problems)
        sha = hashlib.sha256(
            json.dumps(outcome.digest, sort_keys=True).encode()
        ).hexdigest()
        first = self.digests.setdefault(index, (sha, _summary(outcome)))
        if first[0] != sha:
            failed = outcome.attempted
            problems.append("simulated statistics differ from the first run")
        self.failed += failed
        self.problems += [f"case {self.seeds[index]}: {p}" for p in problems]

    def measure(self, trace: bool) -> None:
        """Time every case once, calibrating host speed before each."""
        for index in range(len(self.cases)):
            self.calibrations.append(calibrate())
            wall, outcome, cycles = self.iterate(index)
            self.walls.append(wall)
            self.latencies_ms.append(outcome.latencies_ms)
            self.operations += outcome.attempted
            self.sim_cycles += cycles
            if trace:
                wall, __, __ = self.iterate(index, traced=True)
                self.traced_walls.append(wall)
        self.calibrations.append(calibrate())


def _summary(outcome) -> dict:
    """The human-readable part of a case digest."""
    runs = outcome.digest["platform_runs"]
    summary = {
        "sim_time_fs": sum(run[1] for run in runs),
        "deltas": sum(run[2] for run in runs),
        "transactions": sum(run[3] for run in runs),
    }
    if "classifications" in outcome.digest:
        summary["classifications"] = {
            k: v for k, v in outcome.digest["classifications"].items() if v
        }
    if outcome.cell_cycles:
        summary["cell_cycles"] = {
            label: round(cycles) for label, cycles in outcome.cell_cycles.items()
        }
    return summary


def end_to_end_metrics(bench: Bench, setup_seconds: list[float],
                       setup_calibrations: list[float]):
    """``(metrics, tail)``: every end-to-end value and the tail's rank."""
    from perfbench import stats

    scales = host_scales(bench.calibrations)
    host = sum(wall * scale for wall, scale in zip(bench.walls, scales))
    per_iteration = [
        [ms * scale for ms in iteration]
        for iteration, scale in zip(bench.latencies_ms, scales)
    ]
    latencies = [ms for iteration in per_iteration for ms in iteration]
    if bench.workload.tail_per_iteration:
        tails = [stats.tail_percentile(iteration) for iteration in per_iteration]
        tail = tails[0]._replace(
            value=stats.median([each.value for each in tails])
        )
    else:
        tail = stats.tail_percentile(latencies)
    setups = [
        seconds * scale
        for seconds, scale in zip(setup_seconds, host_scales(setup_calibrations))
    ]
    return {
        "setup_s": stats.median(setups),
        "runs_per_s": bench.operations / host,
        "sim_cycles_per_s": bench.sim_cycles / host,
        "run_ms_p50": stats.median(latencies),
        "run_ms_tail": tail.value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "passed_fraction": 1 - stats.failed_fraction(bench.failed, bench.attempted),
    }, tail


def per_layer_metrics(bench: Bench) -> dict:
    """Every per-layer value; host times (ms, us) on the reference host."""
    from repro.iface.matrix import DEFAULT_BUSES, LEVELS
    from repro.kernel.simtime import NS

    from perfbench import stats

    # Traced iteration k ran between calibrations k and k + 1.
    scales = host_scales(bench.calibrations)
    spans = bench.tracer.spans
    iterations = len(bench.traced_outcomes)
    by_name: dict[str, list] = {}
    children: dict[int, list] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)

    def ms(selected) -> list[float]:
        return [span.duration * 1e3 * scales[span.iteration] for span in selected]

    def self_ms(span) -> float:
        return 1e3 * scales[span.iteration] * stats.self_time(
            span.start, span.end,
            [(child.start, child.end) for child in children.get(span.sid, ())],
        )

    metrics: dict[str, float] = {}
    runs = by_name.get("kernel.run", [])
    cycles = sum(span.args["cycles"] for span in runs)

    def per_cycle(total: float) -> float:
        return total / cycles if cycles else 0.0

    def per_iteration(total: float) -> float:
        return total / iterations

    metrics["kernel.host_us_per_cycle"] = per_cycle(sum(ms(runs)) * 1e3)
    metrics["kernel.deltas_per_cycle"] = per_cycle(
        sum(span.args["deltas"] for span in runs)
    )
    metrics["kernel.activations_per_cycle"] = per_cycle(
        sum(span.args["activations"] for span in runs)
    )
    metrics["hdl.commits_per_cycle"] = per_cycle(
        sum(span.args["commits"] for span in runs)
    )
    builds = by_name.get("flow.build", [])
    for level in LEVELS:
        metrics[f"flow.build_ms.{level}"] = stats.median(
            ms(span for span in builds if span.args["level"] == level)
        )
    for layer, name in (
        ("synthesis", "synthesis.synthesize"),
        ("compile", "compile.compile_module"),
    ):
        calls = by_name.get(name, [])
        metrics[f"{layer}.calls"] = per_iteration(len(calls))
        metrics[f"{layer}.ms"] = per_iteration(sum(ms(calls)))
        metrics[f"{layer}.repeat_fraction"] = (
            sum(1 for span in calls if span.args["repeat"]) / len(calls)
            if calls else 0.0
        )
    fault_runs = by_name.get("fault.run", [])
    fault_run_ids = {span.sid for span in fault_runs}
    metrics["fault.plan_ms"] = stats.median(ms(by_name.get("fault.plan", [])))
    metrics["fault.build_ms_p50"] = stats.median(ms(by_name.get("fault.build", [])))
    metrics["fault.sim_ms_p50"] = stats.median(
        ms(span for span in runs if span.parent in fault_run_ids)
    )
    metrics["fault.classify_ms_p50"] = stats.median(
        [self_ms(span) for span in fault_runs]
    )
    metrics["verify.check_ms"] = per_iteration(
        sum(ms(by_name.get("verify.check_traces", [])))
    )
    metrics["trace.correlate_ms"] = per_iteration(
        sum(ms(by_name.get("trace.correlate", [])))
    )
    metrics["osss.grants"] = per_iteration(sum(span.args["grants"] for span in runs))
    metrics["osss.guard_blocks"] = per_iteration(
        sum(span.args["guard_blocks"] for span in runs)
    )
    metrics["osss.queue_wait_ns_p50"] = stats.median(bench.tracer.queue_waits) / NS
    for bus in DEFAULT_BUSES:
        for level in LEVELS:
            label = f"{bus}_{level}"
            metrics[f"iface.sim_cycles.{label}"] = per_iteration(sum(
                outcome.cell_cycles.get(label, 0.0)
                for outcome in bench.traced_outcomes
            ))
    layer_self: dict[str, float] = {}
    for span in spans:
        layer_self[span.layer] = layer_self.get(span.layer, 0.0) + self_ms(span)
    for layer in LAYERS:
        metrics[f"self_ms.{layer}"] = per_iteration(layer_self.get(layer, 0.0))
    metrics["bench.trace_overhead"] = sum(bench.traced_walls) / sum(bench.walls)
    return metrics


def _time_setup(workload: str, seed: int, seconds: float) -> float:
    """Host seconds from a fresh process's start to the end of its set-up."""
    started = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--setup-only"],
        stdout=subprocess.PIPE, cwd=ROOT, text=True,
    )
    try:
        line = child.stdout.readline().strip()
        elapsed = time.perf_counter() - started
        child.stdout.read()
    finally:
        child.stdout.close()
        try:
            child.wait(timeout=120)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
    if child.returncode != 0 or line != SETUP_READY:
        raise SystemExit(
            f"perfbench: set-up process failed (exit {child.returncode})"
        )
    return elapsed


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=55)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    _load_program()
    catalogue = _metric_catalogue()
    from perfbench.tracing import Tracer
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}"
        )
    workload = WORKLOADS[args.workload]()

    setup_seconds: list[float] = []
    setup_calibrations: list[float] = []
    if not args.setup_only and not args.trace:
        setup_calibrations.append(calibrate())
        for __ in range(SETUP_SAMPLES):
            setup_seconds.append(
                _time_setup(args.workload, args.seed, args.seconds)
            )
            setup_calibrations.append(calibrate())

    bench = Bench(workload, args.seed, case_count(workload, args.seconds))
    bench.iterate(0)
    if args.setup_only:
        print(SETUP_READY, flush=True)
        return 0

    if args.trace:
        bench.tracer = Tracer()
    bench.measure(bool(args.trace))

    from perfbench import stats

    print(f"perfbench {args.workload} seed={args.seed} cases={len(bench.cases)} "
          f"trace={args.trace} host_scale="
          f"{stats.median(host_scales(bench.calibrations)):.4f}")
    if args.trace:
        values = per_layer_metrics(bench)
        wanted = catalogue["per_layer"]
        out_dir = os.path.join(ROOT, ".bench_build", "perfbench")
        os.makedirs(out_dir, exist_ok=True)
        trace_path = os.path.join(
            out_dir, f"{args.workload}-seed{args.seed}.trace.json"
        )
        bench.tracer.write_chrome_trace(trace_path)
        print(f"  chrome trace: {os.path.relpath(trace_path, ROOT)} "
              f"({len(bench.tracer.spans)} spans)")
    else:
        values, tail = end_to_end_metrics(
            bench, setup_seconds, setup_calibrations
        )
        wanted = catalogue["end_to_end"]
        print(f"  run_ms_tail is p{tail.percentile:.2f} of {tail.samples} samples"
              + (f" per iteration, median over {len(bench.walls)}"
                 if workload.tail_per_iteration else ""))
    print(f"  failed_fraction {bench.failed / bench.attempted:g} "
          f"({bench.failed} of {bench.attempted} operations)")
    for problem in bench.problems[:20]:
        print(f"  FAILED {problem}")
    metrics = {}
    for metric in wanted:
        value = values[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"  {metric['name']:<38} {value:>14.6g} {metric['unit']}")
    for index, (sha, summary) in sorted(bench.digests.items()):
        print(f"digest {args.workload} case={bench.seeds[index]} "
              f"sha256={sha[:16]} {json.dumps(summary, sort_keys=True)}")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
