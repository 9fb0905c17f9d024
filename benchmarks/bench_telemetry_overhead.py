"""CI guard: telemetry must cost nothing when it is off.

Runs the synthesized PCI platform over a generated workload twice —
once with no telemetry attached (the shipping configuration) and once
with the full observability stack riding the probe bus (a
:class:`~repro.telemetry.scorecard.ScorecardProbe` plus a
:class:`~repro.telemetry.recorder.FlightRecorder`) — and compares the
*off* path against the checked-in calibrated baseline
``benchmarks/telemetry_overhead_baseline.json``.

As in ``bench_span_overhead``, wall-clock time is normalized by a
pure-Python calibration loop timed on the same host, so the stored
"workload costs K calibration units" number is comparable across runs.
The off-path tolerance is deliberately tight (2%): telemetry is pure
subscriber code behind the null-bus check, and this bench exists to
keep it that way.

Usage::

    python benchmarks/bench_telemetry_overhead.py            # compare (CI)
    python benchmarks/bench_telemetry_overhead.py --update   # rewrite baseline
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if os.path.join(_ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(_ROOT, "src"))

from repro.core import generate_workload  # noqa: E402
from repro.flow import build_platform  # noqa: E402
from repro.kernel import MS  # noqa: E402
from repro.telemetry.recorder import FlightRecorder  # noqa: E402
from repro.telemetry.scorecard import ScorecardProbe  # noqa: E402

BASELINE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "telemetry_overhead_baseline.json")
SEED = 55
#: Large enough that the ~2% guard sits well above best-of-N jitter.
N_COMMANDS = 60
REPEATS = 7
CALIBRATION_LOOPS = 200_000


def _workload():
    return generate_workload(
        seed=SEED, n_commands=N_COMMANDS, address_span=0x400,
        max_burst=4, partial_byte_enable_fraction=0.2,
    )


def _platform_run(telemetry: bool) -> float:
    """One synthesized-PCI run; returns wall seconds of the simulation."""
    bundle = build_platform([_workload()], bus="pci", synthesize=True)
    probe = None
    if telemetry:
        probes = bundle.handle.sim.probes
        probe = ScorecardProbe(
            cycle_fs=bundle.clock.period
        ).attach(probes)
        FlightRecorder(512).attach(probes)
    started = time.perf_counter()
    bundle.run(200 * MS)
    elapsed = time.perf_counter() - started
    if probe is not None:
        score = probe.score("pci", "synthesized", "bench")
        assert score.transactions == N_COMMANDS, (
            f"expected {N_COMMANDS} scored transactions, "
            f"got {score.transactions}"
        )
    return elapsed


def _calibrate() -> float:
    acc = 0
    started = time.perf_counter()
    for i in range(CALIBRATION_LOOPS):
        acc += i % 7
    elapsed = time.perf_counter() - started
    assert acc > 0
    return elapsed


def measure() -> dict:
    calibration = min(_calibrate() for __ in range(REPEATS))
    off = min(_platform_run(False) for __ in range(REPEATS))
    on = min(_platform_run(True) for __ in range(REPEATS))
    return {
        "workload": {
            "seed": SEED,
            "n_commands": N_COMMANDS,
            "calibration_loops": CALIBRATION_LOOPS,
        },
        "calibration_seconds": calibration,
        "off_seconds": off,
        "on_seconds": on,
        "normalized_off": off / calibration,
        "normalized_on": on / calibration,
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", default=BASELINE_PATH,
                        help="baseline JSON path")
    parser.add_argument("--tolerance", type=float, default=0.02,
                        help="allowed telemetry-off slowdown vs baseline "
                             "(default 0.02 = 2%%)")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline from this run")
    args = parser.parse_args(argv)

    result = measure()
    ratio = result["normalized_on"] / result["normalized_off"]
    print(f"synthesized PCI workload ({N_COMMANDS} commands, "
          f"best of {REPEATS}):")
    print(f"  telemetry off: {result['off_seconds'] * 1e3:8.2f} ms "
          f"({result['normalized_off']:.2f} calibration units)")
    print(f"  telemetry on:  {result['on_seconds'] * 1e3:8.2f} ms "
          f"({result['normalized_on']:.2f} calibration units, "
          f"{ratio:.2f}x off)")

    if args.update:
        with open(args.baseline, "w") as handle:
            json.dump(result, handle, indent=2)
            handle.write("\n")
        print(f"baseline updated: {args.baseline}")
        return 0

    if not os.path.exists(args.baseline):
        print(f"no baseline at {args.baseline}; run with --update first",
              file=sys.stderr)
        return 1
    with open(args.baseline) as handle:
        baseline = json.load(handle)
    reference = baseline["normalized_off"]
    limit = reference * (1.0 + args.tolerance)
    print(f"  baseline off: {reference:.2f} units, "
          f"limit {limit:.2f} (+{args.tolerance:.0%})")
    if result["normalized_off"] > limit:
        print("FAIL: telemetry-off hot path regressed "
              f"({result['normalized_off']:.2f} > {limit:.2f})",
              file=sys.stderr)
        return 1
    print("OK: telemetry-off cost within tolerance of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
