"""CI guard: span tracing must cost nothing when it is off.

Runs the synthesized PCI platform over a generated workload twice —
once with no probe bus attached (the shipping configuration) and once
with a :class:`~repro.trace.SpanTracer` assembling span trees — and
compares the *off* path against the checked-in calibrated baseline
``benchmarks/span_overhead_baseline.json``.

As in ``instrument_smoke``, wall-clock time is normalized by a
pure-Python calibration loop timed on the same host, which makes the
stored "workload costs K calibration units" number comparable across
runs. The off-path tolerance is deliberately tight (2%): the only code
the tracer adds to the uninstrumented simulation is one ``is None``
check per notification/wake, and this bench exists to keep it that way.

Usage::

    python benchmarks/bench_span_overhead.py            # compare (CI mode)
    python benchmarks/bench_span_overhead.py --update   # rewrite baseline
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
from repro.trace import SpanTracer, attribute  # noqa: E402

BASELINE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "span_overhead_baseline.json")
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


def _platform_run(traced: bool) -> float:
    """One synthesized-PCI run; returns wall seconds of the simulation."""
    bundle = build_platform([_workload()], bus="pci", synthesize=True)
    tracer = None
    if traced:
        tracer = SpanTracer().attach(bundle.handle.sim.probes)
    started = time.perf_counter()
    bundle.run(200 * MS)
    elapsed = time.perf_counter() - started
    if tracer is not None:
        report = attribute(tracer.finalize())
        assert len(report) == N_COMMANDS, (
            f"expected {N_COMMANDS} assembled transactions, got {len(report)}"
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
                        help="allowed tracing-off slowdown vs baseline "
                             "(default 0.02 = 2%%)")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline from this run")
    args = parser.parse_args(argv)

    result = measure()
    ratio = result["normalized_on"] / result["normalized_off"]
    print(f"synthesized PCI workload ({N_COMMANDS} commands, "
          f"best of {REPEATS}):")
    print(f"  tracing off: {result['off_seconds'] * 1e3:8.2f} ms "
          f"({result['normalized_off']:.2f} calibration units)")
    print(f"  tracing on:  {result['on_seconds'] * 1e3:8.2f} ms "
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
        print("FAIL: tracing-off hot path regressed "
              f"({result['normalized_off']:.2f} > {limit:.2f})",
              file=sys.stderr)
        return 1
    print("OK: tracing-off cost within tolerance of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
