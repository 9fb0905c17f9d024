"""CI guard: the recovery stack must cost nothing when it is off.

Runs the synthesized PCI platform over a generated workload twice —
once with no resilience configuration (the shipping default: no retry
policies, no protocol replay, parity checking off) and once with the
full stack armed (:class:`~repro.resilience.ResilienceConfig.default`)
— and compares the *off* path against the checked-in baseline
``benchmarks/resilience_overhead_baseline.json``.

The gated metric is not wall-clock time (which swings far more than 2%
on a loaded host) but the number of Python- and C-level function calls
executed during the simulation, counted with :func:`sys.setprofile`.
The simulation is deterministic, so the count is exact run-to-run: the
comparison never flakes, and any real work added to the recovery-off
hot path — an extra method call, a policy lookup, a probe hook — moves
it immediately.  Wall-clock numbers are still printed for context.

The off-path tolerance is tight (2%) on purpose: with no
``ResilienceConfig`` the only code recovery adds to the hot path is the
``self.recovery is None`` fast-path branch in the dispatchers and the
empty ``retry_policies`` dict lookup guard in ``GlobalObject.call``,
and this bench exists to keep it that way.

Usage::

    python benchmarks/bench_resilience_overhead.py            # compare (CI)
    python benchmarks/bench_resilience_overhead.py --update   # rewrite baseline
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
from repro.flow import PciPlatformConfig, build_platform  # noqa: E402
from repro.kernel import MS  # noqa: E402
from repro.resilience import ResilienceConfig  # noqa: E402

BASELINE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "resilience_overhead_baseline.json")
SEED = 55
N_COMMANDS = 60


def _workload():
    return generate_workload(
        seed=SEED, n_commands=N_COMMANDS, address_span=0x400,
        max_burst=4, partial_byte_enable_fraction=0.2,
    )


def _platform_run(armed: bool) -> "tuple[int, float]":
    """One synthesized-PCI run; returns (function calls, wall seconds)."""
    config = PciPlatformConfig(
        resilience=ResilienceConfig.default(SEED) if armed else None,
    )
    bundle = build_platform([_workload()], config, bus="pci", synthesize=True)

    calls = 0

    def _profiler(frame, event, arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    started = time.perf_counter()
    sys.setprofile(_profiler)
    try:
        bundle.run(200 * MS)
    finally:
        sys.setprofile(None)
    elapsed = time.perf_counter() - started

    if armed:
        # A clean run must never replay; arming just adds bookkeeping.
        assert bundle.interface.operations_replayed == 0
    else:
        assert bundle.interface.recovery is None
    for app in bundle.handle.applications:
        assert app.finished
    return calls, elapsed


def measure() -> dict:
    off_calls, off_seconds = _platform_run(False)
    on_calls, on_seconds = _platform_run(True)
    return {
        "workload": {
            "seed": SEED,
            "n_commands": N_COMMANDS,
        },
        "off_calls": off_calls,
        "on_calls": on_calls,
        "off_seconds": off_seconds,
        "on_seconds": on_seconds,
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", default=BASELINE_PATH,
                        help="baseline JSON path")
    parser.add_argument("--tolerance", type=float, default=0.02,
                        help="allowed recovery-off call-count growth vs "
                             "baseline (default 0.02 = 2%%)")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline from this run")
    args = parser.parse_args(argv)

    result = measure()
    ratio = result["on_calls"] / result["off_calls"]
    print(f"synthesized PCI workload ({N_COMMANDS} commands):")
    print(f"  recovery off: {result['off_calls']:9d} calls "
          f"({result['off_seconds'] * 1e3:7.2f} ms)")
    print(f"  recovery on:  {result['on_calls']:9d} calls "
          f"({result['on_seconds'] * 1e3:7.2f} ms, {ratio:.3f}x off)")

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
    reference = baseline["off_calls"]
    limit = int(reference * (1.0 + args.tolerance))
    print(f"  baseline off: {reference:9d} calls, "
          f"limit {limit} (+{args.tolerance:.0%})")
    if result["off_calls"] > limit:
        print("FAIL: recovery-off hot path regressed "
              f"({result['off_calls']} > {limit} calls)",
              file=sys.stderr)
        return 1
    print("OK: recovery-off cost within tolerance of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
