#!/usr/bin/env python3
"""Steadiness check and baseline recorder for the benchmark.

Runs ``perfbench/run.py`` once per seed and workload, one process at a
time, and reports for every end-to-end metric its median, quartiles and
spread (quartile distance as a share of the median) against a third of
the metric's bound in ``BENCHMARK.json``. It also checks that each
case's simulated-statistics digest is identical in every run that
covers it. Example, from the repository root::

    python3 perfbench/baseline.py --seeds 55,7,8,9,10 --workloads sparse_sim

With ``--write`` it records the result, one traced run's per-layer
table per workload (at the first seed), the digests, the host and the
per-layer targets in ``perfbench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from perfbench import stats  # noqa: E402

#: Which end-to-end metric each per-layer metric should move, on which
#: workload, written down before measuring (metric name prefix ->
#: prediction). Later changes cite these by name.
TARGETS = {
    "kernel.host_us_per_cycle": (
        "moves sim_cycles_per_s on sparse_sim almost 1:1, runs_per_s on "
        "swap_matrix (most of a sweep) and fault_campaign (most of a "
        "campaign); should not move setup_s"
    ),
    "kernel.deltas_per_cycle": (
        "cost per count explains kernel.host_us_per_cycle; a kernel/hdl "
        "change moves it most on sparse_sim, least on swap_matrix"
    ),
    "kernel.activations_per_cycle": "as kernel.deltas_per_cycle",
    "hdl.commits_per_cycle": "as kernel.deltas_per_cycle",
    "flow.build_ms": (
        "moves runs_per_s on fault_campaign and swap_matrix; should not "
        "move sparse_sim (one build per simulation, about 1% of it)"
    ),
    "synthesis.": (
        "a netlist content cache moves runs_per_s on fault_campaign "
        "(repeat_fraction ~1); swap_matrix also repeats netlists (all "
        "buses share one channel netlist); sparse_sim does one build"
    ),
    "compile.": "non-zero only on swap_matrix; moves its runs_per_s",
    "fault.": "moves runs_per_s, run_ms_p50 and run_ms_tail on fault_campaign",
    "verify.check_ms": "moves runs_per_s on swap_matrix only",
    "trace.correlate_ms": "moves runs_per_s on swap_matrix only",
    "osss.": (
        "simulated statistics: a simulator-only change leaves them "
        "identical; a model or protocol change moves them with host time"
    ),
    "iface.sim_cycles.": "simulated cycles per cell; as osss.*",
    "self_ms.": (
        "host self time per iteration of each layer (span minus the union "
        "of its child spans); the layer a change targets should drop"
    ),
    "bench.trace_overhead": "traced over untraced wall time; not a program metric",
}


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise SystemExit(
            f"{workload} seed {seed}: exit {completed.returncode}\n"
            f"{completed.stderr}"
        )
    result = json.loads(lines[-1])
    result["digests"] = {
        match.group(1): match.group(2)
        for match in re.finditer(r"^digest \S+ case=(\d+) (.*)$",
                                 completed.stdout, re.MULTILINE)
    }
    return result


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="55,1,2,3,4,5,6,7,8,9")
    parser.add_argument("--workloads", default="")
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    seeds = [int(seed) for seed in args.seeds.split(",")]
    workloads = (
        args.workloads.split(",") if args.workloads
        else [workload["name"] for workload in bench["workloads"]]
    )
    record: dict = {
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "commit": _commit(),
        "run_seconds": bench["run_seconds"],
        "seeds": seeds,
        "workloads": {},
        "targets": TARGETS,
    }
    steady = True
    for workload in workloads:
        runs = [_run(workload, seed, bench["run_seconds"], 0) for seed in seeds]
        summary: dict = {"metrics": {}, "digests": {}, "failed": 0}
        print(f"== {workload} ({len(runs)} seeds)")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            values = [run["metrics"][name]["value"] for run in runs]
            q1, q2, q3 = stats.quartiles(values)
            spread = (q3 - q1) / q2 if q2 else 0.0
            limit = metric["bound"] / 3
            ok = name == "setup_s" or spread <= limit
            steady &= ok
            summary["metrics"][name] = {
                "unit": metric["unit"], "median": q2, "q1": q1, "q3": q3,
                "spread": spread, "values": values,
            }
            print(f"  {name:<18} median {q2:12.6g} {metric['unit']:<6} "
                  f"spread {spread:6.3f} (limit {limit:.3f}) "
                  f"{'ok' if ok else 'WIDE'}  "
                  + " ".join(f"{value:.4g}" for value in values))
        for run in runs:
            summary["failed"] += run["failed"]
            for case, digest in run["digests"].items():
                if summary["digests"].setdefault(case, digest) != digest:
                    steady = False
                    print(f"  digest of case {case} differs between runs")
        print(f"  failed {summary['failed']} of "
              f"{sum(run['attempted'] for run in runs)} operations")
        steady &= summary["failed"] == 0
        if args.write:
            traced = _run(workload, seeds[0], bench["run_seconds"], 1)
            summary["per_layer_seed"] = seeds[0]
            summary["per_layer"] = {
                name: entry["value"] for name, entry in traced["metrics"].items()
            }
        record["workloads"][workload] = summary
    if args.write:
        with open(os.path.join(HERE, "baseline.json"), "w") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)
            handle.write("\n")
    print("STEADY" if steady else "NOT STEADY")
    return 0 if steady else 1


def _commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


if __name__ == "__main__":
    sys.exit(main())
