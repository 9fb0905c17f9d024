"""The benchmark's three workloads and the checks on their outputs.

Each workload is closed-loop and single-threaded: one process issues
the next command only after the previous one completed. A workload
turns the benchmark seed into *cases* (inputs derived from the seed;
the program only ever sees those inputs) and runs one case per
iteration, checking every output against a reference. Spreading a
measurement over many cases keeps one seed's figures from riding on
one input's quirks (how many faults stall, how long the bursts are).
"""

from __future__ import annotations

import time
import typing

from repro.core.workload import expected_memory_image, generate_workload
from repro.fault import demo_campaign_spec, run_campaign
from repro.fault.campaign import ERROR, WORKER_ERROR, classify_counts
from repro.flow import platforms
from repro.iface.matrix import run_swap_matrix
from repro.kernel.simtime import MS, NS, US

from .tracing import CYCLE_FS


def case_seeds(seed: int, count: int) -> list[int]:
    """The program seeds of one benchmark seed's *count* cases (the
    first one is the benchmark seed itself)."""
    return [seed + 1000 * index for index in range(count)]


class Outcome:
    """What one iteration did, as the benchmark measures and checks it."""

    def __init__(self, attempted: int, failed: int) -> None:
        self.attempted = attempted
        self.failed = failed
        #: Failure descriptions (never dropped, only counted and shown).
        self.problems: list[str] = []
        #: Host latency of each operation, in ms.
        self.latencies_ms: list[float] = []
        #: Simulated statistics that must repeat exactly for a case.
        self.digest: dict = {}
        #: Simulated cycles of each swap-matrix cell, by cell label.
        self.cell_cycles: dict[str, float] = {}


class SwapMatrix:
    """``run_swap_matrix`` over the program's default buses × levels."""

    name = "swap_matrix"
    #: Name of the span around one traced iteration.
    root = "iface.run_swap_matrix"
    #: Host seconds of one iteration on the reference host.
    nominal_iteration_s = 1.5
    #: Whether run_ms_tail is taken within each iteration (and the median
    #: over iterations reported) instead of over all samples pooled.
    tail_per_iteration = False

    def __init__(self, n_commands: int = 100) -> None:
        self.n_commands = n_commands

    def prepare(self, seed: int, count: int) -> list[int]:
        return case_seeds(seed, count)

    def iterate(self, case: int) -> Outcome:
        report = run_swap_matrix(seed=case, n_commands=self.n_commands)
        problems = [
            f"{cell.label}: {cell.verdict} {cell.error or ''}".strip()
            for cell in report.cells
            if cell.error is not None or not cell.consistent
        ]
        outcome = Outcome(len(report.cells), len(problems))
        outcome.problems = problems
        outcome.latencies_ms = [cell.wall_seconds * 1e3 for cell in report.cells]
        outcome.cell_cycles = {
            cell.label: cell.sim_time / CYCLE_FS for cell in report.cells
        }
        outcome.digest = {
            "cells": {
                cell.label: [
                    cell.verdict, cell.transactions,
                    cell.signature_matches, cell.sim_time,
                ]
                for cell in report.cells
            },
        }
        return outcome


class FaultCampaign:
    """The stock PCI demo campaign with synthesized channels, serial."""

    name = "fault_campaign"
    root = "fault.run_campaign"
    nominal_iteration_s = 1.5
    # Per campaign, the unit a user waits for. Pooled over all campaigns,
    # the eleventh-slowest of ~470 runs is whichever run a host hiccup
    # hit, not a property of the program.
    tail_per_iteration = True

    def __init__(self, runs: int = 60) -> None:
        self.runs = runs

    def prepare(self, seed: int, count: int) -> list:
        specs = []
        for case in case_seeds(seed, count):
            spec = demo_campaign_spec("pci", seed=case, runs=self.runs)
            spec.synthesize = True
            specs.append(spec)
        return specs

    def iterate(self, spec) -> Outcome:
        stamps: list[float] = []
        result = run_campaign(
            spec, workers=1, progress=lambda _: stamps.append(time.perf_counter())
        )
        counts = classify_counts(result.outcomes)
        outcome = Outcome(
            len(result.outcomes), counts[ERROR] + counts[WORKER_ERROR]
        )
        outcome.problems = [
            f"run {run.run_id}: {run.classification} {run.detail}"
            for run in result.outcomes
            if run.classification in (ERROR, WORKER_ERROR)
        ]
        # Latency of a run = gap between consecutive progress callbacks
        # (the first run follows planning and has no predecessor).
        outcome.latencies_ms = [
            (later - earlier) * 1e3 for earlier, later in zip(stamps, stamps[1:])
        ]
        outcome.digest = {
            "classifications": counts,
            "runs": [
                [run.run_id, run.classification, run.sim_time,
                 run.activations, run.detections]
                for run in result.outcomes
            ],
        }
        return outcome


class SparseCase:
    """Inputs and references of one sparse_sim case."""

    def __init__(self, workloads: list, config, traces: dict,
                 image: list[int]) -> None:
        self.workloads = workloads
        self.config = config
        self.traces = traces
        self.image = image


class SparseSim:
    """A synthesized Figure-4 PCI platform whose apps think between
    commands, run to completion: mostly idle clock edges."""

    name = "sparse_sim"
    root = "bench.sparse_sim"
    nominal_iteration_s = 0.5
    tail_per_iteration = False

    #: Applications, each in its own address window so the final memory
    #: image does not depend on how their writes interleave.
    APPS = 3
    SPAN = 0x400
    THINK_TIME = 30 * US
    MAX_TIME = 200 * MS

    def __init__(self, commands: int = 10) -> None:
        self.commands = commands

    def prepare(self, seed: int, count: int) -> list[SparseCase]:
        cases = []
        for case in case_seeds(seed, count):
            workloads = [
                generate_workload(
                    case + app, self.commands,
                    address_base=app * self.SPAN, address_span=self.SPAN,
                )
                for app in range(self.APPS)
            ]
            # The Figure 4 platform: 30 ns PCI clock, one wait state.
            config = platforms.PciPlatformConfig(
                clock_period=30 * NS, wait_states=1,
                app_think_time=self.THINK_TIME,
            )
            reference = platforms.build_platform(workloads, config, bus="functional")
            traces = reference.run(self.MAX_TIME).traces
            image: list[int] = []
            for app, commands in enumerate(workloads):
                image += expected_memory_image(
                    commands, self.SPAN // 4, base=app * self.SPAN
                )
            cases.append(SparseCase(workloads, config, traces, image))
        return cases

    def iterate(self, case: SparseCase) -> Outcome:
        started = time.perf_counter()
        # Looked up on the module at call time, so traced runs see the
        # instrumented builder.
        bundle = platforms.build_platform(
            case.workloads, case.config, bus="pci", synthesize=True
        )
        result = bundle.run(self.MAX_TIME)
        image = bundle.memory.dump(0, len(case.image))
        problems = []
        if result.traces != case.traces:
            problems.append("traces differ from the functional reference")
        if list(image) != case.image:
            differing = sum(1 for a, b in zip(image, case.image) if a != b)
            problems.append(f"memory image differs in {differing} words")
        outcome = Outcome(1, 1 if problems else 0)
        outcome.problems = problems
        outcome.latencies_ms = [(time.perf_counter() - started) * 1e3]
        outcome.digest = {
            "transactions": result.transactions,
            "per_app": {name: len(trace) for name, trace in result.traces.items()},
        }
        return outcome


WORKLOADS: dict[str, typing.Callable[[], typing.Any]] = {
    SwapMatrix.name: SwapMatrix,
    FaultCampaign.name: FaultCampaign,
    SparseSim.name: SparseSim,
}

