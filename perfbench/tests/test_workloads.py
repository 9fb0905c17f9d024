"""Tiny-size passes over each workload: failures are counted, not dropped."""

import functools

import pytest

from perfbench import run
from perfbench.workloads import FaultCampaign, SparseSim, SwapMatrix

SEED = 7


def tiny(workload):
    return run.Bench(workload, SEED, 2)


class TestSwapMatrix:
    def test_consistent_sweep_passes(self):
        bench = tiny(SwapMatrix(n_commands=3))
        __, outcome, __ = bench.iterate(0)
        assert outcome.attempted == 12
        assert (bench.attempted, bench.failed) == (12, 0)
        assert len(outcome.latencies_ms) == 12
        assert set(outcome.cell_cycles) == set(outcome.digest["cells"])

    def test_wrong_reference_counts_every_cell(self, monkeypatch):
        from repro.core.workload import generate_workload
        from repro.flow import platforms

        original = platforms.build_functional_platform

        def wrong_reference(workloads, config=None, label="functional"):
            other = [generate_workload(SEED + 1, 3, address_span=0x400)]
            return original(other, config, label)

        monkeypatch.setattr(platforms, "build_functional_platform", wrong_reference)
        bench = tiny(SwapMatrix(n_commands=3))
        bench.iterate(0)
        assert (bench.attempted, bench.failed) == (12, 12)
        assert len(bench.problems) == 12


class TestFaultCampaign:
    def test_campaign_passes(self):
        bench = tiny(FaultCampaign(runs=6))
        __, outcome, __ = bench.iterate(0)
        assert outcome.attempted == 6
        assert bench.failed == 0
        # One latency per run after the first.
        assert len(outcome.latencies_ms) == 5
        assert sum(outcome.digest["classifications"].values()) == 6

    def test_worker_errors_count_as_failures(self):
        bench = tiny(FaultCampaign(runs=6))
        bench.cases[0].crash_run_ids = (0, 3)
        bench.iterate(0)
        assert (bench.attempted, bench.failed) == (6, 2)
        assert all("worker_error" in problem for problem in bench.problems)


class TestSparseSim:
    def test_matches_functional_reference(self):
        bench = tiny(SparseSim(commands=3))
        __, outcome, __ = bench.iterate(0)
        assert (bench.attempted, bench.failed) == (1, 0)
        assert outcome.digest["transactions"] == 9

    def test_wrong_memory_reference_is_a_failure(self):
        bench = tiny(SparseSim(commands=3))
        bench.cases[0].image[0] ^= 1
        bench.iterate(0)
        assert (bench.attempted, bench.failed) == (1, 1)
        assert "memory image differs in 1 words" in bench.problems[0]

    def test_wrong_trace_reference_is_a_failure(self):
        bench = tiny(SparseSim(commands=3))
        case = bench.cases[1]
        case.traces = {name: trace[:-1] for name, trace in case.traces.items()}
        bench.iterate(1)
        assert bench.failed == 1
        assert "traces differ" in bench.problems[0]

    def test_changed_simulated_statistics_fail_the_iteration(self):
        bench = tiny(SparseSim(commands=3))
        bench.iterate(0)
        bench.iterate(0)
        assert bench.failed == 0
        sha, summary = bench.digests[0]
        bench.digests[0] = ("0" * 64, summary)
        bench.iterate(0)
        assert (bench.attempted, bench.failed) == (3, 1)


def test_cases_cover_distinct_inputs():
    from perfbench.workloads import case_seeds

    seeds = case_seeds(SEED, 8)
    assert seeds[0] == SEED
    assert len(set(seeds)) == 8


def test_host_scales_use_the_calibrations_around_each_iteration():
    ref = run.REFERENCE_CALIBRATION_S
    assert run.host_scales([ref, ref, 3 * ref]) == [1.0, 0.5]


def test_case_count_follows_seconds():
    assert run.case_count(SwapMatrix(), 12) == 8
    assert run.case_count(SparseSim(), 12) == 24
    assert run.case_count(SparseSim(), 0.1) == 2


@pytest.mark.parametrize(
    "factory",
    [
        functools.partial(SwapMatrix, n_commands=2),
        functools.partial(FaultCampaign, runs=6),
        functools.partial(SparseSim, commands=2),
    ],
    ids=["swap_matrix", "fault_campaign", "sparse_sim"],
)
def test_end_to_end_metrics_are_the_catalogued_ones(factory):
    catalogue = run._metric_catalogue()
    bench = tiny(factory())
    bench.iterate(0)
    bench.measure(trace=False)
    values, tail = run.end_to_end_metrics(bench, [1.0], [0.06, 0.06])
    assert set(values) == {metric["name"] for metric in catalogue["end_to_end"]}
    assert all(value > 0 for value in values.values())
    per_iteration = bench.workload.tail_per_iteration
    assert tail.samples == (
        len(bench.latencies_ms[0]) if per_iteration
        else sum(len(ms) for ms in bench.latencies_ms)
    )
    assert values["setup_s"] == 1.0
    assert len(bench.calibrations) == 3
