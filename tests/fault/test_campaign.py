"""Tests for golden planning and single-run classification.

These run real (small) platforms, so each test costs a platform build
plus one or two bounded simulations.
"""

import pytest

from repro.fault import (
    BENIGN,
    DETECTED,
    SILENT,
    CampaignSpec,
    FaultSpec,
    RunOutcome,
    RunSpec,
    classify_counts,
    detection_coverage,
    execute_run,
    injectable_targets,
    build_campaign_platform,
    plan_campaign,
    run_golden,
)


def _spec(faults, **kwargs):
    kwargs.setdefault("platform", "pci")
    kwargs.setdefault("n_apps", 2)
    kwargs.setdefault("commands_per_app", 4)
    return CampaignSpec("campaign-test", faults, **kwargs)


@pytest.fixture(scope="module")
def golden_and_horizon():
    spec = _spec([FaultSpec("stuck_at", "top.bus.devsel_n")])
    golden = run_golden(spec)
    return spec, golden


class TestPlanning:
    def test_golden_reference_is_populated(self, golden_and_horizon):
        __, golden = golden_and_horizon
        assert golden.horizon > 0
        assert sum(len(t) for t in golden.traces.values()) == 8
        assert len(golden.image) > 0

    def test_injectable_targets_cover_bus_and_channel(self):
        spec = _spec([FaultSpec("stuck_at", "top.bus.devsel_n")])
        bundle = build_campaign_platform(spec)
        signal_paths, channel_paths = injectable_targets(bundle)
        assert "top.bus.ad" in signal_paths
        assert "top.interface.channel" in channel_paths

    def test_plan_expands_against_probe_build(self):
        spec = _spec([
            FaultSpec("stuck_at", "top.bus.devsel_n", repeats=2,
                      params={"value": 1}),
            FaultSpec("delayed_grant", "top.interface.channel"),
        ])
        golden, runs = plan_campaign(spec)
        assert len(runs) == 3
        assert {r.kind for r in runs} == {"stuck_at", "delayed_grant"}


class TestClassification:
    def _run(self, spec, kind, target, window, params):
        golden = run_golden(spec)
        run = RunSpec(0, kind, target, window, params)
        return execute_run(spec, run, golden)

    def test_post_horizon_fault_is_benign(self, golden_and_horizon):
        spec, golden = golden_and_horizon
        run = RunSpec(
            0, "stuck_at", "top.bus.devsel_n",
            (golden.horizon * 2, golden.horizon * 2 + 1000),
            {"value": 1},
        )
        outcome = execute_run(spec, run, golden)
        assert outcome.classification == BENIGN
        assert outcome.detail == "fault never activated"

    def test_stuck_devsel_mid_transaction_is_detected(
        self, golden_and_horizon
    ):
        # DEVSEL# dies while the target is already transferring: the
        # monitor sees TRDY# asserted without DEVSEL#.
        spec, golden = golden_and_horizon
        run = RunSpec(
            0, "stuck_at", "top.bus.devsel_n",
            (golden.horizon // 10, golden.horizon), {"value": 1},
        )
        outcome = execute_run(spec, run, golden)
        assert outcome.classification == DETECTED
        assert "DEVSEL" in outcome.detail

    def test_stuck_devsel_from_reset_is_silent(self, golden_and_horizon):
        # Stuck before any transaction starts, the target is never
        # selected: masters abort quietly and no monitor rule fires —
        # a genuine coverage gap the campaign is meant to expose.
        spec, golden = golden_and_horizon
        run = RunSpec(
            0, "stuck_at", "top.bus.devsel_n", (0, golden.horizon),
            {"value": 1},
        )
        outcome = execute_run(spec, run, golden)
        assert outcome.classification == SILENT
        assert outcome.detections == 0

    def test_corrupted_write_data_is_silent(self):
        # All-write workload: the first put_command carries data, the
        # corruption lands in memory, and nothing on the platform
        # checks payload integrity end to end.
        spec = _spec(
            [FaultSpec("command_corruption", "top.interface.channel")],
            write_fraction=1.0,
        )
        golden = run_golden(spec)
        run = RunSpec(
            0, "command_corruption", "top.interface.channel",
            (0, golden.horizon), {"field": "data", "mask": 0xFF00},
        )
        outcome = execute_run(spec, run, golden)
        assert outcome.classification == SILENT
        assert "diverge" in outcome.detail
        assert outcome.activations == 1

    def test_dropped_command_trips_the_watchdog(self, golden_and_horizon):
        spec, golden = golden_and_horizon
        run = RunSpec(
            0, "dropped_request", "top.interface.channel",
            (0, golden.horizon), {"method": "put_command"},
        )
        outcome = execute_run(spec, run, golden)
        assert outcome.classification == DETECTED
        assert "deadlock watchdog" in outcome.detail

    def test_outcome_to_dict_roundtrips_window(self, golden_and_horizon):
        spec, golden = golden_and_horizon
        run = RunSpec(
            7, "stuck_at", "top.bus.devsel_n",
            (golden.horizon * 2, golden.horizon * 2 + 1000),
            {"value": 1},
        )
        data = execute_run(spec, run, golden).to_dict()
        assert data["run_id"] == 7
        assert data["window"] == [golden.horizon * 2,
                                  golden.horizon * 2 + 1000]
        assert data["classification"] == BENIGN


class TestProbeBusCost:
    """A run with no observers classifies off the simulator's own log."""

    def _built_sim(self, monkeypatch, spec, golden, window):
        from repro.fault import campaign

        built = []

        def capture(run_spec):
            bundle = build_campaign_platform(run_spec)
            built.append(bundle.handle.sim)
            return bundle

        monkeypatch.setattr(campaign, "build_campaign_platform", capture)
        run = RunSpec(0, "stuck_at", "top.bus.devsel_n", window,
                      {"value": 1})
        outcome = execute_run(spec, run, golden)
        return built[0], outcome

    def test_default_run_never_creates_a_probe_bus(
        self, monkeypatch, golden_and_horizon
    ):
        spec, golden = golden_and_horizon
        sim, outcome = self._built_sim(
            monkeypatch, spec, golden, (golden.horizon // 10, golden.horizon)
        )
        assert sim._probes is None
        assert outcome.classification == DETECTED
        assert outcome.detections == len(sim.detections) > 0

    def test_span_tracing_still_attaches_a_bus(self, monkeypatch):
        spec = _spec(
            [FaultSpec("stuck_at", "top.bus.devsel_n")], trace_spans=True
        )
        golden = run_golden(spec)
        sim, outcome = self._built_sim(
            monkeypatch, spec, golden, (golden.horizon // 10, golden.horizon)
        )
        assert sim._probes is not None
        assert outcome.spans_assembled > 0


class TestCounting:
    def _outcomes(self, classifications):
        return [
            RunOutcome(i, "stuck_at", "x", None, c)
            for i, c in enumerate(classifications)
        ]

    def test_classify_counts(self):
        counts = classify_counts(
            self._outcomes([DETECTED, DETECTED, SILENT, BENIGN])
        )
        assert counts[DETECTED] == 2
        assert counts[SILENT] == 1
        assert counts[BENIGN] == 1
        assert counts["error"] == 0

    def test_coverage_ignores_benign(self):
        coverage = detection_coverage(
            self._outcomes([DETECTED, SILENT, SILENT, BENIGN, BENIGN])
        )
        assert coverage == pytest.approx(1 / 3)

    def test_coverage_none_without_effective_faults(self):
        assert detection_coverage(self._outcomes([BENIGN, BENIGN])) is None
