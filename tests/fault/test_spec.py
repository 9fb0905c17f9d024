"""Unit tests for campaign declaration and deterministic expansion."""

import pytest

from repro.fault import (
    CampaignSpec,
    FaultInjectionError,
    FaultSpec,
    demo_campaign_spec,
    expand_campaign,
    match_targets,
)
from repro.kernel import NS

SIGNALS = ["top.bus.ad", "top.bus.frame_n", "top.bus.irdy_n", "top.clk"]
CHANNELS = ["top.interface.channel"]
HORIZON = 100_000 * NS


def _spec(faults, **kwargs):
    return CampaignSpec("unit", faults, **kwargs)


class TestDeclarations:
    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultInjectionError, match="unknown fault kind"):
            FaultSpec("cosmic", "top.*")

    def test_zero_repeats_rejected(self):
        with pytest.raises(FaultInjectionError, match="repeats"):
            FaultSpec("stuck_at", "top.*", repeats=0)

    def test_target_kind_derived_from_model(self):
        assert FaultSpec("stuck_at", "x").target_kind == "signal"
        assert FaultSpec("dropped_request", "x").target_kind == "channel"

    def test_unknown_platform_rejected(self):
        with pytest.raises(FaultInjectionError, match="platform"):
            _spec([FaultSpec("stuck_at", "top.*")], platform="vmebus")

    def test_empty_fault_list_rejected(self):
        with pytest.raises(FaultInjectionError, match="at least one"):
            _spec([])

    def test_functional_platform_cannot_synthesize(self):
        with pytest.raises(FaultInjectionError, match="functional"):
            _spec(
                [FaultSpec("delayed_grant", "*")],
                platform="functional", synthesize=True,
            )

    def test_workload_seeds_one_per_app(self):
        spec = _spec([FaultSpec("stuck_at", "x")], seed=7, n_apps=3)
        assert spec.workload_seeds() == [7, 8, 9]

    def test_match_targets_sorted_glob(self):
        assert match_targets("top.bus.*", SIGNALS) == [
            "top.bus.ad", "top.bus.frame_n", "top.bus.irdy_n",
        ]
        assert match_targets("*.clk", SIGNALS) == ["top.clk"]


class TestExpansion:
    def test_glob_times_repeats(self):
        spec = _spec([FaultSpec("bit_flip", "top.bus.*", repeats=3)])
        runs = expand_campaign(spec, SIGNALS, CHANNELS, HORIZON)
        assert len(runs) == 3 * 3
        assert [r.run_id for r in runs] == list(range(9))
        assert {r.target_path for r in runs} == set(SIGNALS) - {"top.clk"}

    def test_channel_faults_match_channel_paths(self):
        spec = _spec([FaultSpec("delayed_grant", "top.interface.*")])
        runs = expand_campaign(spec, SIGNALS, CHANNELS, HORIZON)
        assert [r.target_path for r in runs] == CHANNELS

    def test_empty_match_is_loud(self):
        spec = _spec([FaultSpec("stuck_at", "nothing.*")])
        with pytest.raises(FaultInjectionError, match="matches no"):
            expand_campaign(spec, SIGNALS, CHANNELS, HORIZON)

    def test_expansion_is_deterministic(self):
        def expand():
            spec = _spec(
                [
                    FaultSpec("bit_flip", "top.bus.ad", repeats=4,
                              params={"bit": None}),
                    FaultSpec("glitch", "top.bus.frame_n", repeats=4,
                              params={"value": 0}),
                ],
                seed=23,
            )
            return expand_campaign(spec, SIGNALS, CHANNELS, HORIZON)

        first, second = expand(), expand()
        assert [(r.kind, r.target_path, r.window, r.params) for r in first] \
            == [(r.kind, r.target_path, r.window, r.params) for r in second]

    def test_appending_a_line_never_perturbs_earlier_draws(self):
        line = FaultSpec("bit_flip", "top.bus.ad", repeats=4,
                         params={"bit": None})
        alone = expand_campaign(_spec([line]), SIGNALS, CHANNELS, HORIZON)
        extended = expand_campaign(
            _spec([line, FaultSpec("delayed_grant", "*.channel")]),
            SIGNALS, CHANNELS, HORIZON,
        )
        assert [(r.window, r.params) for r in alone] \
            == [(r.window, r.params) for r in extended[:4]]

    def test_drawn_windows_cover_past_horizon(self):
        spec = _spec(
            [FaultSpec("stuck_at", "top.bus.ad", repeats=64,
                       params={"value": 0})],
            seed=5,
        )
        runs = expand_campaign(spec, SIGNALS, CHANNELS, HORIZON)
        starts = [r.window[0] for r in runs]
        assert all(0 <= s < (3 * HORIZON) // 2 for s in starts)
        # Some runs must deliberately land after traffic has drained.
        assert any(s >= HORIZON for s in starts)
        assert all(r.window[1] > r.window[0] for r in runs)

    def test_fixed_window_honoured(self):
        window = (5 * NS, 25 * NS)
        spec = _spec([FaultSpec("stuck_at", "top.clk", window=window)])
        runs = expand_campaign(spec, SIGNALS, CHANNELS, HORIZON)
        assert runs[0].window == window

    def test_unset_bit_drawn_set_bit_kept(self):
        spec = _spec([
            FaultSpec("bit_flip", "top.bus.ad", params={"bit": None}),
            FaultSpec("bit_flip", "top.clk", params={"bit": 9}),
        ])
        drawn, fixed = expand_campaign(spec, SIGNALS, CHANNELS, HORIZON)
        assert 0 <= drawn.params["bit"] < 32
        assert fixed.params["bit"] == 9


class TestDemoSpec:
    def test_pci_demo_shape(self):
        spec = demo_campaign_spec("pci", seed=3, runs=60)
        assert spec.platform == "pci"
        assert spec.seed == 3
        assert len(spec.faults) == 6
        assert all(f.repeats == 10 for f in spec.faults)
        kinds = {f.kind for f in spec.faults}
        assert {"bit_flip", "glitch", "stuck_at", "command_corruption",
                "dropped_request", "delayed_grant"} == kinds

    def test_functional_demo_has_no_pin_lines(self):
        spec = demo_campaign_spec("functional")
        assert {f.target_kind for f in spec.faults} == {"channel"}
        assert spec.think_time == 0
