"""Fault campaigns must classify identically under both backends.

A compiled channel that changed any run's classification would mean the
backends are not observably equivalent under faults — the third leg of
the equivalence gate. Campaigns always build interpreted channels; the
compiled side is reached by swapping the campaign's PCI platform builder
for one that passes a compiled ``SynthesisConfig``.
"""

import functools

from repro.compile import CompiledChannel
from repro.fault import campaign
from repro.fault.campaign import build_campaign_platform
from repro.fault.runner import run_campaign
from repro.fault.spec import demo_campaign_spec
from repro.flow.platforms import build_platform
from repro.synthesis.tool import SynthesisConfig


def _spec(runs=8):
    spec = demo_campaign_spec(platform="pci", seed=11, runs=runs)
    spec.synthesize = True
    return spec


def _outcome_rows(result):
    return [
        (o.run_id, o.kind, o.target_path, o.window, o.classification,
         o.detail, o.activations, o.detections)
        for o in result.outcomes
    ]


class TestCampaignPlatform:
    def test_interpreted_spec_builds_interpreted_channel(self):
        bundle = build_campaign_platform(_spec())
        channel = bundle.synthesis.groups[0].channel
        assert not isinstance(channel, CompiledChannel)


class TestClassificationParity:
    def test_serial_campaigns_classify_identically(self, monkeypatch):
        a = run_campaign(_spec(), workers=1, max_runs=8)
        monkeypatch.setitem(
            campaign._BUILDERS, "pci",
            functools.partial(
                build_platform, bus="pci",
                synthesis_config=SynthesisConfig(backend="compiled"),
            ),
        )
        channel = build_campaign_platform(_spec()).synthesis.groups[0].channel
        assert isinstance(channel, CompiledChannel)
        b = run_campaign(_spec(), workers=1, max_runs=8)
        assert _outcome_rows(a) == _outcome_rows(b)
        assert len(a.outcomes) == 6  # one run per demo fault line
        # The campaign must have produced at least one non-benign run,
        # otherwise the parity above is vacuous.
        assert any(
            o.classification != "benign" for o in a.outcomes
        )
