"""The shared subscriber base and the one transaction pairing key."""

import pytest

from repro.core import generate_workload
from repro.errors import SimulationError
from repro.flow import build_platform
from repro.instrument import MetricsCollector, ProbeBus
from repro.instrument.probes import PROBE_KINDS, txn_key
from repro.kernel import MS
from repro.resilience import RecoveryLog
from repro.telemetry import FlightRecorder, ScorecardProbe
from repro.trace import SpanTracer
from repro.trace.spans import BUS, WIRE


class _Payload:
    def __init__(self, txn_id=None):
        self.txn_id = txn_id


def _subscribed(bus):
    return {kind: bus.subscribers(kind) for kind in PROBE_KINDS
            if bus.subscribers(kind)}


class TestProbeSubscriber:
    def test_attach_subscribes_every_pair_and_detach_removes_them(self):
        bus = ProbeBus()
        collector = MetricsCollector().attach(bus)
        assert _subscribed(bus) == {
            kind: (getattr(collector, handler),)
            for kind, handler in MetricsCollector._SUBSCRIPTIONS
        }
        collector.detach()
        collector.detach()  # idempotent
        assert _subscribed(bus) == {}

    def test_per_attach_closures_detach_cleanly(self):
        bus = ProbeBus()
        recorder = FlightRecorder(8).attach(bus)
        assert set(_subscribed(bus)) == set(recorder.kinds)
        recorder.detach()
        assert _subscribed(bus) == {}

    def test_recovery_log_rejects_double_attach(self):
        bus = ProbeBus()
        log = RecoveryLog().attach(bus)
        with pytest.raises(SimulationError, match="already attached"):
            log.attach(bus)
        log.detach()
        log.attach(bus)  # re-attach after detach is fine


class TestTxnKey:
    def test_prefers_txn_id(self):
        assert txn_key("top.mon", _Payload(7)) == ("top.mon", 7)
        assert txn_key("top.mon", _Payload(7)) != txn_key("top.x", _Payload(7))

    def test_falls_back_to_identity(self):
        payload = _Payload()
        assert txn_key("top.mon", payload) == ("top.mon", id(payload))


def test_subscribers_agree_on_one_run():
    """Metrics, scorecard and spans pair the same transactions."""
    workload = generate_workload(
        seed=55, n_commands=25, address_span=0x400, max_burst=4
    )
    bundle = build_platform([workload], bus="pci", synthesize=True)
    bus = bundle.handle.sim.probes
    metrics = MetricsCollector().attach(bus)
    scorecard = ScorecardProbe().attach(bus)
    tracer = SpanTracer().attach(bus)
    bundle.run(200 * MS)
    tracer.finalize()

    cell = scorecard.score()
    primary = cell.primary_source
    digest = metrics.transaction_times[primary]
    spans = [
        span
        for top in [*tracer.roots.values(), *tracer.orphans]
        for span in top.walk()
        if span.source == primary and span.category in (BUS, WIRE)
    ]
    assert cell.transactions > 0
    assert digest.count == cell.transactions == len(spans)
    assert digest.total == cell.latency.total == sum(
        span.duration for span in spans
    )
