"""The shared subscriber base and the emitter-paired transaction stream."""

import pytest

from repro.core import generate_workload
from repro.errors import SimulationError
from repro.flow import build_platform
from repro.instrument import MetricsCollector, ProbeBus
from repro.iface.matrix import DEFAULT_BUSES, LEVELS
from repro.instrument.probes import PROBE_KINDS
from repro.kernel import MS
from repro.resilience import RecoveryLog
from repro.synthesis.tool import SynthesisConfig
from repro.telemetry import FlightRecorder, ScorecardProbe
from repro.trace import SpanTracer
from repro.trace.spans import BUS, WIRE


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


#: Monitors that reconstruct transactions from the wires and emit only
#: an end: they are counted, never paired.
_END_ONLY_MONITORS = {"wishbone", "axi4lite"}


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("bus", DEFAULT_BUSES)
def test_subscribers_agree_on_one_run(bus, level):
    """Metrics, scorecard and spans read one pairing: the emitter's."""
    workload = generate_workload(
        seed=55, n_commands=25, address_span=0x400, max_burst=4
    )
    bundle = build_platform(
        [workload],
        bus=bus,
        synthesize=level != "functional",
        synthesis_config=(
            None if level == "functional"
            else SynthesisConfig(backend=(
                "compiled" if level == "compiled" else "interpreted"
            ))
        ),
    )
    probes = bundle.handle.sim.probes
    metrics = MetricsCollector().attach(probes)
    scorecard = ScorecardProbe().attach(probes)
    tracer = SpanTracer(causal=False).attach(probes)
    bundle.run(200 * MS)
    tracer.finalize()

    spans_by_source: dict = {}
    for top in [*tracer.roots.values(), *tracer.orphans]:
        for span in top.walk():
            if span.category in (BUS, WIRE):
                spans_by_source.setdefault(span.source, []).append(span)
    assert set(spans_by_source) == set(metrics.transactions.counts)
    paired_total = 0
    for source, ends in metrics.transactions.counts.items():
        digest = metrics.transaction_times.get(source)
        record = scorecard._sources.get(source)
        spans = spans_by_source[source]
        paired = digest.count if digest is not None else 0
        latency = digest.total if digest is not None else 0
        assert paired == (record[0] if record is not None else 0), source
        assert latency == (record[1].total if record is not None else 0)
        assert len(spans) == ends
        assert sum(span.duration for span in spans) == latency, source
        assert paired in (0, ends), source
        if source == getattr(bundle.monitor, "path", None) and (
            bus in _END_ONLY_MONITORS
        ):
            assert paired == 0 and latency == 0, source
        paired_total += paired
    assert paired_total > 0
