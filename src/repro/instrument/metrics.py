"""Metrics aggregation over the probe bus.

:class:`MetricsCollector` subscribes to every quantitative probe kind
and maintains counters and time histograms per process, per signal, per
channel method and per transaction source — the raw material for the
``python -m repro profile`` tables and for regression assertions in
tests and benchmarks.

Time distributions are :class:`~repro.telemetry.digest.LatencyDigest`
power-of-two digests, the same type the communication scorecards use,
so a p95 printed by the profiler tables and a p95 on a scorecard always
mean the same thing.
"""

from __future__ import annotations

from ..telemetry.digest import LatencyDigest
from .probes import (
    DELTA_BEGIN,
    DETECTION,
    EVENT_NOTIFY,
    FAULT_ACTIVATE,
    FLOW_STAGE,
    METHOD_CALL,
    METHOD_COMPLETE,
    METHOD_GRANT,
    METHOD_GUARD_BLOCK,
    METHOD_QUEUE,
    PROCESS_ACTIVATE,
    SIGNAL_COMMIT,
    TRANSACTION_END,
    ProbeSubscriber,
)


class Counter:
    """A labelled integer counter map (label -> count)."""

    def __init__(self) -> None:
        self.counts: dict[str, int] = {}
        self.total = 0

    def add(self, label: str, amount: int = 1) -> None:
        self.counts[label] = self.counts.get(label, 0) + amount
        self.total += amount

    def top(self, n: int = 10) -> list[tuple[str, int]]:
        return sorted(self.counts.items(), key=lambda kv: (-kv[1], kv[0]))[:n]

    def __getitem__(self, label: str) -> int:
        return self.counts.get(label, 0)

    def __len__(self) -> int:
        return len(self.counts)

    def __repr__(self) -> str:
        return f"Counter(total={self.total}, labels={len(self.counts)})"


class MethodMetrics:
    """Per guarded-method traffic record (one channel + method name)."""

    def __init__(self, channel: str, method: str) -> None:
        self.channel = channel
        self.method = method
        self.calls = 0
        self.queued = 0
        self.grants = 0
        self.completions = 0
        #: Arrival -> grant femtoseconds.
        self.wait_times = LatencyDigest()
        #: Grant -> completion femtoseconds.
        self.service_times = LatencyDigest()
        #: Arrival -> completion femtoseconds.
        self.total_times = LatencyDigest()

    @property
    def key(self) -> str:
        return f"{self.channel}.{self.method}"

    def to_dict(self) -> dict:
        return {
            "channel": self.channel,
            "method": self.method,
            "calls": self.calls,
            "queued": self.queued,
            "grants": self.grants,
            "completions": self.completions,
            "wait": self.wait_times.to_dict(),
            "service": self.service_times.to_dict(),
            "total": self.total_times.to_dict(),
        }


class MetricsCollector(ProbeSubscriber):
    """Counters + digests for everything the probe bus publishes."""

    def __init__(self) -> None:
        self.deltas = 0
        self.events_notified = 0
        self.process_activations = Counter()
        self.signal_commits = Counter()
        self.method_metrics: dict[str, MethodMetrics] = {}
        self.guard_blocks = Counter()
        self.transactions = Counter()
        #: Transaction durations (fs) per source path.
        self.transaction_times: dict[str, LatencyDigest] = {}
        self.fault_activations = Counter()
        self.detections = 0
        self.flow_stages: list[tuple[str, str, float]] = []

    # -- wiring ------------------------------------------------------------

    _SUBSCRIPTIONS = (
        (DELTA_BEGIN, "_on_delta_begin"),
        (EVENT_NOTIFY, "_on_event_notify"),
        (PROCESS_ACTIVATE, "_on_process_activate"),
        (SIGNAL_COMMIT, "_on_signal_commit"),
        (METHOD_CALL, "_on_method_call"),
        (METHOD_QUEUE, "_on_method_queue"),
        (METHOD_GRANT, "_on_method_grant"),
        (METHOD_GUARD_BLOCK, "_on_guard_block"),
        (METHOD_COMPLETE, "_on_method_complete"),
        (TRANSACTION_END, "_on_transaction_end"),
        (FAULT_ACTIVATE, "_on_fault_activate"),
        (DETECTION, "_on_detection"),
        (FLOW_STAGE, "_on_flow_stage"),
    )

    # -- handlers ------------------------------------------------------------

    def _on_delta_begin(self, time: int, delta_index: int) -> None:
        self.deltas += 1

    def _on_event_notify(
        self, time: int, event: object, cause: object = None
    ) -> None:
        self.events_notified += 1

    def _on_process_activate(
        self, time: int, process: object, cause: object = None
    ) -> None:
        self.process_activations.add(getattr(process, "name", repr(process)))

    def _on_signal_commit(self, time: int, signal: object, value: object) -> None:
        self.signal_commits.add(getattr(signal, "name", repr(signal)))

    def _method(self, space: object, method: str) -> MethodMetrics:
        channel = getattr(space, "name", repr(space))
        key = f"{channel}.{method}"
        record = self.method_metrics.get(key)
        if record is None:
            record = self.method_metrics[key] = MethodMetrics(channel, method)
        return record

    def _on_method_call(self, time: int, space: object, request: object) -> None:
        self._method(space, request.method).calls += 1

    def _on_method_queue(self, time: int, space: object, request: object) -> None:
        self._method(space, request.method).queued += 1

    def _on_method_grant(self, time: int, space: object, request: object) -> None:
        record = self._method(space, request.method)
        record.grants += 1
        grant_time = getattr(request, "grant_time", None)
        arrival = getattr(request, "arrival_time", None)
        if grant_time is not None and arrival is not None:
            record.wait_times.add(grant_time - arrival)

    def _on_guard_block(self, time: int, space: object, requests: object) -> None:
        self.guard_blocks.add(getattr(space, "name", repr(space)))

    def _on_method_complete(self, time: int, space: object, request: object) -> None:
        record = self._method(space, request.method)
        record.completions += 1
        arrival = getattr(request, "arrival_time", None)
        grant = getattr(request, "grant_time", None)
        complete = getattr(request, "complete_time", None)
        if complete is None:
            complete = time
        if grant is not None:
            record.service_times.add(complete - grant)
        if arrival is not None:
            record.total_times.add(complete - arrival)

    def _on_transaction_end(
        self, time: int, source: str, payload: object, begin: int | None
    ) -> None:
        self.transactions.add(source)
        if begin is not None:
            digest = self.transaction_times.get(source)
            if digest is None:
                digest = self.transaction_times[source] = LatencyDigest()
            digest.add(time - begin)

    def _on_fault_activate(self, time: int, fault: object) -> None:
        self.fault_activations.add(getattr(fault, "kind", repr(fault)))

    def _on_detection(self, record: object) -> None:
        self.detections += 1

    def _on_flow_stage(self, name: str, status: str, wall_seconds: float) -> None:
        self.flow_stages.append((name, status, wall_seconds))

    # -- reporting ------------------------------------------------------------

    def method_rows(self) -> list[MethodMetrics]:
        """Method records sorted by call count (descending)."""
        return sorted(
            self.method_metrics.values(),
            key=lambda record: (-record.calls, record.key),
        )

    def to_dict(self) -> dict:
        return {
            "deltas": self.deltas,
            "events_notified": self.events_notified,
            "process_activations": dict(self.process_activations.counts),
            "signal_commits": dict(self.signal_commits.counts),
            "methods": [record.to_dict() for record in self.method_rows()],
            "guard_blocks": dict(self.guard_blocks.counts),
            "transactions": dict(self.transactions.counts),
            "transaction_times": {
                source: digest.to_dict()
                for source, digest in sorted(self.transaction_times.items())
            },
            "fault_activations": dict(self.fault_activations.counts),
            "detections": self.detections,
            "flow_stages": [
                {"name": name, "status": status, "seconds": seconds}
                for name, status, seconds in self.flow_stages
            ],
        }
