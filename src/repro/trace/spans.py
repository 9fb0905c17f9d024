"""Causal transaction spans assembled from the probe bus.

A :class:`SpanTracer` subscribes to the ProbeBus and turns the raw probe
stream into per-transaction **span trees**: one root span per
application-level correlation id (threaded by ``Application.perform``
through ``putCommand``/``getCommand``/``appDataGet``), with child spans
for every guarded-method call, every bus-master operation and — matched
after the run by time/address containment, since monitors cannot see
ids through the wires — every monitor-observed wire transaction,
including its protocol phases (DEVSEL# wait, data-transfer window).

Alongside the span store the tracer records the kernel's causal edges
(which process notified the event that woke which process), the raw
material for :func:`critical_path` extraction.

The same tracer works unchanged on the behavioural specification and on
the synthesized RT model, which is what makes cross-refinement trace
correlation (:mod:`repro.trace.correlate`) possible.
"""

from __future__ import annotations

import typing

from ..instrument.probes import (
    EVENT_NOTIFY,
    METHOD_CALL,
    METHOD_COMPLETE,
    METHOD_GRANT,
    METHOD_QUEUE,
    PROCESS_ACTIVATE,
    TRANSACTION_END,
    ProbeSubscriber,
)
from ..osss.request import correlation_id_of

#: Span categories, outermost to innermost.
TRANSACTION = "transaction"
METHOD = "method"
BUS = "bus"
WIRE = "wire"
PHASE = "phase"

#: Causal-edge records kept before the tracer starts dropping (bounds
#: memory on very long runs; the critical path degrades gracefully).
MAX_CAUSAL_EDGES = 200_000


class Span:
    """One timed interval in a transaction's journey.

    :param name: short label (method name, bus command, phase name).
    :param category: one of the module's category constants.
    :param start_time: femtosecond start.
    :param source: hierarchical path of the emitting component.
    """

    __slots__ = (
        "name", "category", "start_time", "end_time",
        "corr_id", "txn_id", "source", "meta", "children",
    )

    def __init__(
        self,
        name: str,
        category: str,
        start_time: int,
        source: str = "",
        corr_id: "str | None" = None,
        txn_id: "int | None" = None,
    ) -> None:
        self.name = name
        self.category = category
        self.start_time = start_time
        self.end_time: int | None = None
        self.corr_id = corr_id
        self.txn_id = txn_id
        self.source = source
        self.meta: dict = {}
        self.children: list[Span] = []

    @property
    def duration(self) -> int | None:
        if self.end_time is None:
            return None
        return self.end_time - self.start_time

    @property
    def complete(self) -> bool:
        return self.end_time is not None

    def add_child(self, child: "Span") -> "Span":
        self.children.append(child)
        return child

    def walk(self) -> typing.Iterator["Span"]:
        """This span, then every descendant, depth first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, category: str, name: "str | None" = None) -> "Span | None":
        """Earliest descendant matching *category* (and *name*, if given)."""
        best: Span | None = None
        for span in self.walk():
            if span is self or span.category != category:
                continue
            if name is not None and span.name != name:
                continue
            if best is None or span.start_time < best.start_time:
                best = span
        return best

    def to_dict(self) -> dict:
        record = {
            "name": self.name,
            "category": self.category,
            "start": self.start_time,
            "end": self.end_time,
            "duration": self.duration,
            "source": self.source,
        }
        if self.corr_id is not None:
            record["corr_id"] = self.corr_id
        if self.txn_id is not None:
            record["txn_id"] = self.txn_id
        if self.meta:
            record["meta"] = {
                key: value for key, value in self.meta.items()
                if isinstance(value, (int, float, str, bool, type(None)))
            }
        if self.children:
            record["children"] = [child.to_dict() for child in self.children]
        return record

    def __repr__(self) -> str:
        return (
            f"Span({self.category}:{self.name} "
            f"[{self.start_time}..{self.end_time}])"
        )


class ActivationRecord:
    """One process activation with its resolved notify→wake edge."""

    __slots__ = ("time", "process", "via_event", "notified_by")

    def __init__(
        self,
        time: int,
        process: str,
        via_event: "str | None",
        notified_by: "str | None",
    ) -> None:
        self.time = time
        self.process = process
        self.via_event = via_event
        self.notified_by = notified_by


def _corr_sort_key(corr_id: str) -> tuple:
    path, _, seq = corr_id.rpartition("#")
    try:
        return (path, int(seq))
    except ValueError:
        return (path, 0)


class SpanTracer(ProbeSubscriber):
    """Probe-bus subscriber assembling per-transaction span trees.

    Attach to a bus (``SpanTracer().attach(sim.probes)``), run, then
    call :meth:`finalize` before reading :meth:`transactions`.

    :param causal: also record notify→wake edges for critical-path
        extraction (small per-activation cost while tracing); at most
        :data:`MAX_CAUSAL_EDGES` activation records are kept.
    """

    def __init__(self, causal: bool = True) -> None:
        self.causal = causal
        self.roots: dict[str, Span] = {}
        #: Completed spans with no correlation id (background traffic).
        self.orphans: list[Span] = []
        self.activations: list[ActivationRecord] = []
        self.dropped_causal_edges = 0
        self._open_methods: dict[int, Span] = {}
        self._wire_spans: list[Span] = []
        self._last_notifier: dict[object, str] = {}
        self._finalized = False

    # -- wiring ------------------------------------------------------------

    _SUBSCRIPTIONS = (
        (METHOD_CALL, "_on_method_call"),
        (METHOD_QUEUE, "_on_method_queue"),
        (METHOD_GRANT, "_on_method_grant"),
        (METHOD_COMPLETE, "_on_method_complete"),
        (TRANSACTION_END, "_on_transaction_end"),
    )
    _CAUSAL_SUBSCRIPTIONS = (
        (EVENT_NOTIFY, "_on_event_notify"),
        (PROCESS_ACTIVATE, "_on_process_activate"),
    )

    def subscriptions(self) -> list:
        pairs = self._SUBSCRIPTIONS
        if self.causal:
            pairs += self._CAUSAL_SUBSCRIPTIONS
        return [(kind, getattr(self, handler)) for kind, handler in pairs]

    # -- guarded-method handlers ----------------------------------------------

    def _root_for(self, corr_id: str) -> Span:
        root = self.roots.get(corr_id)
        if root is None:
            root = self.roots[corr_id] = Span(
                corr_id, TRANSACTION, 0, corr_id=corr_id
            )
            root.start_time = -1  # computed from children at finalize
        return root

    def _on_method_call(self, time: int, space: object, request) -> None:
        span = Span(
            request.method,
            METHOD,
            time,
            source=getattr(space, "name", repr(space)),
            corr_id=correlation_id_of(request),
        )
        span.meta["client"] = request.client
        self._open_methods[request.seq] = span

    def _on_method_queue(self, time: int, space: object, request) -> None:
        span = self._open_methods.get(request.seq)
        if span is not None:
            span.meta["queued"] = True

    def _on_method_grant(self, time: int, space: object, request) -> None:
        span = self._open_methods.get(request.seq)
        if span is not None:
            span.meta["grant_time"] = time

    def _on_method_complete(self, time: int, space: object, request) -> None:
        span = self._open_methods.pop(request.seq, None)
        if span is None:
            return
        span.end_time = time
        # The correlation id may only be resolvable now (e.g. the command
        # a get_command call *returned*, or the DataType app_data_get
        # fetched).
        corr_id = span.corr_id or correlation_id_of(request)
        span.corr_id = corr_id
        if corr_id is None:
            self.orphans.append(span)
            return
        root = self._root_for(corr_id)
        root.add_child(span)
        # Observable content for cross-refinement consistency checks.
        if span.name == "put_command":
            for value in request.args:
                if hasattr(value, "signature"):
                    root.meta["command_sig"] = value.signature()
                    break
        elif span.name == "app_data_get" and hasattr(request.result, "signature"):
            root.meta["response_sig"] = request.result.signature()

    # -- transaction handlers ---------------------------------------------------

    @staticmethod
    def _payload_span(time: int, source: str, payload: object) -> Span:
        category = WIRE if hasattr(payload, "terminated_by") else BUS
        name = getattr(payload, "command_name", None) or type(payload).__name__
        span = Span(
            name,
            category,
            time,
            source=source,
            corr_id=getattr(payload, "corr_id", None),
            txn_id=getattr(payload, "txn_id", None),
        )
        address = getattr(payload, "address", None)
        if address is not None:
            span.meta["address"] = address
        count = getattr(payload, "count", None)
        if count is not None:
            span.meta["count"] = count
        return span

    def _on_transaction_end(
        self, time: int, source: str, payload: object, begin: int | None
    ) -> None:
        # A begin-less emission (Wishbone classic cycles terminate in
        # the cycle they are observed) gives a point-like span.
        span = self._payload_span(
            time if begin is None else begin, source, payload
        )
        span.end_time = time
        grant_time = getattr(payload, "grant_time", None)
        if isinstance(grant_time, int):
            span.meta["grant_time"] = grant_time
        if span.category == WIRE:
            span.meta["terminated_by"] = getattr(payload, "terminated_by", None)
            self._add_wire_phases(span, payload)
            self._wire_spans.append(span)
            return
        self._route(span)

    def _route(self, span: Span) -> None:
        if span.corr_id is not None:
            self._root_for(span.corr_id).add_child(span)
        else:
            self.orphans.append(span)

    @staticmethod
    def _add_wire_phases(span: Span, payload: object) -> None:
        """Child spans for the protocol phases a PCI monitor timestamps."""
        devsel = getattr(payload, "devsel_time", None)
        first_data = getattr(payload, "first_data_time", None)
        if devsel is not None:
            phase = Span("devsel_wait", PHASE, span.start_time, span.source)
            phase.end_time = devsel
            span.add_child(phase)
        if first_data is not None and span.end_time is not None:
            phase = Span(
                "data_transfer", PHASE, first_data, span.source
            )
            phase.end_time = span.end_time
            span.add_child(phase)

    # -- causal-edge handlers ---------------------------------------------------

    def _on_event_notify(self, time: int, event: object, cause: object = None) -> None:
        if cause is not None:
            self._last_notifier[event] = getattr(cause, "name", repr(cause))

    def _on_process_activate(
        self, time: int, process: object, cause: object = None
    ) -> None:
        if len(self.activations) >= MAX_CAUSAL_EDGES:
            self.dropped_causal_edges += 1
            return
        via = getattr(cause, "name", None) if cause is not None else None
        notified_by = self._last_notifier.get(cause) if cause is not None else None
        self.activations.append(
            ActivationRecord(
                time, getattr(process, "name", repr(process)), via, notified_by
            )
        )

    # -- finalisation -----------------------------------------------------------

    def finalize(self) -> "SpanTracer":
        """Match wire spans to bus operations, compute root extents."""
        if self._finalized:
            return self
        self._finalized = True
        bus_spans = [
            span
            for root in self.roots.values()
            for span in root.children
            if span.category == BUS and span.complete
        ]
        for wire in self._wire_spans:
            owner = self._match_wire(wire, bus_spans)
            if owner is not None:
                wire.corr_id = owner.corr_id
                owner.add_child(wire)
            else:
                self.orphans.append(wire)
        self._wire_spans = []
        for root in self.roots.values():
            closed = [c for c in root.children if c.complete]
            if closed:
                root.start_time = min(c.start_time for c in closed)
                root.end_time = max(
                    c.end_time for c in closed if c.end_time is not None
                )
        return self

    @staticmethod
    def _match_wire(wire: Span, bus_spans: list[Span]) -> "Span | None":
        """The bus operation a monitor-observed transaction belongs to.

        Monitors see only wires, so the match is by time containment
        (the master drives the bus strictly inside its operation window)
        plus address-range containment (a burst may be split into
        several wire transactions by retries/disconnects).
        """
        address = wire.meta.get("address")
        best: Span | None = None
        for bus_span in bus_spans:
            if bus_span.end_time is None:
                continue
            if not (bus_span.start_time <= wire.start_time <= bus_span.end_time):
                continue
            base = bus_span.meta.get("address")
            count = bus_span.meta.get("count", 1)
            if address is not None and base is not None:
                if not (base <= address < base + 4 * count):
                    continue
            # Prefer the tightest containing window.
            if best is None or bus_span.start_time > best.start_time:
                best = bus_span
        return best

    # -- access ------------------------------------------------------------------

    def transactions(self) -> list[Span]:
        """Finalized root spans, in deterministic (app, sequence) order."""
        self.finalize()
        return [
            self.roots[corr_id]
            for corr_id in sorted(self.roots, key=_corr_sort_key)
        ]

    def complete_transactions(self) -> list[Span]:
        """Roots whose extent could be computed (≥1 closed child)."""
        return [root for root in self.transactions() if root.complete]

    def to_dict(self) -> dict:
        self.finalize()
        return {
            "transactions": [root.to_dict() for root in self.transactions()],
            "orphans": len(self.orphans),
            "causal_edges": len(self.activations),
            "dropped_causal_edges": self.dropped_causal_edges,
        }

    def chrome_events(self) -> list[dict]:
        """The span forest as Chrome trace-event slices (µs timebase)."""
        self.finalize()
        events: list[dict] = []
        for tid, root in enumerate(self.complete_transactions(), start=1):
            for span in root.walk():
                if not span.complete or span.start_time < 0:
                    continue
                events.append(
                    {
                        "name": f"{span.category}:{span.name}",
                        "cat": span.category,
                        "ph": "X",
                        "ts": span.start_time / 1e9,
                        "dur": (span.end_time - span.start_time) / 1e9,
                        "pid": 1,
                        "tid": tid,
                        "args": {
                            "corr_id": span.corr_id,
                            "source": span.source,
                        },
                    }
                )
        return events


class CriticalPath:
    """The notify→wake chain bounding a run's tail latency."""

    def __init__(self, hops: list[ActivationRecord], truncated: bool) -> None:
        self.hops = hops
        self.truncated = truncated

    def __len__(self) -> int:
        return len(self.hops)

    def render(self) -> str:
        if not self.hops:
            return "critical path: no causal edges recorded"
        lines = ["critical path (latest activation backwards):"]
        for hop in self.hops:
            via = f" via {hop.via_event}" if hop.via_event else ""
            src = f" <- {hop.notified_by}" if hop.notified_by else ""
            lines.append(f"  t={hop.time:>12} fs  {hop.process}{via}{src}")
        if self.truncated:
            lines.append("  ... (truncated)")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "hops": [
                {
                    "time": hop.time,
                    "process": hop.process,
                    "via_event": hop.via_event,
                    "notified_by": hop.notified_by,
                }
                for hop in self.hops
            ],
            "truncated": self.truncated,
        }


def critical_path(tracer: SpanTracer, max_hops: int = 20) -> CriticalPath:
    """Walk the recorded notify→wake edges backwards from the end.

    Starting at the last process activation, each hop asks *which
    process notified the event that woke this one* and jumps to that
    process's most recent earlier activation — the chain of causally
    ordered work that bounds end-to-end latency.
    """
    records = tracer.activations
    if not records:
        return CriticalPath([], truncated=False)
    hops: list[ActivationRecord] = []
    index = len(records) - 1
    while index >= 0 and len(hops) < max_hops:
        record = records[index]
        hops.append(record)
        if record.notified_by is None:
            return CriticalPath(hops, truncated=False)
        # The notifier's most recent activation before this one.
        cursor = index - 1
        while cursor >= 0 and records[cursor].process != record.notified_by:
            cursor -= 1
        if cursor < 0:
            return CriticalPath(hops, truncated=False)
        index = cursor
    return CriticalPath(hops, truncated=True)
