"""The probe bus: typed publish/subscribe points over a running kernel.

This module is deliberately dependency-free (it imports nothing from the
rest of the package) so the kernel can import it without cycles. The
payloads flowing over the bus are live kernel objects — processes,
signals, requests — never copies; subscribers must treat them as
read-only.

Probe-point catalogue (positional callback signatures):

===================== =========================================================
kind                  callback arguments
===================== =========================================================
``process.activate``  ``(time, process, cause)`` — a process starts one
                      activation; ``cause`` is the :class:`Event` that
                      woke it (``None`` for the initial activation)
``process.suspend``   ``(time, process)`` — the activation returned / waited
``delta.begin``       ``(time, delta_index)`` — a delta cycle starts
``delta.end``         ``(time, delta_index)`` — the delta cycle finished
``event.notify``      ``(time, event, cause)`` — an event triggered its
                      waiters; ``cause`` is the :class:`Process` that
                      requested the notification (``None`` when notified
                      from outside any process context)
``signal.commit``     ``(time, signal, value)`` — a committed value change
``method.call``       ``(time, space, request)`` — guarded call submitted
``method.queue``      ``(time, space, request)`` — the call could not be
                      served immediately (busy server, queue ahead, or a
                      false guard)
``method.grant``      ``(time, space, request)`` — arbiter granted the call
``method.guard_block`` ``(time, space, requests)`` — pending calls exist but
                      no guard is true; the server blocks
``method.complete``   ``(time, space, request)`` — the method body returned
``transaction.begin`` ``(time, source, payload)`` — a bus/TLM transaction
                      opened (``source`` is a hierarchical path string;
                      the payload carries a process-wide unique
                      ``txn_id`` from :func:`new_txn_id`)
``transaction.end``   ``(time, source, payload, begin)`` — the transaction
                      closed; the emitter that opened it passes its own
                      begin time, so subscribers need no pairing.
                      ``begin`` is ``None`` for end-only emitters (the
                      Wishbone and AXI4-Lite monitors), whose
                      transactions are counted but not paired
``flow.stage``        ``(name, status, wall_seconds)`` — a design-flow stage
                      finished (wall-clock, not simulation time)
``fault.activate``    ``(time, fault)`` — an armed fault model perturbed the
                      design
``detection``         ``(record,)`` — a runtime checker fired (a
                      :class:`~repro.kernel.simulator.DetectionRecord`)
``resilience.timeout`` ``(event,)`` — a guarded call or protocol operation
                      blew its deadline (a :class:`ResilienceEvent`)
``resilience.retry``  ``(event,)`` — a recovery layer re-issued the work
``resilience.giveup`` ``(event,)`` — recovery exhausted its attempt budget
``resilience.recovered`` ``(event,)`` — a previously failed call/operation
                      completed after one or more recovery attempts
===================== =========================================================

Hot kernel paths (signal commits, event triggers, the delta loop) call
the dedicated ``ProbeBus`` emit helpers; cold paths use the generic
:meth:`ProbeBus.emit`. Either way, a kind with no subscribers costs one
``None`` check on an instance attribute.
"""

from __future__ import annotations

import itertools
import typing

PROCESS_ACTIVATE = "process.activate"
PROCESS_SUSPEND = "process.suspend"
DELTA_BEGIN = "delta.begin"
DELTA_END = "delta.end"
EVENT_NOTIFY = "event.notify"
SIGNAL_COMMIT = "signal.commit"
METHOD_CALL = "method.call"
METHOD_QUEUE = "method.queue"
METHOD_GRANT = "method.grant"
METHOD_GUARD_BLOCK = "method.guard_block"
METHOD_COMPLETE = "method.complete"
TRANSACTION_BEGIN = "transaction.begin"
TRANSACTION_END = "transaction.end"
FLOW_STAGE = "flow.stage"
FAULT_ACTIVATE = "fault.activate"
DETECTION = "detection"
RESILIENCE_TIMEOUT = "resilience.timeout"
RESILIENCE_RETRY = "resilience.retry"
RESILIENCE_GIVEUP = "resilience.giveup"
RESILIENCE_RECOVERED = "resilience.recovered"

#: Every probe kind the bus understands, in catalogue order.
PROBE_KINDS: tuple[str, ...] = (
    PROCESS_ACTIVATE,
    PROCESS_SUSPEND,
    DELTA_BEGIN,
    DELTA_END,
    EVENT_NOTIFY,
    SIGNAL_COMMIT,
    METHOD_CALL,
    METHOD_QUEUE,
    METHOD_GRANT,
    METHOD_GUARD_BLOCK,
    METHOD_COMPLETE,
    TRANSACTION_BEGIN,
    TRANSACTION_END,
    FLOW_STAGE,
    FAULT_ACTIVATE,
    DETECTION,
    RESILIENCE_TIMEOUT,
    RESILIENCE_RETRY,
    RESILIENCE_GIVEUP,
    RESILIENCE_RECOVERED,
)

#: kind -> name of the per-kind subscriber-tuple attribute on ProbeBus.
_KIND_ATTR: dict[str, str] = {
    kind: "_" + kind.replace(".", "_") for kind in PROBE_KINDS
}

Callback = typing.Callable[..., None]

#: Process-wide transaction-id sequence shared by every emitter of
#: ``transaction.begin``/``transaction.end`` payloads, so ids are unique
#: across buses, TLM channels and abstraction layers within one run.
_txn_ids = itertools.count(1)


def new_txn_id() -> int:
    """Allocate the next process-wide unique transaction id."""
    return next(_txn_ids)


class ProbeError(ValueError):
    """An unknown probe kind was used."""


class ResilienceEvent:
    """Payload of the four ``resilience.*`` probe kinds.

    Lives here (rather than in :mod:`repro.resilience`) so low-level
    emitters — the OSSS call machinery, the bus-interface dispatchers —
    can publish recovery activity without importing the resilience
    package.

    :param kind: one of the ``resilience.*`` probe kind strings.
    :param time: simulation time (fs) of the event.
    :param path: hierarchical path of the recovering entity (a channel
        handle or a bus interface).
    :param method: guarded-method name, or an operation tag like
        ``"mem_write"`` for protocol-level replay.
    :param attempt: 1-based attempt number the event belongs to.
    :param detail: free-form cause ("guard timeout", "master_abort",
        "parity", ...).
    """

    __slots__ = ("kind", "time", "path", "method", "attempt", "detail")

    def __init__(
        self,
        kind: str,
        time: int,
        path: str,
        method: str,
        attempt: int = 1,
        detail: str = "",
    ) -> None:
        self.kind = kind
        self.time = time
        self.path = path
        self.method = method
        self.attempt = attempt
        self.detail = detail

    def __repr__(self) -> str:
        return (
            f"ResilienceEvent({self.kind} {self.path}.{self.method} "
            f"attempt={self.attempt}{' ' + self.detail if self.detail else ''})"
        )


def emit_resilience(
    sim: typing.Any,
    kind: str,
    path: str,
    method: str,
    attempt: int = 1,
    detail: str = "",
) -> None:
    """Publish one ``resilience.*`` event over *sim*'s probe bus (if any).

    *sim* is duck-typed (``_probes`` + ``time``) to keep this module
    import-free; emitters across the OSSS and protocol layers share this
    one helper so payload construction stays behind the null-bus check.
    """
    probes = sim._probes
    if probes is not None:
        probes.emit(
            kind,
            ResilienceEvent(kind, sim.time, path, method, attempt, detail),
        )


class ProbeBus:
    """One instrumentation plane: per-kind subscriber lists.

    Subscribers for each kind are kept as an instance attribute that is
    either ``None`` (no subscribers — the value hot paths test) or an
    immutable tuple of callbacks. Emission iterates over the tuple that
    was current when the probe fired, so a callback may subscribe or
    unsubscribe anything (including itself) mid-emission without
    corrupting the iteration.
    """

    def __init__(self) -> None:
        self._subscribers: dict[str, list[Callback]] = {
            kind: [] for kind in PROBE_KINDS
        }
        for attr in _KIND_ATTR.values():
            setattr(self, attr, None)

    def __repr__(self) -> str:
        active = {
            kind: len(subs)
            for kind, subs in self._subscribers.items()
            if subs
        }
        return f"ProbeBus({active or 'idle'})"

    # -- subscription ------------------------------------------------------

    def _check_kind(self, kind: str) -> None:
        if kind not in self._subscribers:
            raise ProbeError(
                f"unknown probe kind {kind!r}; known: {sorted(self._subscribers)}"
            )

    def _refresh(self, kind: str) -> None:
        subs = self._subscribers[kind]
        setattr(self, _KIND_ATTR[kind], tuple(subs) if subs else None)

    def subscribe(self, kind: str, callback: Callback) -> Callback:
        """Register *callback* for *kind*; returns the callback (token)."""
        self._check_kind(kind)
        self._subscribers[kind].append(callback)
        self._refresh(kind)
        return callback

    def unsubscribe(self, kind: str, callback: Callback) -> None:
        """Remove *callback* from *kind*; idempotent (never raises when
        the callback was not subscribed)."""
        self._check_kind(kind)
        subs = self._subscribers[kind]
        try:
            subs.remove(callback)
        except ValueError:
            return
        self._refresh(kind)

    def subscribers(self, kind: str) -> tuple[Callback, ...]:
        self._check_kind(kind)
        return tuple(self._subscribers[kind])

    def wants(self, kind: str) -> bool:
        """True when at least one subscriber listens to *kind*."""
        self._check_kind(kind)
        return bool(self._subscribers[kind])

    def clear(self) -> None:
        """Drop every subscription."""
        for kind in self._subscribers:
            self._subscribers[kind] = []
            self._refresh(kind)

    # -- emission ------------------------------------------------------------

    def emit(self, kind: str, *args: object) -> None:
        """Generic emission (cold paths); unknown kinds raise."""
        subs = getattr(self, _KIND_ATTR[kind])
        if subs is not None:
            for callback in subs:
                callback(*args)

    # Dedicated helpers for the kernel's hot paths: one attribute load
    # and a None check when the kind is unsubscribed.

    def process_activate(
        self, time: int, process: object, cause: object = None
    ) -> None:
        subs = self._process_activate
        if subs is not None:
            for callback in subs:
                callback(time, process, cause)

    def process_suspend(self, time: int, process: object) -> None:
        subs = self._process_suspend
        if subs is not None:
            for callback in subs:
                callback(time, process)

    def delta_begin(self, time: int, delta_index: int) -> None:
        subs = self._delta_begin
        if subs is not None:
            for callback in subs:
                callback(time, delta_index)

    def delta_end(self, time: int, delta_index: int) -> None:
        subs = self._delta_end
        if subs is not None:
            for callback in subs:
                callback(time, delta_index)

    def event_notify(
        self, time: int, event: object, cause: object = None
    ) -> None:
        subs = self._event_notify
        if subs is not None:
            for callback in subs:
                callback(time, event, cause)

    def signal_commit(self, time: int, signal: object, value: object) -> None:
        subs = self._signal_commit
        if subs is not None:
            for callback in subs:
                callback(time, signal, value)


class ProbeSubscriber:
    """Base of probe-bus subscribers: one generic ``attach``/``detach``.

    Subclasses list their handlers either as a ``_SUBSCRIPTIONS`` tuple
    of ``(kind, method name)`` pairs or by overriding
    :meth:`subscriptions`. The pairs are resolved once at attach time
    and subscribed in order; :meth:`detach` unsubscribes exactly those,
    so handlers built per attach (closures) detach cleanly too.
    """

    _SUBSCRIPTIONS: tuple[tuple[str, str], ...] = ()
    _bus: "ProbeBus | None" = None
    _attached: tuple[tuple[str, Callback], ...] = ()

    def subscriptions(self) -> typing.Iterable[tuple[str, Callback]]:
        """The ``(kind, handler)`` pairs to subscribe, in order."""
        return [
            (kind, getattr(self, handler))
            for kind, handler in self._SUBSCRIPTIONS
        ]

    def attach(self, bus: ProbeBus) -> typing.Self:
        self._attached = tuple(self.subscriptions())
        for kind, handler in self._attached:
            bus.subscribe(kind, handler)
        self._bus = bus
        return self

    def detach(self) -> None:
        if self._bus is None:
            return
        for kind, handler in self._attached:
            self._bus.unsubscribe(kind, handler)
        self._attached = ()
        self._bus = None


# -- process-wide default bus ---------------------------------------------------

#: When set, every subsequently created Simulator attaches to this bus —
#: how ``python -m repro profile`` instruments simulators built deep
#: inside a user script it merely executes.
_DEFAULT_BUS: ProbeBus | None = None


def set_default_bus(bus: ProbeBus | None) -> ProbeBus | None:
    """Install (or clear, with ``None``) the process-wide default bus.

    Returns the previous default so callers can restore it.
    """
    global _DEFAULT_BUS
    previous = _DEFAULT_BUS
    _DEFAULT_BUS = bus
    return previous


def default_bus() -> ProbeBus | None:
    """The process-wide default bus, or ``None`` when not installed."""
    return _DEFAULT_BUS
