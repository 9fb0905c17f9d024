"""Simulation events.

An :class:`Event` is the primitive synchronisation object of the kernel,
with the three SystemC notification flavours:

* ``notify()`` — *immediate*: waiting processes become runnable in the
  current evaluation phase;
* ``notify_delta()`` — wake waiters at the next delta cycle;
* ``notify_after(delay)`` — wake waiters *delay* femtoseconds from now.

Processes wait on events either dynamically (a thread yields the event)
or statically (a method process lists it in its sensitivity).
"""

from __future__ import annotations

import typing

from ..errors import SimulationError
from .simtime import check_delay

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .process import Process
    from .scheduler import Scheduler


class Event:
    """A notifiable synchronisation point.

    :param scheduler: the kernel this event belongs to.
    :param name: optional label used in traces and error messages.
    """

    def __init__(self, scheduler: "Scheduler", name: str = "") -> None:
        self._scheduler = scheduler
        self.name = name
        self._dynamic_waiters: list["Process"] = []
        self._static_waiters: list["Process"] = []
        self._callbacks: list[typing.Callable[[], None]] = []
        #: Set while queued for the next delta (O(1) dedup in
        #: Scheduler._schedule_delta_event).
        self._delta_pending: bool = False
        #: Causal edge for the probe bus: the Process that requested the
        #: pending notification. Recorded only while a bus is attached
        #: (probes-off runs never touch it) and consumed by _trigger.
        self._notify_cause: "Process | None" = None

    def __repr__(self) -> str:
        label = self.name or "<anonymous>"
        return f"Event({label})"

    # -- registration -----------------------------------------------------

    def _add_dynamic(self, process: "Process") -> None:
        self._dynamic_waiters.append(process)

    def _remove_dynamic(self, process: "Process") -> None:
        try:
            self._dynamic_waiters.remove(process)
        except ValueError:
            pass

    def add_static(self, process: "Process") -> None:
        """Register *process* for static sensitivity on this event."""
        if process not in self._static_waiters:
            self._static_waiters.append(process)

    def add_callback(self, callback: typing.Callable[[], None]) -> None:
        """Run *callback* once, at the next trigger of this event.

        Callbacks fire during the triggering phase (no process context);
        they must not wait — intended for lightweight plumbing such as
        delayed signal writes.
        """
        self._callbacks.append(callback)

    # -- notification -----------------------------------------------------

    def notify(self) -> None:
        """Immediately wake all waiting processes (same evaluation phase)."""
        if self._scheduler._probes is not None:
            self._notify_cause = self._scheduler.current_process
        self._trigger()

    def notify_delta(self) -> None:
        """Schedule a wake-up of all waiting processes at the next delta."""
        if self._scheduler._probes is not None:
            self._notify_cause = self._scheduler.current_process
        self._scheduler._schedule_delta_event(self)

    def notify_after(self, delay: int) -> None:
        """Schedule a wake-up *delay* femtoseconds in the future."""
        check_delay(delay)
        if delay == 0:
            self.notify_delta()
        else:
            if self._scheduler._probes is not None:
                self._notify_cause = self._scheduler.current_process
            self._scheduler._schedule_timed_event(self, delay)

    def _trigger(self) -> None:
        """Make every waiter runnable; called by the scheduler or notify()."""
        probes = self._scheduler._probes
        if probes is not None:
            cause, self._notify_cause = self._notify_cause, None
            probes.event_notify(self._scheduler._time, self, cause)
        if self._dynamic_waiters:
            waiters, self._dynamic_waiters = self._dynamic_waiters, []
            for process in waiters:
                process._wake(self)
        for process in self._static_waiters:
            process._wake_static(self)
        if self._callbacks:
            callbacks, self._callbacks = self._callbacks, []
            for callback in callbacks:
                callback()


class EventList:
    """Base for composite waits on several events (``AnyOf`` / ``AllOf``)."""

    def __init__(self, *events: Event) -> None:
        if not events:
            raise SimulationError("composite wait needs at least one event")
        for event in events:
            if not isinstance(event, Event):
                raise SimulationError(f"expected Event, got {event!r}")
        self.events: tuple[Event, ...] = tuple(events)


class AnyOf(EventList):
    """Wait until *any one* of the given events is notified."""


class AllOf(EventList):
    """Wait until *all* of the given events have been notified."""
