"""Simulation processes.

Two SystemC-like process kinds are supported:

* **thread** — a Python generator that ``yield``\\ s wait specifications
  (:class:`Timeout`, an :class:`~repro.kernel.event.Event`, ``AnyOf``,
  ``AllOf``). The kernel resumes it when the wait completes. Threads
  compose naturally: helper coroutines are invoked with ``yield from``,
  which is how blocking guarded-method calls are built.
* **method** — a plain callable re-invoked from the top whenever an event
  in its static sensitivity triggers. Methods cannot wait.
"""

from __future__ import annotations

import heapq
import typing
from collections.abc import Generator

from ..errors import SimulationError
from .event import AllOf, AnyOf, Event
from .simtime import check_delay

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .scheduler import Scheduler


class Timeout:
    """Wait specification: suspend for a fixed number of femtoseconds."""

    __slots__ = ("delay",)

    def __init__(self, delay: int) -> None:
        self.delay = check_delay(delay)

    def __repr__(self) -> str:
        return f"Timeout({self.delay})"


#: What a thread may yield to the kernel.
WaitSpec = typing.Union[Timeout, Event, AnyOf, AllOf]

#: Type alias for the generator a thread function must return.
ThreadGenerator = Generator[WaitSpec, object, object]


class Process:
    """Kernel bookkeeping for one thread or method process."""

    THREAD = "thread"
    METHOD = "method"

    def __init__(
        self,
        scheduler: "Scheduler",
        name: str,
        func: typing.Callable[[], object],
        kind: str = THREAD,
    ) -> None:
        if kind not in (self.THREAD, self.METHOD):
            raise SimulationError(f"unknown process kind {kind!r}")
        self._scheduler = scheduler
        self.name = name
        self.kind = kind
        self._func = func
        self._generator: ThreadGenerator | None = None
        #: Events of the current dynamic wait (empty while not waiting).
        self._waiting_on: tuple[Event, ...] = ()
        self._all_of_pending: set[Event] = set()
        #: ``(timer,)``: the one timer Event every Timeout wait of this
        #: process reuses, created on the first Timeout.
        self._timer_wait: tuple[Event] | None = None
        self.done = False
        self.started = False
        #: Notified when the process terminates (thread return / StopIteration).
        self.terminated_event = Event(scheduler, f"{name}.terminated")
        self._static_sensitivity: list[Event] = []
        self._runnable = False
        self.exception: BaseException | None = None
        #: Causal edge for the probe bus: the Event whose trigger made
        #: this process runnable (None for the initial activation).
        #: Recorded only while a bus is attached; consumed and reset by
        #: the scheduler's instrumented evaluation loop.
        self._wake_trigger: Event | None = None

    def __repr__(self) -> str:
        return f"Process({self.name}, {self.kind})"

    # -- static sensitivity -------------------------------------------------

    def add_sensitivity(self, event: Event) -> None:
        """Statically sensitise this process to *event*."""
        self._static_sensitivity.append(event)
        event.add_static(self)

    # -- waking ---------------------------------------------------------------

    def _wake(self, trigger: Event) -> None:
        """Called by an event this process dynamically waits on."""
        if self.done:
            return
        if self._all_of_pending:
            self._all_of_pending.discard(trigger)
            if self._all_of_pending:
                return
        if len(self._waiting_on) == 1:
            # Single-event wait: the trigger already dropped its waiters,
            # so there is nothing left to deregister.
            self._waiting_on = ()
        else:
            self._clear_waits(keep=trigger)
        if self._scheduler._probes is not None:
            self._wake_trigger = trigger
        self._make_runnable()

    def _wake_static(self, trigger: Event) -> None:
        """Called by an event in the static sensitivity list."""
        if self.done:
            return
        if self.kind == self.THREAD and self._waiting_on:
            # A thread with an explicit dynamic wait ignores static triggers.
            return
        if self._scheduler._probes is not None:
            self._wake_trigger = trigger
        self._make_runnable()

    def _make_runnable(self) -> None:
        if not self._runnable:
            self._runnable = True
            self._scheduler._runnable.append(self)

    def _clear_waits(self, keep: Event | None = None) -> None:
        for event in self._waiting_on:
            if event is not keep:
                event._remove_dynamic(self)
        self._waiting_on = ()
        if self._all_of_pending:
            self._all_of_pending = set()

    # -- execution ------------------------------------------------------------

    def _execute(self) -> None:
        """Run one activation; called only by the scheduler."""
        self._runnable = False
        if self.done:
            return
        if self.kind == self.METHOD:
            self.started = True
            self._func()
            return
        if self._generator is None:
            self.started = True
            result = self._func()
            if result is None:
                # A thread function with no yields runs to completion at start.
                self._finish()
                return
            if not isinstance(result, Generator):
                raise SimulationError(
                    f"thread {self.name!r} must be a generator function, "
                    f"got {result!r}"
                )
            self._generator = result
        try:
            wait_spec = self._generator.send(None)
        except StopIteration:
            self._finish()
            return
        self._register_wait(wait_spec)

    def _register_wait(self, wait_spec: object) -> None:
        if type(wait_spec) is Event or isinstance(wait_spec, Event):
            self._waiting_on = (wait_spec,)
            wait_spec._dynamic_waiters.append(self)
            return
        if isinstance(wait_spec, Timeout):
            waiting_on = self._timer_wait
            if waiting_on is None:
                waiting_on = self._timer_wait = (
                    Event(self._scheduler, f"{self.name}.timeout"),
                )
            timer = waiting_on[0]
            delay = wait_spec.delay
            if delay == 0:
                timer.notify_delta()
            else:
                # Timeout.__init__ already ran check_delay: push directly.
                scheduler = self._scheduler
                if scheduler._probes is not None:
                    timer._notify_cause = scheduler.current_process
                scheduler._timed_seq += 1
                heapq.heappush(
                    scheduler._timed,
                    (scheduler._time + delay, scheduler._timed_seq, timer),
                )
            self._waiting_on = waiting_on
            timer._dynamic_waiters.append(self)
            return
        if isinstance(wait_spec, AnyOf):
            self._waiting_on = wait_spec.events
            for event in wait_spec.events:
                event._add_dynamic(self)
            return
        if isinstance(wait_spec, AllOf):
            self._waiting_on = wait_spec.events
            self._all_of_pending = set(wait_spec.events)
            for event in wait_spec.events:
                event._add_dynamic(self)
            return
        raise SimulationError(
            f"thread {self.name!r} yielded {wait_spec!r}, which is not a "
            "wait specification (Timeout, Event, AnyOf or AllOf)"
        )

    def _finish(self) -> None:
        self.done = True
        self._clear_waits()
        self.terminated_event.notify_delta()

    def kill(self) -> None:
        """Forcefully terminate the process (it never runs again)."""
        if self.done:
            return
        if self._generator is not None:
            self._generator.close()
        self._finish()
