"""The discrete-event scheduler.

Implements the SystemC evaluation/update/delta-notification cycle:

1. **Evaluate** — run every runnable process until it waits. Immediate
   notifications during this phase make further processes runnable in
   the *same* phase.
2. **Update** — commit staged primitive-channel writes (signals). A
   committed change performs delta notification of the channel's
   value-changed events.
3. **Delta notify** — trigger delta-notified events, waking waiters. If
   anything became runnable, start a new delta cycle at the same time.
4. **Time advance** — otherwise pop the earliest timed notifications,
   advance simulation time, and evaluate again.
"""

from __future__ import annotations

import heapq
import typing
from collections import deque

from ..errors import SimulationError
from .event import Event
from .process import Process
from .simtime import check_delay, format_time

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..instrument.probes import ProbeBus
    from .signal_base import UpdateTarget


class Scheduler:
    """Event queues and the simulation main loop.

    :param max_deltas_per_timestep: safety limit that turns a
        combinational feedback loop into a diagnosable error instead of
        a hang.
    """

    def __init__(self, max_deltas_per_timestep: int = 10_000) -> None:
        self._time = 0
        self._delta_count = 0
        self._runnable: deque[Process] = deque()
        self._delta_events: list[Event] = []
        self._timed: list[tuple[int, int, Event]] = []
        self._timed_seq = 0
        self._update_queue: list["UpdateTarget"] = []
        self._processes: list[Process] = []
        self._max_deltas = max_deltas_per_timestep
        self._stop_requested = False
        self.running = False
        #: The process being evaluated right now (None between activations).
        self.current_process: Process | None = None
        #: Probe bus attached by the owning Simulator; None keeps every
        #: probe site on the single-truthiness-check fast path.
        self._probes: "ProbeBus | None" = None

    # -- introspection ------------------------------------------------------

    @property
    def time(self) -> int:
        """Current simulation time in femtoseconds."""
        return self._time

    @property
    def delta_count(self) -> int:
        """Total number of delta cycles executed so far."""
        return self._delta_count

    @property
    def processes(self) -> tuple[Process, ...]:
        return tuple(self._processes)

    def time_str(self) -> str:
        return format_time(self._time)

    # -- construction ---------------------------------------------------------

    def register_process(self, process: Process, initialize: bool = True) -> None:
        """Add *process* to the kernel.

        :param initialize: if true (the SystemC default), the process is
            runnable in the first delta of the simulation (or of the next
            step when registered mid-run).
        """
        self._processes.append(process)
        if initialize:
            process._make_runnable()

    def spawn(
        self,
        func: typing.Callable[[], object],
        name: str = "spawned",
        initialize: bool = True,
    ) -> Process:
        """Create and register a thread process in one call."""
        process = Process(self, name, func, Process.THREAD)
        self.register_process(process, initialize=initialize)
        return process

    # -- internal hooks used by Event / Signal --------------------------------

    def _schedule_delta_event(self, event: Event) -> None:
        # O(1) dedup flag, mirroring request_update: a linear `in` scan
        # over the pending list is quadratic when many events collapse
        # into one delta.
        if not event._delta_pending:
            event._delta_pending = True
            self._delta_events.append(event)

    def _schedule_timed_event(self, event: Event, delay: int) -> None:
        self._timed_seq += 1
        heapq.heappush(self._timed, (self._time + delay, self._timed_seq, event))

    def request_update(self, target: "UpdateTarget") -> None:
        """Queue *target* for the update phase of the current delta."""
        if not target._update_requested:
            target._update_requested = True
            self._update_queue.append(target)

    # -- control ---------------------------------------------------------------

    def stop(self) -> None:
        """Request the main loop to stop at the end of the current delta."""
        self._stop_requested = True

    def run(self, duration: int | None = None) -> int:
        """Run the simulation.

        :param duration: femtoseconds to simulate; ``None`` runs until no
            activity remains (event starvation) or :meth:`stop` is called.
        :returns: the simulation time when the run ended.
        """
        if duration is not None:
            check_delay(duration)
        deadline = None if duration is None else self._time + duration
        self._stop_requested = False
        self.running = True
        try:
            while True:
                self._run_delta_cycles()
                if self._stop_requested:
                    break
                if not self._timed:
                    break
                next_time = self._timed[0][0]
                if deadline is not None and next_time > deadline:
                    self._time = deadline
                    break
                self._advance_to(next_time)
            if deadline is not None and self._time < deadline and not self._stop_requested:
                self._time = deadline
            return self._time
        finally:
            self.running = False

    def _advance_to(self, next_time: int) -> None:
        self._time = next_time
        while self._timed and self._timed[0][0] == next_time:
            __, __, event = heapq.heappop(self._timed)
            event._trigger()

    def _run_delta_cycles(self) -> None:
        runnable = self._runnable
        next_runnable = runnable.popleft
        max_deltas = self._max_deltas
        deltas_this_step = 0
        while runnable or self._delta_events or self._update_queue:
            deltas_this_step += 1
            if deltas_this_step > max_deltas:
                raise SimulationError(
                    f"more than {max_deltas} delta cycles at time "
                    f"{self.time_str()}: probable zero-delay feedback loop"
                )
            self._delta_count += 1
            probes = self._probes
            # Evaluation phase.
            if probes is not None:
                probes.delta_begin(self._time, self._delta_count)
                while runnable:
                    process = next_runnable()
                    self.current_process = process
                    cause, process._wake_trigger = process._wake_trigger, None
                    probes.process_activate(self._time, process, cause)
                    try:
                        process._execute()
                    finally:
                        self.current_process = None
                        probes.process_suspend(self._time, process)
            else:
                while runnable:
                    process = next_runnable()
                    self.current_process = process
                    try:
                        process._execute()
                    finally:
                        self.current_process = None
            # Update phase.
            if self._update_queue:
                updates, self._update_queue = self._update_queue, []
                for target in updates:
                    target._update_requested = False
                    target._perform_update()
            # Delta notification phase. Clear the dedup flag before the
            # trigger so a callback may re-notify for the next delta.
            if self._delta_events:
                events, self._delta_events = self._delta_events, []
                for event in events:
                    event._delta_pending = False
                    event._trigger()
            if probes is not None:
                probes.delta_end(self._time, self._delta_count)
            if self._stop_requested:
                return
