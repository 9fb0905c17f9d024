"""Run supervision from inside the simulation.

:class:`RunWatchdog` replaces the fault runner's old SIGALRM wall-clock
alarm with a plain simulation process, which makes it portable (no
POSIX signals, works off the main thread, composes with pool workers)
and lets it watch two things at once:

* **wall budget** — host seconds consumed by the run, polled at every
  watchdog tick; and
* **communication stall** — no guarded-method traffic for N consecutive
  ticks while calls are still pending (the deadlock signature), which
  ends a doomed run after ``poll × stall_strikes`` sim-time instead of
  burning the full horizon.

On firing it either stops the scheduler (``action="stop"``) or aborts
every pending guarded call by completing it with a
:class:`~repro.errors.GuardTimeoutError` (``action="abort"``), which
surfaces the deadlock in the *callers*, where retry policies can act
on it.

The watchdog's pending timeout keeps the scheduler event queue non-empty
for as long as it is armed; pair it with a platform that stops itself
(e.g. :class:`~repro.core.refinement.PlatformHandle`) or call
:meth:`RunWatchdog.cancel` before waiting for event starvation.
"""

from __future__ import annotations

import time as _time
import typing

from ..errors import GuardTimeoutError
from ..kernel.process import Timeout
from ..kernel.simtime import US, format_time


def communication_progress(sim: typing.Any) -> tuple:
    """A cheap, deterministic snapshot of guarded-call traffic.

    Clock toggles keep a deadlocked platform's delta counter spinning,
    so progress must be measured at the communication layer: submitted
    and completed request counts over every shared state space.
    """
    submitted = 0
    completed = 0
    pending = 0
    for __, obj in sim.iter_named():
        space = getattr(obj, "_space", None)
        if space is None:
            continue
        stats = space.stats
        submitted += stats.total_requests
        completed += stats.total_completed
        pending += len(space.pending)
    return (submitted, completed, pending)


class RunWatchdog:
    """A supervisor process armed over one simulator.

    :param sim: the simulator to supervise.
    :param wall_budget: host seconds the run may take (None = unlimited).
    :param poll: fs between watchdog ticks.
    :param stall_strikes: consecutive no-progress ticks (with calls
        pending) before the stall trigger fires; 0 disables stall
        detection and leaves only the wall budget.
    :param action: ``"stop"`` or ``"abort"`` (see module docstring).
    :param progress: override the progress snapshot callable.
    """

    def __init__(
        self,
        sim: typing.Any,
        wall_budget: float | None = None,
        poll: int = 10 * US,
        stall_strikes: int = 5,
        action: str = "stop",
        progress: typing.Callable[[], tuple] | None = None,
    ) -> None:
        if action not in ("stop", "abort"):
            raise ValueError(f"unknown watchdog action {action!r}")
        if poll <= 0:
            raise ValueError(f"watchdog poll must be > 0 fs, got {poll}")
        self.sim = sim
        self.wall_budget = wall_budget
        self.poll = poll
        self.stall_strikes = stall_strikes
        self.action = action
        self._progress = progress or (lambda: communication_progress(sim))
        self.fired = False
        #: ``"wall"`` or ``"stall"`` once fired.
        self.reason: str | None = None
        self.fired_time: int | None = None
        self.aborted_calls = 0
        self._started_wall = _time.perf_counter()
        self._process = sim.spawn(self._watch, "resilience_watchdog")

    def cancel(self) -> None:
        """Disarm the watchdog (it never fires afterwards)."""
        self._process.kill()

    @property
    def wall_elapsed(self) -> float:
        return _time.perf_counter() - self._started_wall

    # -- the supervisor process ---------------------------------------------

    def _watch(self):
        strikes = 0
        last = self._progress()
        while True:
            yield Timeout(self.poll)
            if (
                self.wall_budget is not None
                and self.wall_elapsed > self.wall_budget
            ):
                self._fire("wall")
                return
            if not self.stall_strikes:
                continue
            snapshot = self._progress()
            if snapshot == last and snapshot[-1] > 0:
                strikes += 1
                if strikes >= self.stall_strikes:
                    self._fire("stall")
                    return
            else:
                strikes = 0
                last = snapshot

    def _fire(self, reason: str) -> None:
        self.fired = True
        self.reason = reason
        self.fired_time = self.sim.time
        if self.action == "abort":
            # Surface the failure in the callers and keep simulating;
            # the watchdog is one-shot — re-arm for renewed protection.
            self._abort_pending_calls()
        else:
            self.sim.stop()

    def _abort_pending_calls(self) -> None:
        """Complete every pending guarded call with a GuardTimeoutError."""
        seen: set[int] = set()
        for __, obj in self.sim.iter_named():
            space = getattr(obj, "_space", None)
            if space is None or id(space) in seen:
                continue
            seen.add(id(space))
            for request in list(space.pending):
                space.cancel(request)
                request.error = GuardTimeoutError(
                    f"watchdog aborted {request.client}->{request.method} "
                    f"({self.reason} at {format_time(self.sim.time)})"
                )
                request.completed = True
                request.complete_time = self.sim.time
                if request.done_event is not None:
                    request.done_event.notify_delta()
                self.aborted_calls += 1
