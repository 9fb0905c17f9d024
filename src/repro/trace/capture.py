"""In-memory waveform capture.

:class:`WaveformCapture` implements the same tracer protocol as the VCD
writer but keeps the change history in memory, where it can be sampled,
compared against another run (pre- vs post-synthesis) and rendered as
ASCII art for the benchmark harnesses.
"""

from __future__ import annotations

import bisect
import typing

from ..errors import SimulationError
from ..hdl.resolved import ResolvedSignal
from ..hdl.signal import Signal

Traceable = typing.Union[Signal, ResolvedSignal]


class WaveformCapture:
    """Records (time, value) change histories for a set of signals."""

    def __init__(self) -> None:
        self._watched: dict[int, Traceable] = {}
        #: name -> list of (time, value) changes, in time order.
        self.history: dict[str, list[tuple[int, object]]] = {}

    # -- registration -----------------------------------------------------

    def add_signal(self, signal: Traceable) -> None:
        if id(signal) not in self._watched:
            self._watched[id(signal)] = signal
            # Snapshot the value as of registration (time 0 for the usual
            # attach-before-run pattern) so value_at() is total.
            self.history[signal.name] = [(0, signal.read())]

    def add_signals(self, signals: typing.Iterable[Traceable]) -> None:
        for signal in signals:
            self.add_signal(signal)

    # -- tracer protocol ---------------------------------------------------

    def record_change(self, time: int, signal: Traceable, value: object) -> None:
        changes = self.history.get(signal.name)
        if changes is None:
            return
        if changes and changes[-1][0] == time:
            changes[-1] = (time, value)
        else:
            changes.append((time, value))

    # -- querying --------------------------------------------------------------

    def value_at(self, name: str, time: int) -> object:
        """The value of signal *name* at simulation time *time*."""
        try:
            changes = self.history[name]
        except KeyError:
            raise SimulationError(f"signal {name!r} was not captured") from None
        if not changes:
            raise SimulationError(f"signal {name!r} has no recorded history")
        times = [t for t, __ in changes]
        index = bisect.bisect_right(times, time) - 1
        if index < 0:
            index = 0
        return changes[index][1]

    def sample(
        self, name: str, start: int, stop: int, step: int
    ) -> list[tuple[int, object]]:
        """Sample signal *name* every *step* fs over [start, stop)."""
        if step <= 0:
            raise SimulationError(f"sample step must be positive, got {step}")
        return [
            (time, self.value_at(name, time)) for time in range(start, stop, step)
        ]

    def changes(self, name: str) -> list[tuple[int, object]]:
        try:
            return list(self.history[name])
        except KeyError:
            raise SimulationError(f"signal {name!r} was not captured") from None

    # -- comparison ---------------------------------------------------------------

    def diff(
        self,
        other: "WaveformCapture",
        names: typing.Sequence[str] | None = None,
        rename: typing.Callable[[str], str] | None = None,
    ) -> list[str]:
        """Compare change histories with *other*; return human-readable diffs.

        :param names: signals to compare (default: all common names).
        :param rename: maps a name in ``self`` to the matching name in
            *other* (used when hierarchies differ between two runs).
        """
        mapper = rename or (lambda name: name)
        if names is None:
            names = [n for n in self.history if mapper(n) in other.history]
        problems = []
        for name in names:
            mine = self.history.get(name)
            theirs = other.history.get(mapper(name))
            if mine is None or theirs is None:
                problems.append(f"{name}: missing from one capture")
                continue
            if [v for __, v in mine] != [v for __, v in theirs]:
                problems.append(
                    f"{name}: value sequences differ "
                    f"({len(mine)} vs {len(theirs)} changes)"
                )
        return problems
