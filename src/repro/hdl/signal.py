"""Single-driver signals with SystemC write semantics.

A :class:`Signal` stages writes during the evaluation phase and commits
them in the update phase, so every process in a delta cycle observes the
same pre-update value. The value type is either

* a :class:`~repro.hdl.bitvector.LogicVector` of fixed ``width`` (writes
  accept ints / string literals and are coerced), or
* an arbitrary Python value when ``width is None`` (booleans, enums,
  transaction objects — useful for functional models).
"""

from __future__ import annotations

import typing

from ..errors import MultipleDriverError, SimulationError
from ..kernel.event import Event
from ..kernel.signal_base import UpdateTarget
from ..kernel.simtime import check_delay
from .bitvector import LogicVector, to_vector
from .logic import Logic

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..kernel.simulator import Simulator


class Signal(UpdateTarget):
    """A primitive channel carrying one value with deferred update.

    :param sim: owning simulator.
    :param name: hierarchical name (used in traces).
    :param width: bit width for :class:`LogicVector` signals, or ``None``
        for plain Python values.
    :param init: initial value (defaults to all-X for vectors, ``False``
        otherwise).
    :param single_writer: when true, two different processes writing in
        the same delta cycle raise :class:`MultipleDriverError`.
    """

    def __init__(
        self,
        sim: "Simulator",
        name: str,
        width: int | None = None,
        init: object = None,
        single_writer: bool = False,
    ) -> None:
        super().__init__(sim.scheduler)
        self._sim = sim
        self.name = name
        self.width = width
        if width is not None:
            self._value: object = LogicVector(width, init)
        else:
            self._value = False if init is None else init
        self._next = self._value
        self._has_next = False
        self._changed: Event | None = None
        self._posedge: Event | None = None
        self._negedge: Event | None = None
        self._single_writer = single_writer
        self._delta_writer: object = None

    def __repr__(self) -> str:
        return f"Signal({self.name}={self._value!r})"

    # -- events -----------------------------------------------------------

    @property
    def changed(self) -> Event:
        """Event notified (delta) whenever the committed value changes."""
        if self._changed is None:
            self._changed = Event(self._scheduler, f"{self.name}.changed")
        return self._changed

    @property
    def posedge(self) -> Event:
        """Event notified when the value becomes truthy/'1'."""
        if self._posedge is None:
            self._posedge = Event(self._scheduler, f"{self.name}.posedge")
        return self._posedge

    @property
    def negedge(self) -> Event:
        """Event notified when the value becomes falsy/'0'."""
        if self._negedge is None:
            self._negedge = Event(self._scheduler, f"{self.name}.negedge")
        return self._negedge

    # -- access ---------------------------------------------------------------

    def read(self) -> typing.Any:
        """The committed (current) value."""
        return self._value

    @property
    def value(self) -> typing.Any:
        return self._value

    def write(self, value: object) -> None:
        """Stage *value* for commit at the end of the current delta."""
        if self.width is not None and not isinstance(value, LogicVector):
            value = to_vector(self.width, value)
        if self._single_writer:
            writer = self._scheduler.current_process
            if (
                self._has_next
                and self._delta_writer is not None
                and writer is not None
                and writer is not self._delta_writer
            ):
                raise MultipleDriverError(
                    f"signal {self.name!r} written by {self._delta_writer!r} "
                    f"and {writer!r} in the same delta cycle"
                )
            self._delta_writer = writer
        self._next = value
        self._has_next = True
        if not self._update_requested:
            self._update_requested = True
            self._scheduler._update_queue.append(self)

    def write_after(self, value: object, delay: int) -> None:
        """Schedule a write *delay* femtoseconds in the future.

        Transport-delay semantics: the value is staged when the delay
        elapses, overriding whatever was staged for that delta (later
        schedules for the same instant win, like successive writes).
        """
        if self.width is not None and not isinstance(value, LogicVector):
            value = to_vector(self.width, value)
        check_delay(delay)
        if delay == 0:
            self.write(value)
            return
        trigger = Event(self._scheduler, f"{self.name}.write_after")
        trigger.add_callback(lambda: self.write(value))
        trigger.notify_after(delay)

    def force(self, value: object) -> None:
        """Set the committed value immediately (test fixtures only)."""
        if self.width is not None and not isinstance(value, LogicVector):
            value = to_vector(self.width, value)
        old = self._value
        self._value = value
        self._next = value
        if old != value:
            self._fire_edges(old, value)
            self._sim._notify_trace(self, value)

    # -- update phase -------------------------------------------------------------

    def _perform_update(self) -> None:
        self._delta_writer = None
        if not self._has_next:
            return
        self._has_next = False
        old, new = self._value, self._next
        if type(old) is LogicVector and type(new) is LogicVector:
            if (
                old._ones == new._ones
                and old._x == new._x
                and old._z == new._z
                and old._width == new._width
            ):
                return
        elif old == new:
            return
        self._value = new
        self._fire_edges(old, new)
        # Inline the signal-commit probe: this is the hottest observation
        # point in the kernel, so it must cost one None check when no bus
        # is attached.
        probes = self._sim._probes
        if probes is not None:
            probes.signal_commit(self._scheduler._time, self, new)

    def _fire_edges(self, old: object, new: object) -> None:
        if self._changed is not None:
            self._changed.notify_delta()
        if self._posedge is None and self._negedge is None:
            return
        old_level = _level(old)
        new_level = _level(new)
        if self._posedge is not None and new_level is True and old_level is not True:
            self._posedge.notify_delta()
        if self._negedge is not None and new_level is False and old_level is not False:
            self._negedge.notify_delta()

    # -- convenience -------------------------------------------------------------

    def to_int(self) -> int:
        value = self._value
        if isinstance(value, LogicVector):
            return value.to_int()
        if isinstance(value, Logic):
            return value.to_int()
        if isinstance(value, bool):
            return int(value)
        if isinstance(value, int):
            return value
        raise SimulationError(f"signal {self.name!r} value {value!r} is not integral")


def _level(value: object) -> bool | None:
    """Map a signal value to a boolean level for edge detection."""
    if isinstance(value, LogicVector):
        if value._width == 1 and not (value._x or value._z):
            return value._ones == 1
        return None
    if isinstance(value, bool):
        return value
    if isinstance(value, Logic):
        if value.char == "1":
            return True
        if value.char == "0":
            return False
        return None
    if isinstance(value, int):
        return bool(value)
    return None
