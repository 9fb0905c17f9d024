"""Resolved (multi-driver, tri-state) signals.

PCI multiplexes address and data on the AD lines, which several agents
drive at different times, releasing them to ``Z`` in turnaround cycles.
:class:`ResolvedSignal` models such a wire: every agent obtains its own
:class:`BusDriver`, and the committed value is the per-bit resolution of
all driver contributions.
"""

from __future__ import annotations

import typing

from ..errors import WidthError
from ..kernel.event import Event
from ..kernel.signal_base import UpdateTarget
from .bitvector import LogicVector, resolve_vectors, to_vector

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..kernel.simulator import Simulator


class BusDriver:
    """One agent's contribution to a resolved bus."""

    def __init__(self, bus: "ResolvedSignal", name: str) -> None:
        self._bus = bus
        self.name = name
        self._contribution = bus._all_z

    def __repr__(self) -> str:
        return f"BusDriver({self._bus.name}:{self.name}={self._contribution})"

    @property
    def contribution(self) -> LogicVector:
        return self._contribution

    def write(self, value: "LogicVector | int | str") -> None:
        """Drive *value* onto the bus (committed at the update phase)."""
        bus = self._bus
        if not isinstance(value, LogicVector):
            value = to_vector(bus.width, value)
        if value.width != bus.width:
            raise WidthError(
                f"driver {self.name!r}: value width {value.width} != bus "
                f"width {bus.width}"
            )
        old = self._contribution
        if (
            old._ones != value._ones
            or old._x != value._x
            or old._z != value._z
        ):
            bus._dirty = True
        self._contribution = value
        # Always enqueue, even when unchanged: the update queue's order is
        # the commit order.
        if not bus._update_requested:
            bus._update_requested = True
            bus._scheduler._update_queue.append(bus)

    def release(self) -> None:
        """Stop driving: contribute all-Z."""
        self.write(self._bus._all_z)


class ResolvedSignal(UpdateTarget):
    """A multi-driver bus wire with per-bit 0/1/X/Z resolution."""

    def __init__(self, sim: "Simulator", name: str, width: int) -> None:
        super().__init__(sim.scheduler)
        self._sim = sim
        self.name = name
        self.width = width
        self._drivers: dict[str, BusDriver] = {}
        #: The interned all-Z vector released drivers contribute.
        self._all_z = LogicVector.high_z(width)
        self._value = self._all_z
        #: Resolution of the drivers' contributions, recomputed only
        #: when a contribution changed (``_dirty``).
        self._resolved = self._all_z
        self._dirty = False
        self._changed: Event | None = None

    def __repr__(self) -> str:
        return f"ResolvedSignal({self.name}={self._value})"

    # -- drivers ------------------------------------------------------------

    def get_driver(self, name: str) -> BusDriver:
        """The (per-agent) driver handle called *name*, created on demand."""
        try:
            return self._drivers[name]
        except KeyError:
            driver = BusDriver(self, name)
            self._drivers[name] = driver
            self._dirty = True
            return driver

    @property
    def driver_names(self) -> tuple[str, ...]:
        return tuple(self._drivers)

    # -- access ---------------------------------------------------------------

    def read(self) -> LogicVector:
        return self._value

    @property
    def value(self) -> LogicVector:
        return self._value

    @property
    def changed(self) -> Event:
        if self._changed is None:
            self._changed = Event(self._scheduler, f"{self.name}.changed")
        return self._changed

    # -- update phase ------------------------------------------------------------

    def _perform_update(self) -> None:
        if self._dirty:
            self._dirty = False
            self._resolved = resolve_vectors(
                self.width,
                [driver._contribution for driver in self._drivers.values()],
            )
        resolved = self._resolved
        # Compare against _value every time, never return early on a clean
        # cache: a fault override writes _value out of band and relies on
        # the next update to resolve the line again.
        value = self._value
        if (
            resolved._ones == value._ones
            and resolved._x == value._x
            and resolved._z == value._z
        ):
            return
        self._value = resolved
        if self._changed is not None:
            self._changed.notify_delta()
        probes = self._sim._probes
        if probes is not None:
            probes.signal_commit(self._scheduler._time, self, resolved)
