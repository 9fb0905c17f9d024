"""Transaction-level channels: bounded FIFO and request/response pairs.

These give functional system models SystemC-2.x-style ``tlm_fifo``
communication: blocking ``put``/``get`` generators usable from module
threads with ``yield from``.
"""

from __future__ import annotations

import typing
from collections import deque

from ..errors import SimulationError
from ..instrument.probes import TRANSACTION_BEGIN, TRANSACTION_END, new_txn_id
from ..kernel.event import Event
from ..kernel.simulator import Simulator


class TlmTransaction:
    """Probe payload wrapping one ``transport`` round-trip.

    User requests are arbitrary objects (ints, dicts, ...), so the
    channel cannot stamp a transaction id on them directly; this wrapper
    gives every round-trip a stable :attr:`txn_id` while keeping the
    original request reachable. The same wrapper instance is emitted at
    both the begin and the end probe.
    """

    __slots__ = ("txn_id", "request", "corr_id")

    def __init__(self, request: object) -> None:
        self.txn_id = new_txn_id()
        self.request = request
        self.corr_id = getattr(request, "corr_id", None)

    def __repr__(self) -> str:
        return f"TlmTransaction(#{self.txn_id}, {self.request!r})"


class TlmFifo:
    """A bounded FIFO with blocking put/get for thread processes.

    :param capacity: maximum queued items; ``None`` = unbounded.
    """

    def __init__(
        self, sim: Simulator, name: str = "fifo", capacity: int | None = None
    ) -> None:
        if capacity is not None and capacity <= 0:
            raise SimulationError(f"fifo capacity must be positive, got {capacity}")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self._items: deque = deque()
        self._data_available = Event(sim.scheduler, f"{name}.data_available")
        self._space_available = Event(sim.scheduler, f"{name}.space_available")
        self.total_put = 0
        self.total_got = 0

    def __len__(self) -> int:
        return len(self._items)

    @property
    def is_empty(self) -> bool:
        return not self._items

    @property
    def is_full(self) -> bool:
        return self.capacity is not None and len(self._items) >= self.capacity

    # -- non-blocking ---------------------------------------------------------

    def try_put(self, item: object) -> bool:
        if self.is_full:
            return False
        self._items.append(item)
        self.total_put += 1
        self._data_available.notify()
        return True

    def try_get(self) -> tuple[bool, object]:
        if not self._items:
            return False, None
        item = self._items.popleft()
        self.total_got += 1
        self._space_available.notify()
        return True, item

    def peek(self) -> object:
        if not self._items:
            raise SimulationError(f"peek on empty fifo {self.name!r}")
        return self._items[0]

    # -- blocking (yield from) ----------------------------------------------------

    def put(self, item: object):
        """Blocking put: ``yield from fifo.put(item)``."""
        while not self.try_put(item):
            yield self._space_available

    def get(self):
        """Blocking get: ``item = yield from fifo.get()``."""
        while True:
            ok, item = self.try_get()
            if ok:
                return item
            yield self._data_available


class ReqRspChannel:
    """A paired request/response channel for master/slave TLM models."""

    def __init__(self, sim: Simulator, name: str = "reqrsp", capacity: int = 1) -> None:
        self.sim = sim
        self.name = name
        self.requests = TlmFifo(sim, f"{name}.req", capacity)
        self.responses = TlmFifo(sim, f"{name}.rsp", capacity)

    def transport(self, request: object):
        """Master side: send *request*, block for the matching response."""
        probes = self.sim._probes
        if probes is not None:
            # The same wrapper, carrying a stable txn_id, is emitted at
            # begin and end; the end also carries the begin time.
            transaction = TlmTransaction(request)
            begin = self.sim.time
            probes.emit(TRANSACTION_BEGIN, begin, self.name, transaction)
        yield from self.requests.put(request)
        response = yield from self.responses.get()
        if probes is not None:
            probes.emit(
                TRANSACTION_END, self.sim.time, self.name, transaction, begin
            )
        return response

    def serve(self, handler: typing.Callable[[object], object]):
        """Slave side: forever pop requests and push ``handler(request)``."""
        while True:
            request = yield from self.requests.get()
            yield from self.responses.put(handler(request))
