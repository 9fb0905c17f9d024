"""Wishbone master (initiator) engine."""

from __future__ import annotations

from collections import deque

from ..errors import ProtocolError
from ..hdl.bitvector import LogicVector
from ..hdl.module import Module
from ..hdl.signal import Signal
from ..instrument.probes import TRANSACTION_BEGIN, TRANSACTION_END, new_txn_id
from ..kernel.event import Event
from .signals import WishboneBus


class WishboneOperation:
    """One requested classic-cycle transfer (possibly a burst).

    :param is_write: direction.
    :param address: word-aligned byte start address.
    :param data: words to write (writes only).
    :param count: words to read (reads only).
    :param sel: active-high byte-select mask applied to each phase.
    :param sel_bits: SEL lanes of the bus this operation targets (the
        validation bound; 4 for the default 32-bit data path).
    """

    def __init__(
        self,
        is_write: bool,
        address: int,
        data=None,
        count: int = 1,
        sel: int | None = None,
        sel_bits: int = 4,
    ) -> None:
        if address % 4 or not 0 <= address < 2**32:
            raise ProtocolError(f"bad wishbone address {address:#x}")
        if sel_bits < 1:
            raise ProtocolError(f"sel_bits must be >= 1, got {sel_bits}")
        if sel is None:
            sel = (1 << sel_bits) - 1
        if not 0 <= sel < (1 << sel_bits):
            raise ProtocolError(f"bad sel mask {sel:#x}")
        self.sel_bits = sel_bits
        self.is_write = is_write
        self.address = address
        self.sel = sel
        if is_write:
            if not data:
                raise ProtocolError("write operation needs data")
            self.data = list(data)
            self.count = len(self.data)
        else:
            if data is not None:
                raise ProtocolError("read operation must not carry data")
            if count < 1:
                raise ProtocolError("read count must be >= 1")
            self.data = []
            self.count = count
        self.status = "pending"
        self.enqueue_time: int | None = None
        self.start_time: int | None = None
        self.complete_time: int | None = None
        #: Correlation id inherited from the issuing CommandType.
        self.corr_id: str | None = None
        #: Stable id for transaction.begin/end probe pairing.
        self.txn_id: int | None = None

    @classmethod
    def read(cls, address: int, count: int = 1, sel: int | None = None,
             sel_bits: int = 4):
        return cls(False, address, count=count, sel=sel, sel_bits=sel_bits)

    @classmethod
    def write(cls, address: int, data, sel: int | None = None,
              sel_bits: int = 4):
        words = [data] if isinstance(data, int) else list(data)
        return cls(True, address, data=words, sel=sel, sel_bits=sel_bits)

    def __repr__(self) -> str:
        kind = "write" if self.is_write else "read"
        return f"WishboneOperation({kind} @{self.address:#010x} x{self.count})"


class WishboneMaster(Module):
    """Single bus master executing queued operations in order.

    :param timeout_cycles: clocks to wait for ACK/ERR before declaring a
        bus error (no slave decoded the address).
    """

    def __init__(
        self,
        parent: Module,
        name: str,
        bus: WishboneBus,
        clk: Signal,
        timeout_cycles: int = 16,
    ) -> None:
        super().__init__(parent, name)
        if timeout_cycles < 1:
            raise ProtocolError("timeout must be >= 1 cycle")
        self.bus = bus
        self.clk = clk
        self.timeout_cycles = timeout_cycles
        self._queue: deque[tuple[WishboneOperation, Event]] = deque()
        self._op_available = self.event("op_available")
        self.ops_completed = 0
        self.errors_seen = 0
        self.timeouts_seen = 0
        self.thread(self._engine, "engine")

    # -- public API ----------------------------------------------------------

    def submit(self, operation: WishboneOperation) -> Event:
        done = self.event("op_done")
        operation.enqueue_time = self.sim.time
        self._queue.append((operation, done))
        self._op_available.notify()
        return done

    def transact(self, operation: WishboneOperation):
        """Blocking helper for thread processes."""
        done = self.submit(operation)
        yield done
        return operation

    # -- engine ------------------------------------------------------------------

    def _engine(self):
        bus = self.bus
        while True:
            if not self._queue:
                yield self._op_available
                continue
            operation, done = self._queue.popleft()
            operation.start_time = self.sim.time
            if operation.txn_id is None:
                operation.txn_id = new_txn_id()
            probes = self.sim._probes
            if probes is not None:
                probes.emit(
                    TRANSACTION_BEGIN, self.sim.time, self.path, operation
                )
            status = "ok"
            for index in range(operation.count):
                address = operation.address + 4 * index
                bus.cyc.write(1)
                bus.stb.write(1)
                bus.adr.write(LogicVector(bus.addr_width,
                                           address & bus.addr_mask))
                bus.sel.write(LogicVector(bus.sel_width, operation.sel))
                if operation.is_write:
                    bus.we.write(1)
                    bus.dat_w.write(
                        LogicVector(bus.data_width, operation.data[index])
                    )
                else:
                    bus.we.write(0)
                waited = 0
                while True:
                    yield self.clk.posedge
                    if bus.err_active():
                        status = "bus_error"
                        self.errors_seen += 1
                        break
                    if bus.ack_active():
                        if not operation.is_write:
                            value = bus.dat_r.read()
                            if not value.is_fully_defined:
                                raise ProtocolError(
                                    f"{self.path}: ACK with undefined DAT_R"
                                )
                            operation.data.append(value.to_int())
                        break
                    waited += 1
                    if waited > self.timeout_cycles:
                        status = "timeout"
                        self.timeouts_seen += 1
                        break
                if status != "ok":
                    break
                # Phase done: deassert STB for one cycle (classic cycle with
                # a gap keeps the simple slave's bookkeeping unambiguous).
                bus.stb.write(0)
                yield self.clk.posedge
            bus.cyc.write(0)
            bus.stb.write(0)
            operation.status = status
            operation.complete_time = self.sim.time
            if probes is not None:
                probes.emit(
                    TRANSACTION_END, self.sim.time, self.path, operation,
                    operation.start_time,
                )
            if status == "ok":
                self.ops_completed += 1
            done.notify_delta()
