"""AXI4-Lite master (manager) engine.

AXI4-Lite has no bursts: a multi-word operation is executed as a train
of independent single-beat transfers with incrementing addresses. The
master issues AW and W together, collects the B response, and likewise
AR then R; a channel that never presents READY (no slave decoded the
address) times out into a ``"timeout"`` status — the AXI-Lite analogue
of a master abort.
"""

from __future__ import annotations

from collections import deque

from ..errors import ProtocolError
from ..hdl.bitvector import LogicVector
from ..hdl.module import Module
from ..hdl.signal import Signal
from ..instrument.probes import TRANSACTION_BEGIN, TRANSACTION_END, new_txn_id
from ..kernel.event import Event
from .signals import RESP_DECERR, RESP_EXOKAY, RESP_OKAY, RESP_SLVERR, AxiLiteBus, high


class AxiLiteOperation:
    """One requested operation (one or more single-beat transfers).

    :param is_write: direction.
    :param address: word-aligned byte start address.
    :param data: words to write (writes only).
    :param count: words to read (reads only).
    :param strb: active-high write-strobe mask applied to each beat.
    :param strb_bits: WSTRB lanes of the targeted bus (validation
        bound; 4 for the default 32-bit data path).
    """

    def __init__(
        self,
        is_write: bool,
        address: int,
        data=None,
        count: int = 1,
        strb: int | None = None,
        strb_bits: int = 4,
    ) -> None:
        if address % 4 or not 0 <= address < 2**32:
            raise ProtocolError(f"bad axi4lite address {address:#x}")
        if strb_bits < 1:
            raise ProtocolError(f"strb_bits must be >= 1, got {strb_bits}")
        if strb is None:
            strb = (1 << strb_bits) - 1
        if not 0 <= strb < (1 << strb_bits):
            raise ProtocolError(f"bad strb mask {strb:#x}")
        self.is_write = is_write
        self.address = address
        self.strb = strb
        self.strb_bits = strb_bits
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
    def read(cls, address: int, count: int = 1, strb: int | None = None,
             strb_bits: int = 4):
        return cls(False, address, count=count, strb=strb,
                   strb_bits=strb_bits)

    @classmethod
    def write(cls, address: int, data, strb: int | None = None,
              strb_bits: int = 4):
        words = [data] if isinstance(data, int) else list(data)
        return cls(True, address, data=words, strb=strb,
                   strb_bits=strb_bits)

    def __repr__(self) -> str:
        kind = "write" if self.is_write else "read"
        return f"AxiLiteOperation({kind} @{self.address:#010x} x{self.count})"


#: Response encodings mapped to operation statuses.
_RESP_STATUS = {
    RESP_OKAY: "ok",
    RESP_EXOKAY: "exokay",
    RESP_SLVERR: "slverr",
    RESP_DECERR: "decerr",
}


class AxiLiteMaster(Module):
    """Single manager executing queued operations in order.

    :param timeout_cycles: clocks to wait for a READY (or a response
        VALID) before declaring a timeout — no slave decoded the
        address.
    """

    def __init__(
        self,
        parent: Module,
        name: str,
        bus: AxiLiteBus,
        clk: Signal,
        timeout_cycles: int = 16,
    ) -> None:
        super().__init__(parent, name)
        if timeout_cycles < 1:
            raise ProtocolError("timeout must be >= 1 cycle")
        self.bus = bus
        self.clk = clk
        self.timeout_cycles = timeout_cycles
        self._queue: deque[tuple[AxiLiteOperation, Event]] = deque()
        self._op_available = self.event("op_available")
        self.ops_completed = 0
        self.beats_transferred = 0
        self.errors_seen = 0
        self.timeouts_seen = 0
        self.thread(self._engine, "engine")

    # -- public API -------------------------------------------------------

    def submit(self, operation: AxiLiteOperation) -> Event:
        done = self.event("op_done")
        operation.enqueue_time = self.sim.time
        self._queue.append((operation, done))
        self._op_available.notify()
        return done

    def transact(self, operation: AxiLiteOperation):
        """Blocking helper for thread processes."""
        done = self.submit(operation)
        yield done
        return operation

    # -- engine -----------------------------------------------------------

    def _engine(self):
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
                if operation.is_write:
                    status = yield from self._write_beat(
                        address, operation.data[index], operation.strb
                    )
                else:
                    status, word = yield from self._read_beat(address)
                    if status == "ok":
                        operation.data.append(word)
                if status != "ok":
                    if status == "timeout":
                        self.timeouts_seen += 1
                    else:
                        self.errors_seen += 1
                    break
                self.beats_transferred += 1
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

    def _write_beat(self, address: int, word: int, strb: int):
        """AW+W handshakes, then the B response; returns the status."""
        bus = self.bus
        bus.awvalid.write(1)
        bus.awaddr.write(LogicVector(bus.addr_width, address & bus.addr_mask))
        bus.wvalid.write(1)
        bus.wdata.write(LogicVector(bus.data_width, word))
        bus.wstrb.write(LogicVector(bus.strb_width, strb))
        aw_done = w_done = False
        waited = 0
        while not (aw_done and w_done):
            yield self.clk.posedge
            if not aw_done and high(bus.awready.read()):
                aw_done = True
                bus.awvalid.write(0)
            if not w_done and high(bus.wready.read()):
                w_done = True
                bus.wvalid.write(0)
            waited += 1
            if waited > self.timeout_cycles:
                bus.awvalid.write(0)
                bus.wvalid.write(0)
                return "timeout"
        bus.bready.write(1)
        waited = 0
        while True:
            yield self.clk.posedge
            if high(bus.bvalid.read()):
                resp = bus.bresp.read().to_int_default(RESP_DECERR)
                bus.bready.write(0)
                return _RESP_STATUS[resp]
            waited += 1
            if waited > self.timeout_cycles:
                bus.bready.write(0)
                return "timeout"

    def _read_beat(self, address: int):
        """AR handshake, then the R beat; returns (status, word)."""
        bus = self.bus
        bus.arvalid.write(1)
        bus.araddr.write(LogicVector(bus.addr_width, address & bus.addr_mask))
        waited = 0
        while True:
            yield self.clk.posedge
            if high(bus.arready.read()):
                bus.arvalid.write(0)
                break
            waited += 1
            if waited > self.timeout_cycles:
                bus.arvalid.write(0)
                return "timeout", 0
        bus.rready.write(1)
        waited = 0
        while True:
            yield self.clk.posedge
            if high(bus.rvalid.read()):
                resp = bus.rresp.read().to_int_default(RESP_DECERR)
                bus.rready.write(0)
                if resp != RESP_OKAY:
                    return _RESP_STATUS[resp], 0
                value = bus.rdata.read()
                if not value.is_fully_defined:
                    raise ProtocolError(
                        f"{self.path}: RVALID with undefined RDATA at "
                        f"{self.sim.time_str()}"
                    )
                return "ok", value.to_int()
            waited += 1
            if waited > self.timeout_cycles:
                bus.rready.write(0)
                return "timeout", 0
