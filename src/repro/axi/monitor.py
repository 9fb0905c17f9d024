"""Passive AXI4-Lite monitor: handshake rules + transfer recording."""

from __future__ import annotations

from collections import deque

from ..errors import ProtocolError
from ..hdl.module import Module
from ..hdl.signal import Signal
from ..instrument.probes import TRANSACTION_END, new_txn_id
from .signals import RESP_EXOKAY, RESP_NAMES, AxiLiteBus, high


class AxiLiteTransfer:
    """One completed single-beat transfer (B or R handshake)."""

    def __init__(self, address: int, is_write: bool, data: int | None,
                 strb: int, resp: int, time: int) -> None:
        self.address = address
        self.is_write = is_write
        self.data = data
        self.strb = strb
        self.resp = resp
        self.time = time
        #: Stable id for transaction probe pairing.
        self.txn_id: int | None = None
        #: Correlation id back-filled by the span layer.
        self.corr_id: str | None = None

    def signature(self) -> tuple:
        return (self.address, self.is_write, self.data, self.strb, self.resp)

    def __repr__(self) -> str:
        kind = "write" if self.is_write else "read"
        resp = RESP_NAMES.get(self.resp, f"resp={self.resp}")
        return (f"AxiLiteTransfer({kind} @{self.address:#010x} "
                f"data={self.data!r} [{resp}])")


class AxiLiteMonitor(Module):
    """Watches the five channels; checks the basic handshake rules.

    Address/data payloads are captured at their own channel handshakes
    and matched to the eventual B/R completion, so a response with no
    preceding request is caught, as is payload instability while VALID
    is held.
    """

    def __init__(
        self,
        parent: Module,
        name: str,
        bus: AxiLiteBus,
        clk: Signal,
        strict: bool = True,
    ) -> None:
        super().__init__(parent, name)
        self.bus = bus
        self.clk = clk
        self.strict = strict
        self.transfers: list[AxiLiteTransfer] = []
        self.violations: list[str] = []
        self.cycles_observed = 0
        self.busy_cycles = 0
        self._pending_aw: deque[int] = deque()
        self._pending_w: deque[tuple[int, int]] = deque()
        self._pending_ar: deque[int] = deque()
        self._held_awaddr: int | None = None
        self._held_araddr: int | None = None
        self.thread(self._watch, "watch")

    def _violation(self, message: str) -> None:
        text = f"{self.sim.time_str()}: {message}"
        self.violations.append(text)
        self.sim.report_detection(self.path, text)
        if self.strict:
            raise ProtocolError(f"{self.path}: {text}")

    def signatures(self) -> list[tuple]:
        return [t.signature() for t in self.transfers]

    def _record(self, transfer: AxiLiteTransfer) -> None:
        transfer.txn_id = new_txn_id()
        self.transfers.append(transfer)
        probes = self.sim._probes
        if probes is not None:
            probes.emit(TRANSACTION_END, self.sim.time, self.path, transfer, None)

    def _watch(self):
        bus = self.bus
        while True:
            yield self.clk.posedge
            self.cycles_observed += 1
            if (high(bus.awvalid.read()) or high(bus.wvalid.read())
                    or high(bus.arvalid.read())):
                self.busy_cycles += 1
            self._check_stability()
            if bus.aw_handshake():
                addr = bus.awaddr.read()
                if not addr.is_fully_defined:
                    self._violation("AW handshake with undefined AWADDR")
                    continue
                self._pending_aw.append(addr.to_int())
                self._held_awaddr = None
            if bus.w_handshake():
                data = bus.wdata.read()
                strb = bus.wstrb.read().to_int_default(bus.strb_mask)
                self._pending_w.append(
                    (data.to_int() if data.is_fully_defined else None, strb)
                )
            if bus.ar_handshake():
                addr = bus.araddr.read()
                if not addr.is_fully_defined:
                    self._violation("AR handshake with undefined ARADDR")
                    continue
                self._pending_ar.append(addr.to_int())
                self._held_araddr = None
            if bus.b_handshake():
                self._complete_write()
            if bus.r_handshake():
                self._complete_read()

    def _check_stability(self) -> None:
        """Payload wires must hold steady while VALID awaits READY."""
        bus = self.bus
        if high(bus.awvalid.read()) and not high(bus.awready.read()):
            addr = bus.awaddr.read().to_int_default(None)
            if self._held_awaddr is not None and addr != self._held_awaddr:
                self._violation("AWADDR changed while AWVALID held")
            self._held_awaddr = addr
        else:
            self._held_awaddr = None
        if high(bus.arvalid.read()) and not high(bus.arready.read()):
            addr = bus.araddr.read().to_int_default(None)
            if self._held_araddr is not None and addr != self._held_araddr:
                self._violation("ARADDR changed while ARVALID held")
            self._held_araddr = addr
        else:
            self._held_araddr = None

    def _complete_write(self) -> None:
        bus = self.bus
        resp = bus.bresp.read().to_int_default(None)
        if resp is None:
            self._violation("B handshake with undefined BRESP")
            return
        if resp == RESP_EXOKAY:
            self._violation("EXOKAY response on AXI4-Lite (no exclusives)")
        if not self._pending_aw or not self._pending_w:
            self._violation("B response without matching AW/W handshake")
            return
        address = self._pending_aw.popleft()
        data, strb = self._pending_w.popleft()
        if data is None:
            self._violation("write completed with undefined WDATA")
            return
        self._record(AxiLiteTransfer(address, True, data, strb, resp,
                                     self.sim.time))

    def _complete_read(self) -> None:
        bus = self.bus
        resp = bus.rresp.read().to_int_default(None)
        if resp is None:
            self._violation("R handshake with undefined RRESP")
            return
        if resp == RESP_EXOKAY:
            self._violation("EXOKAY response on AXI4-Lite (no exclusives)")
        if not self._pending_ar:
            self._violation("R beat without matching AR handshake")
            return
        address = self._pending_ar.popleft()
        value = bus.rdata.read()
        data: int | None = None
        if value.is_fully_defined:
            data = value.to_int()
        elif resp == 0:
            self._violation("RVALID completion with undefined RDATA")
            return
        self._record(AxiLiteTransfer(address, False, data, bus.strb_mask,
                                     resp, self.sim.time))
