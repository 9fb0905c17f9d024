"""Passive Wishbone monitor: protocol rules + transaction recording."""

from __future__ import annotations

from ..errors import ProtocolError
from ..hdl.module import Module
from ..hdl.signal import Signal
from ..instrument.probes import TRANSACTION_END, new_txn_id
from .signals import WishboneBus


class WishboneTransfer:
    """One observed terminated phase."""

    def __init__(self, address: int, is_write: bool, data: int | None,
                 sel: int, time: int, terminated_by: str) -> None:
        self.address = address
        self.is_write = is_write
        self.data = data
        self.sel = sel
        self.time = time
        self.terminated_by = terminated_by
        #: Stable id for transaction probe pairing.
        self.txn_id: int | None = None
        #: Correlation id back-filled by the span layer (by time/address
        #: containment against the master's operation span).
        self.corr_id: str | None = None

    def signature(self) -> tuple:
        return (self.address, self.is_write, self.data, self.sel,
                self.terminated_by)

    def __repr__(self) -> str:
        kind = "write" if self.is_write else "read"
        return (f"WishboneTransfer({kind} @{self.address:#010x} "
                f"data={self.data!r} [{self.terminated_by}])")


class WishboneMonitor(Module):
    """Watches the wires; checks the basic classic-cycle rules."""

    def __init__(
        self,
        parent: Module,
        name: str,
        bus: WishboneBus,
        clk: Signal,
        strict: bool = True,
    ) -> None:
        super().__init__(parent, name)
        self.bus = bus
        self.clk = clk
        self.strict = strict
        self.transfers: list[WishboneTransfer] = []
        self.violations: list[str] = []
        self.cycles_observed = 0
        self.busy_cycles = 0
        self.thread(self._watch, "watch")

    def _violation(self, message: str) -> None:
        text = f"{self.sim.time_str()}: {message}"
        self.violations.append(text)
        self.sim.report_detection(self.path, text)
        if self.strict:
            raise ProtocolError(f"{self.path}: {text}")

    def signatures(self) -> list[tuple]:
        return [t.signature() for t in self.transfers]

    def _watch(self):
        bus = self.bus
        while True:
            yield self.clk.posedge
            self.cycles_observed += 1
            request = bus.request_active()
            ack = bus.ack_active()
            err = bus.err_active()
            if request:
                self.busy_cycles += 1
            if (ack or err) and not request:
                self._violation("ACK/ERR asserted without CYC&STB")
                continue
            if ack and err:
                self._violation("ACK and ERR asserted together")
                continue
            if not (ack or err):
                continue
            adr = bus.adr.read()
            if not adr.is_fully_defined:
                self._violation("termination with undefined ADR")
                continue
            is_write = bus.we.read().to_int_default(0) == 1
            sel = bus.sel.read().to_int_default(bus.sel_mask)
            data: int | None = None
            if ack:
                source = bus.dat_w if is_write else bus.dat_r
                value = source.read()
                if not value.is_fully_defined:
                    self._violation("ACK with undefined data")
                    continue
                data = value.to_int()
            transfer = WishboneTransfer(
                adr.to_int(), is_write, data, sel, self.sim.time,
                "ack" if ack else "err",
            )
            transfer.txn_id = new_txn_id()
            self.transfers.append(transfer)
            # Wishbone classic cycles terminate in the cycle they are
            # observed; only the end probe is meaningful, with no begin.
            probes = self.sim._probes
            if probes is not None:
                probes.emit(
                    TRANSACTION_END, self.sim.time, self.path, transfer, None
                )
