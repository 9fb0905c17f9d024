"""The AXI4-Lite library interface element.

Same contract as the PCI and Wishbone elements: applications talk to a
:class:`~repro.core.channel.BusInterfaceChannel`, the dispatcher drives
the pin-level AXI4-Lite master. The element pair (pin-accurate plus
functional alias) fills the ``axi4lite`` slot of an
:class:`~repro.core.library.InterfaceLibrary`.
"""

from __future__ import annotations

from ..core.command import CommandType, DataType
from ..core.functional_interface import FunctionalBusInterface
from ..hdl.module import Module
from ..hdl.signal import Signal
from ..iface.element import InterfaceElement
from ..iface.params import IfaceParams
from ..osss.arbiter import Arbiter
from .master import AxiLiteMaster, AxiLiteOperation
from .signals import AxiLiteBus


def _to_axi_operation(
    command: CommandType, strb_bits: int = 4
) -> AxiLiteOperation:
    if command.is_write:
        operation = AxiLiteOperation.write(
            command.address, command.data, strb=command.byte_enables,
            strb_bits=strb_bits,
        )
    else:
        operation = AxiLiteOperation.read(
            command.address, count=command.count, strb=command.byte_enables,
            strb_bits=strb_bits,
        )
    operation.corr_id = command.corr_id
    return operation


class AxiLiteBusInterface(InterfaceElement):
    """Pin-accurate AXI4-Lite interface element."""

    BUS_NAME = "axi4lite"
    ABSTRACTION = "pin_accurate"

    def __init__(
        self,
        parent: Module,
        name: str,
        bus: AxiLiteBus,
        clk: Signal,
        arbiter: Arbiter | None = None,
        params: IfaceParams | None = None,
    ) -> None:
        if params is None:
            params = IfaceParams(
                data_width=bus.data_width, addr_width=bus.addr_width
            )
        super().__init__(parent, name, arbiter, params)
        self.check_bus_widths(
            data_width=bus.data_width, addr_width=bus.addr_width
        )
        self.bus = bus
        self.clk = clk
        self.master = AxiLiteMaster(self, "master", bus, clk)
        self.operations_failed = 0
        self.thread(self._dispatch, "dispatch")

    @staticmethod
    def _operation_failure(operation) -> str | None:
        return None if operation.status == "ok" else operation.status

    def _dispatch(self):
        strb_bits = self.bus.strb_width
        while True:
            epoch, command = yield from self.channel.call("get_command")
            if self.recovery is None:
                operation = _to_axi_operation(command, strb_bits)
                yield from self.master.transact(operation)
            else:
                operation = yield from self._transact_with_recovery(
                    command,
                    lambda cmd: _to_axi_operation(cmd, strb_bits),
                    self.master.transact,
                    self._operation_failure,
                )
            self.commands_serviced += 1
            if operation.status != "ok":
                self.operations_failed += 1
            if command.is_read:
                response = DataType(operation.data, operation.status)
                response.corr_id = operation.corr_id
                yield from self.channel.call("put_response", epoch, response)


class AxiLiteFunctionalInterface(FunctionalBusInterface):
    """The functional element re-tagged for the axi4lite library slot."""

    BUS_NAME = "axi4lite"
    ABSTRACTION = "functional"
