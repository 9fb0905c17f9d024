"""The Wishbone library interface element.

Same pattern as :class:`~repro.core.pci_interface.PciBusInterface`: the
application talks guarded methods, the dispatcher drives the pin-level
Wishbone master. Registering this class (plus the functional alias) in
an :class:`~repro.core.library.InterfaceLibrary` gives the library a
second bus — the generalisation the paper's methodology promises.
"""

from __future__ import annotations

from ..core.command import CommandType, DataType
from ..core.functional_interface import FunctionalBusInterface
from ..hdl.module import Module
from ..hdl.signal import Signal
from ..iface.element import InterfaceElement
from ..iface.params import IfaceParams
from ..osss.arbiter import Arbiter
from .master import WishboneMaster, WishboneOperation
from .signals import WishboneBus


def _to_wishbone_operation(
    command: CommandType, sel_bits: int = 4
) -> WishboneOperation:
    if command.is_write:
        operation = WishboneOperation.write(
            command.address, command.data, sel=command.byte_enables,
            sel_bits=sel_bits,
        )
    else:
        operation = WishboneOperation.read(
            command.address, count=command.count, sel=command.byte_enables,
            sel_bits=sel_bits,
        )
    operation.corr_id = command.corr_id
    return operation


class WishboneBusInterface(InterfaceElement):
    """Pin-accurate Wishbone interface element."""

    BUS_NAME = "wishbone"
    ABSTRACTION = "pin_accurate"

    def __init__(
        self,
        parent: Module,
        name: str,
        bus: WishboneBus,
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
        self.master = WishboneMaster(self, "master", bus, clk)
        self.operations_failed = 0
        self.thread(self._dispatch, "dispatch")

    @staticmethod
    def _operation_failure(operation) -> str | None:
        return None if operation.status == "ok" else operation.status

    def _dispatch(self):
        sel_bits = self.bus.sel_width
        while True:
            epoch, command = yield from self.channel.call("get_command")
            if self.recovery is None:
                operation = _to_wishbone_operation(command, sel_bits)
                yield from self.master.transact(operation)
            else:
                operation = yield from self._transact_with_recovery(
                    command,
                    lambda cmd: _to_wishbone_operation(cmd, sel_bits),
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


class WishboneFunctionalInterface(FunctionalBusInterface):
    """The functional element re-tagged for the wishbone library slot."""

    BUS_NAME = "wishbone"
    ABSTRACTION = "functional"
