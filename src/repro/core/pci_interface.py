"""The PCI library element: pin-accurate bus interface.

This is the representative library component the paper implements: *"an
handler of a simplified version of the PCI bus ... receives requests by
an application in the form of function and procedure invocation and
translates them into pin-level PCI operation requests."*

Structure (paper, Section 1): the interface module consists of

* one global object (the :class:`~repro.core.bus_interface.
  BusInterfaceChannel`) to communicate with the application, and
* several processes implementing the pin-level PCI protocol — here the
  command dispatcher plus the :class:`~repro.pci.master.PciMaster`
  engine it drives.
"""

from __future__ import annotations

from ..hdl.module import Module
from ..hdl.signal import Signal
from ..iface.element import InterfaceElement
from ..iface.params import IfaceParams
from ..osss.arbiter import Arbiter
from ..pci.constants import STATUS_OK
from ..pci.master import PciMaster
from ..pci.signals import PciBus
from .command import DataType


class PciBusInterface(InterfaceElement):
    """Pin-accurate PCI interface element.

    :param bus: the PCI wire bundle to attach to.
    :param clk: the bus clock.
    :param master_index: which REQ#/GNT# pair to use.
    """

    BUS_NAME = "pci"
    ABSTRACTION = "pin_accurate"

    def __init__(
        self,
        parent: Module,
        name: str,
        bus: PciBus,
        clk: Signal,
        master_index: int = 0,
        arbiter: Arbiter | None = None,
        channel_cls: type | None = None,
        params: IfaceParams | None = None,
    ) -> None:
        from .bus_interface import BusInterfaceChannel

        if params is None:
            params = IfaceParams(data_width=bus.ad_width)
        super().__init__(parent, name, arbiter, params,
                         channel_cls or BusInterfaceChannel)
        self.check_bus_widths(data_width=bus.ad_width)
        self.bus = bus
        self.clk = clk
        self.master = PciMaster(self, "master", bus, clk, master_index)
        self.operations_failed = 0
        self.thread(self._dispatch, "dispatch")

    def _apply_recovery(self, recovery) -> None:
        """Arm PERR#-style read-parity checking in the master engine."""
        self.master.check_parity = bool(
            getattr(recovery, "check_parity", False)
        )

    @staticmethod
    def _operation_failure(operation) -> str | None:
        """Failure tag of a completed PCI operation, None on success."""
        if operation.status != STATUS_OK:
            return operation.status
        if operation.parity_error:
            return "parity"
        return None

    def _dispatch(self):
        """Forever: take a command from the channel, run it on the pins.

        With recovery armed, failed operations (master abort, target
        abort, read-parity mismatch) are replayed from the command a
        bounded number of times before the failure is surfaced.
        """
        while True:
            epoch, command = yield from self.channel.call("get_command")
            if self.recovery is None:
                operation = command.to_pci_operation()
                yield from self.master.transact(operation)
            else:
                operation = yield from self._transact_with_recovery(
                    command,
                    lambda cmd: cmd.to_pci_operation(),
                    self.master.transact,
                    self._operation_failure,
                )
            self.commands_serviced += 1
            if self._operation_failure(operation) is not None:
                self.operations_failed += 1
            if command.is_read:
                response = DataType(operation.data, operation.status)
                response.corr_id = operation.corr_id
                yield from self.channel.call("put_response", epoch, response)
