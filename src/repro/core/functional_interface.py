"""The functional (transaction-level) library element.

The Figure 3 counterpart of the pin-accurate PCI interface: the same
global-object channel towards the application, but the bus side is a
direct function call into the functional IP models (optionally annotated
with a per-word latency). Swapping this element for
:class:`~repro.core.pci_interface.PciBusInterface` — and nothing else —
is the communication refinement step the methodology enables.
"""

from __future__ import annotations

from ..errors import SimulationError
from ..hdl.module import Module
from ..iface.element import InterfaceElement
from ..iface.params import IfaceParams
from ..instrument.probes import TRANSACTION_BEGIN, TRANSACTION_END, new_txn_id
from ..kernel.process import Timeout
from ..kernel.simulator import Simulator
from ..osss.arbiter import Arbiter
from ..tlm.interfaces import TlmTarget
from .command import DataType


class FunctionalBusInterface(InterfaceElement):
    """Transaction-level interface element over a functional target.

    :param target: the functional model of everything behind the bus
        (usually an :class:`~repro.tlm.router.AddressRouter`).
    :param word_latency: optional fs consumed per transferred word, for
        loosely-timed modelling (0 = untimed, the fastest simulation).
    """

    BUS_NAME = "pci"
    ABSTRACTION = "functional"

    def __init__(
        self,
        parent: "Module | Simulator",
        name: str,
        target: TlmTarget,
        word_latency: int = 0,
        arbiter: Arbiter | None = None,
        channel_cls: type | None = None,
        params: IfaceParams | None = None,
    ) -> None:
        from .bus_interface import BusInterfaceChannel

        super().__init__(parent, name, arbiter, params,
                         channel_cls or BusInterfaceChannel)
        if word_latency < 0:
            raise SimulationError(f"word latency must be >= 0, got {word_latency}")
        self.target = target
        self.word_latency = word_latency
        self.words_transferred = 0
        self.thread(self._dispatch, "dispatch")

    def _dispatch(self):
        while True:
            epoch, command = yield from self.channel.call("get_command")
            probes = self.sim._probes
            if probes is not None:
                # Each service gets a fresh id (the same CommandType may
                # be replayed by a repeating application).
                command.txn_id = new_txn_id()
                begin = self.sim.time
                probes.emit(TRANSACTION_BEGIN, begin, self.path, command)
            if self.word_latency:
                yield Timeout(self.word_latency * command.count)
            if command.is_write:
                for offset, word in enumerate(command.data):
                    self.target.write_word(
                        command.address + 4 * offset, word, command.byte_enables
                    )
                self.words_transferred += command.count
                if probes is not None:
                    probes.emit(
                        TRANSACTION_END, self.sim.time, self.path, command, begin
                    )
            else:
                words = [
                    self.target.read_word(command.address + 4 * i)
                    for i in range(command.count)
                ]
                self.words_transferred += command.count
                if probes is not None:
                    probes.emit(
                        TRANSACTION_END, self.sim.time, self.path, command, begin
                    )
                response = DataType(words, "ok")
                response.corr_id = command.corr_id
                yield from self.channel.call("put_response", epoch, response)
            self.commands_serviced += 1
