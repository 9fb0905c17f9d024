"""The parameterized interface-element base.

:class:`InterfaceElement` is the one shape every library IP follows —
the :class:`~repro.core.bus_interface.BusInterface` pattern (a single
``BusInterfaceChannel``-shaped global object towards the application,
protocol processes towards the wires) plus structural elaboration from
an :class:`~repro.iface.params.IfaceParams`. Concrete elements (PCI,
Wishbone, AXI4-Lite, TLM-GP, functional) subclass this and consume
``self.params`` instead of per-bus width constants.
"""

from __future__ import annotations

import typing

from ..core.bus_interface import BusInterface, BusInterfaceChannel
from ..hdl.module import Module
from ..kernel.simulator import Simulator
from ..osss.arbiter import Arbiter
from .params import IfaceParams


class InterfaceElement(BusInterface):
    """A :class:`BusInterface` elaborated from :class:`IfaceParams`.

    :param params: structural parameters; ``None`` elaborates the
        defaults (32-bit paths, burst 8, response FIFO of 4).
    """

    def __init__(
        self,
        parent: "Module | Simulator",
        name: str,
        arbiter: Arbiter | None = None,
        params: IfaceParams | None = None,
        channel_cls: type = BusInterfaceChannel,
    ) -> None:
        if params is None:
            params = IfaceParams()
        super().__init__(
            parent, name, arbiter, params.response_capacity, channel_cls
        )
        #: The parameters this element was elaborated with.
        self.params = params

    def check_bus_widths(self, **widths: int) -> None:
        """Assert the attached wire bundle matches ``self.params``.

        Concrete elements call this from their constructor with the
        widths the bus was elaborated at (``data_width=bus.ad_width``,
        ...); a mismatch is a wiring bug worth failing loudly on.
        """
        from ..errors import RefinementError

        expected = {
            "data_width": self.params.data_width,
            "addr_width": self.params.addr_width,
        }
        for key, actual in widths.items():
            want = expected.get(key)
            if want is not None and actual != want:
                raise RefinementError(
                    f"{self.path}: bus {key}={actual} does not match "
                    f"element params {key}={want}"
                )

    def describe(self) -> dict:
        record = super().describe()
        record["params"] = self.params.describe()
        return record

    def structural_summary(self) -> dict:
        """The generate-style elaboration facts, for reports/tests."""
        params = self.params
        return {
            "element": type(self).__name__,
            "bus": self.BUS_NAME,
            "abstraction": self.ABSTRACTION,
            "data_width": params.data_width,
            "addr_width": params.addr_width,
            "byte_lanes": params.byte_lanes,
            "max_burst": params.max_burst,
            "response_capacity": params.response_capacity,
        }


def is_interface_element(module: typing.Any) -> bool:
    """True for instances of the parameterized element base."""
    return isinstance(module, InterfaceElement)
