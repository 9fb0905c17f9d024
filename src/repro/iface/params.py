"""Structural parameters of a library interface element.

The paper's library promise only holds if the elements are *generic*:
one PCI handler that elaborates at 16, 32 or 64 bits, not three
hand-written variants. :class:`IfaceParams` is the single record every
element (and the generic platform builder) elaborates from — data and
address path widths, the burst ceiling and the response-FIFO depth of
the :class:`~repro.core.bus_interface.BusInterfaceChannel`.

Widths flow outward from here: into the :mod:`repro.hdl` signals of the
wire bundles, through :mod:`repro.synthesis` into the generated netlists
and emitted Verilog/VHDL, and into the compiled backend's masking — the
``generate``-style elaboration step of classic HDLs.
"""

from __future__ import annotations

import dataclasses

from ..errors import RefinementError


@dataclasses.dataclass(frozen=True)
class IfaceParams:
    """Elaboration parameters shared by every interface element.

    :param data_width: bit width of the data path (must be a multiple
        of 8 — byte enables select whole lanes).
    :param addr_width: bit width of the address path.
    :param max_burst: largest burst (in words) an element accepts.
    :param response_capacity: read responses the element's channel can
        buffer before the protocol side blocks (see
        :class:`~repro.core.bus_interface.BusInterfaceChannel`).
    """

    data_width: int = 32
    addr_width: int = 32
    max_burst: int = 8
    response_capacity: int = 4

    def __post_init__(self) -> None:
        if self.data_width < 8 or self.data_width % 8:
            raise RefinementError(
                f"data_width must be a positive multiple of 8, got "
                f"{self.data_width}"
            )
        if self.addr_width < 1:
            raise RefinementError(
                f"addr_width must be >= 1, got {self.addr_width}"
            )
        if self.max_burst < 1:
            raise RefinementError(
                f"max_burst must be >= 1, got {self.max_burst}"
            )
        if self.response_capacity < 1:
            raise RefinementError(
                f"response_capacity must be >= 1, got "
                f"{self.response_capacity}"
            )

    # -- derived structural facts -----------------------------------------

    @property
    def byte_lanes(self) -> int:
        """Byte-enable lanes on the data path."""
        return self.data_width // 8

    @property
    def byte_enable_mask(self) -> int:
        """All byte lanes enabled (e.g. ``0xF`` at 32 bits)."""
        return (1 << self.byte_lanes) - 1

    @property
    def data_mask(self) -> int:
        return (1 << self.data_width) - 1

    @property
    def addr_mask(self) -> int:
        return (1 << self.addr_width) - 1

    @property
    def word_bytes(self) -> int:
        """Bytes per full-width data beat."""
        return self.data_width // 8

    def describe(self) -> dict:
        """Flat record for reports and ``describe()`` metadata."""
        return {
            "data_width": self.data_width,
            "addr_width": self.addr_width,
            "max_burst": self.max_burst,
            "response_capacity": self.response_capacity,
            "byte_lanes": self.byte_lanes,
        }
