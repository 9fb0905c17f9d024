"""The parameterized interface-element library (`repro.iface`).

One abstraction for every bus-interface IP: :class:`InterfaceElement`
(the paper's global-object-plus-protocol-processes pattern) elaborated
from :class:`IfaceParams` (data/address width, burst length,
response-FIFO depth). The swap matrix (:mod:`repro.iface.matrix`) proves
the library claim: the same application runs against PCI, Wishbone,
AXI4-Lite and TLM-GP elements at every refinement level with
per-transaction consistency verdicts.
"""

from .element import InterfaceElement, is_interface_element
from .params import IfaceParams

__all__ = [
    "IfaceParams",
    "InterfaceElement",
    "is_interface_element",
    "run_swap_matrix",
    "SwapMatrixReport",
]


def __getattr__(name: str):
    # The matrix builds platforms (flow -> core -> iface); import it
    # lazily so `repro.iface` stays importable from the element modules.
    if name in ("run_swap_matrix", "SwapMatrixReport", "MatrixCell"):
        from . import matrix

        return getattr(matrix, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
