"""repro.compile — the compiled fast-sim backend.

Lowers synthesized RTL netlists (``repro.synthesis.ir``) to generated
straight-line Python and packages the result as a
:class:`CompiledChannel`: the interpreted
:class:`~repro.synthesis.rtl_channel.RtlMethodChannel` with its server
core replaced by the generated code, selected with
``backend="compiled"`` on :class:`~repro.synthesis.tool.SynthesisConfig`
(or ``PciPlatformConfig.backend``). The swap matrix's ``compiled`` level
is the one place above the platform builder that selects it. The two
backends are cycle- and commit-equivalent by construction; the
equivalence gate is enforced by the backend-parity test suite.
"""

from .codegen import CodegenError, CompiledNetlist, compile_module
from .channel import CompiledChannel
from .yosys import emit_yosys_script

__all__ = [
    "CodegenError",
    "CompiledChannel",
    "CompiledNetlist",
    "compile_module",
    "emit_yosys_script",
]
