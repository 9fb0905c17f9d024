"""``python -m repro compile`` — lower a script's netlists to code.

Executes an arbitrary Python script (typically an example platform)
with a process-wide synthesis sink installed — the same capture trick
as ``python -m repro analyze`` — and pushes every synthesized channel
netlist through the :mod:`repro.compile` code generator. The default
output is a per-module stats table; ``--dump`` prints the generated
Python source, ``--check N`` cross-checks the generated combinational
code against :meth:`~repro.analyze.schedule.EvalSchedule.evaluate` on
*N* seeded random vectors per module (exit 1 on any mismatch), and
``--yosys`` emits the Yosys hand-off script for the same netlists'
Verilog.
"""

from __future__ import annotations

import argparse

from .._script import add_script_arguments, captured_synthesis, run_script
from ..core.workload import _Lcg
from .codegen import CodegenError, CompiledNetlist, compile_module
from .yosys import emit_yosys_script


def add_arguments(parser: argparse.ArgumentParser) -> None:
    add_script_arguments(parser, "compile")
    parser.add_argument(
        "--dump", action="store_true",
        help="print the generated Python source of every netlist",
    )
    parser.add_argument(
        "--check", type=int, default=0, metavar="N",
        help="cross-check the generated code against the interpreted "
             "EvalSchedule on N seeded random vectors per module",
    )
    parser.add_argument(
        "--output", metavar="FILE", default=None,
        help="write the output to FILE instead of stdout",
    )
    parser.add_argument(
        "--yosys", action="store_true",
        help="also emit the Yosys synthesis script for the netlists' "
             "generated Verilog",
    )


def _cross_check(
    module, netlist: CompiledNetlist, vectors: int, seed: int
) -> "tuple[int, str | None]":
    """Compare ``netlist.comb`` with the levelized interpreter on
    seeded random boundary vectors; ``(checked, first_mismatch)``."""
    from ..analyze.schedule import levelize

    result = levelize(module)
    if result.schedule is None:
        return 0, "module has combinational loops"
    schedule = result.schedule
    boundary = sorted(schedule.boundary_nets(), key=lambda net: net.name)
    rng = _Lcg(seed ^ 0x5EED)
    for _ in range(vectors):
        env = {
            net.name: rng.next_int(1 << min(net.width, 30))
            for net in boundary
        }
        expected = schedule.evaluate(env)
        got = netlist.comb(env)
        if got != expected:
            diverging = sorted(
                name for name in expected
                if got.get(name) != expected[name]
            )
            return 0, (
                f"mismatch on nets {', '.join(diverging[:5])} "
                f"(env={env!r})"
            )
    return vectors, None


def run(args: argparse.Namespace) -> int:
    with captured_synthesis() as captured:
        status = run_script(args.script, args.script_args, args.quiet_script)
    if status:
        return status

    if not captured:
        print(
            f"compile: {args.script} performed no communication synthesis "
            "(nothing to compile)"
        )
        return 2

    seed = getattr(args, "seed", None)
    seed = seed if seed is not None else 11
    lines: list[str] = []
    failed = False
    for run_index, (__, result) in enumerate(captured):
        for group in result.groups:
            module = group.channel_ir
            label = f"run{run_index}/{module.name}"
            try:
                netlist = compile_module(module)
            except CodegenError as error:
                lines.append(f"{label}: CODEGEN FAILED: {error}")
                failed = True
                continue
            stats = netlist.stats
            lines.append(
                f"{label}: {stats['comb_steps']} comb steps in "
                f"{stats['levels']} levels, "
                f"{len(netlist.register_names)} registers, "
                f"{stats['source_lines']} generated lines"
            )
            if args.check:
                checked, mismatch = _cross_check(
                    module, netlist, args.check, seed
                )
                if mismatch is None:
                    lines.append(
                        f"  check: {checked} random vectors equal to the "
                        "interpreted schedule"
                    )
                else:
                    lines.append(f"  check: FAILED: {mismatch}")
                    failed = True
            if args.dump:
                lines.append("")
                lines.extend(netlist.source.splitlines())
                lines.append("")
            if args.yosys:
                lines.append("")
                lines.append(f"# yosys script for {module.name}.v")
                lines.extend(
                    emit_yosys_script(
                        [f"{module.name}.v"], module.name,
                        output=f"{module.name}_synth.v",
                    ).splitlines()
                )
                lines.append("")

    text = "\n".join(lines)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.output}")
    else:
        print(text)
    return 1 if failed else 0

