"""Running a user script in-process, shared by the script subcommands.

``analyze``, ``compile``, ``profile`` and ``spans`` each execute an
arbitrary Python script (typically one of the examples) with a
process-wide hook installed — a synthesis sink or a default probe bus —
and then report on what the script did, without the script changing a
line.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import runpy
import sys
import typing

from .synthesis.tool import set_synthesis_sink

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .kernel.simulator import Simulator
    from .synthesis.tool import SynthesisResult


def add_script_arguments(
    parser: argparse.ArgumentParser, verb: str, optional: bool = False
) -> None:
    """The ``script`` / ``script_args`` / ``--quiet-script`` block.

    :param verb: what the subcommand does to the script, for the help.
    :param optional: the script may be omitted (``spans --diff``).
    """
    parser.add_argument(
        "script",
        nargs="?" if optional else None,
        help=f"Python script to {verb} (e.g. examples/pci_system.py)",
    )
    parser.add_argument(
        "script_args",
        nargs=argparse.REMAINDER,
        help="arguments passed through to the script",
    )
    parser.add_argument(
        "--quiet-script", action="store_true",
        help="suppress the script's stdout",
    )


def run_script(script: str, script_args: list[str], quiet: bool) -> int:
    """Execute *script* as ``__main__`` with *script_args* as its argv.

    A script ending in ``sys.exit(main())`` raises ``SystemExit``; it
    must not take the calling subcommand down with it.

    :returns: 0 when the script finished or exited with status 0 or
        ``None``; otherwise the (nonzero) status, after printing
        ``script exited with status N`` to stderr.
    """
    saved_argv = sys.argv
    sys.argv = [script, *script_args]
    saved_stdout = sys.stdout
    if quiet:
        sys.stdout = io.StringIO()
    status: object = None
    try:
        runpy.run_path(script, run_name="__main__")
    except SystemExit as exc:
        status = exc.code
    finally:
        sys.stdout = saved_stdout
        sys.argv = saved_argv
    if status is None or status == 0:
        return 0
    print(f"script exited with status {status}", file=sys.stderr)
    return status if isinstance(status, int) else 1


@contextlib.contextmanager
def captured_synthesis() -> (
    "typing.Iterator[list[tuple[Simulator, SynthesisResult]]]"
):
    """Collect the ``(sim, result)`` of every communication synthesis
    run performed inside the block."""
    captured: "list[tuple[Simulator, SynthesisResult]]" = []
    previous = set_synthesis_sink(
        lambda sim, result: captured.append((sim, result))
    )
    try:
        yield captured
    finally:
        set_synthesis_sink(previous)
