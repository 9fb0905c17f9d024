"""``python -m repro analyze`` — netlist analysis over a user script.

Executes an arbitrary Python script (typically an example platform)
with a process-wide synthesis sink installed, so every
:func:`~repro.synthesis.tool.synthesize_communication` run the script
performs is captured without the script changing a line. Each captured
run is then analyzed: driver/reader graph, combinational levelization
(``--schedule`` dumps it), FSM liveness, X-propagation, and the
design-level shared-state race check. Output is a human-readable
table, plain JSON, or SARIF for code-scanning upload; the exit status
is non-zero when any error-severity finding survives.
"""

from __future__ import annotations

import argparse

from .._script import add_script_arguments, captured_synthesis, run_script
from ..lint.cli import add_checker_arguments, config_from_args
from ..lint.sarif import render_sarif
from .passes import AnalysisReport, analyze_design


def add_arguments(parser: argparse.ArgumentParser) -> None:
    add_script_arguments(parser, "analyze")
    add_checker_arguments(parser)
    parser.add_argument(
        "--format", choices=("table", "json", "sarif"), default="table",
        help="output format (default table)",
    )
    parser.add_argument(
        "--output", metavar="FILE", default=None,
        help="write the report to FILE instead of stdout",
    )
    parser.add_argument(
        "--schedule", action="store_true",
        help="dump the levelized evaluation schedule of every netlist",
    )


def _render_table(reports: list[AnalysisReport], show_schedule: bool) -> str:
    lines: list[str] = []
    for report in reports:
        lines.append(report.summary_line())
        for analysis in report.modules:
            stats = analysis.stats()
            lines.append(
                f"  {analysis.module.name}: {stats['nets']} nets, "
                f"{stats['registers']} registers, {stats['fsms']} fsm(s), "
                f"{stats['comb_steps']} comb steps "
                f"(depth {stats['comb_depth']}, "
                f"{stats['comb_loops']} loop(s))"
            )
            if show_schedule and analysis.schedule is not None:
                for line in analysis.schedule.describe().splitlines():
                    lines.append(f"    {line}")
        if report.lint.diagnostics:
            for diagnostic in sorted(
                report.lint.diagnostics,
                key=lambda d: (-int(d.severity), d.rule_id, d.path),
            ):
                lines.append(diagnostic.render())
    return "\n".join(lines)


def run(args: argparse.Namespace) -> int:
    config = config_from_args(args)
    if config is None:
        return 2

    with captured_synthesis() as captured:
        status = run_script(args.script, args.script_args, args.quiet_script)
    if status:
        return status

    if not captured:
        print(
            f"analyze: {args.script} performed no communication synthesis "
            "(nothing to analyze)"
        )
        return 2

    reports = [
        analyze_design(result, sim, config, label=f"run{index}")
        for index, (sim, result) in enumerate(captured)
    ]

    if args.format == "sarif":
        text = render_sarif([r.lint for r in reports], "repro-analyze")
    elif args.format == "json":
        import json

        text = json.dumps([r.to_dict() for r in reports], indent=2)
    else:
        text = _render_table(reports, args.schedule)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        for report in reports:
            print(report.summary_line())
    else:
        print(text)
    return 1 if any(r.has_errors for r in reports) else 0

