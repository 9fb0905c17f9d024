"""Tests for the ``python -m repro`` command-line demos."""

import os

import pytest

from repro.__main__ import main


class TestCli:
    def test_library_listing(self, capsys):
        assert main(["library"]) == 0
        out = capsys.readouterr().out
        assert "pci" in out and "wishbone" in out
        assert "PciBusInterface" in out

    def test_refine(self, capsys):
        assert main(["--commands", "6", "refine"]) == 0
        out = capsys.readouterr().out
        assert "trace-consistent: True" in out

    def test_flow(self, capsys):
        assert main(["--commands", "6", "flow"]) == 0
        out = capsys.readouterr().out
        assert "post-synthesis validation" in out
        assert "FAIL" not in out

    def test_report(self, capsys):
        assert main(["--commands", "4", "report"]) == 0
        out = capsys.readouterr().out
        assert "communication synthesis report" in out
        assert "BusInterfaceChannel" in out

    def test_report_with_verilog(self, capsys):
        assert main(["--commands", "4", "report", "--verilog"]) == 0
        out = capsys.readouterr().out
        assert "module chan0" in out

    def test_waveforms(self, capsys, tmp_path):
        vcd_path = str(tmp_path / "out.vcd")
        assert main(["waveforms", "--vcd", vcd_path]) == 0
        out = capsys.readouterr().out
        assert "frame_n" in out
        assert os.path.exists(vcd_path)
        with open(vcd_path) as handle:
            assert "$enddefinitions" in handle.read()

    def test_lint_through_main(self, capsys):
        # Regression: the global --seed default (None) shadows the lint
        # subcommand's own default in the shared argparse namespace.
        assert main(["--commands", "4", "lint", "--target",
                     "functional"]) == 0
        out = capsys.readouterr().out
        assert "clean" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["no-such-command"])


class TestBusSwapCli:
    """The global --bus knob: the same commands, another element."""

    @pytest.mark.parametrize("bus", ["wishbone", "axi4lite", "tlmgp"])
    def test_refine_on_every_family(self, bus, capsys):
        assert main(["--commands", "5", "--bus", bus, "refine"]) == 0
        out = capsys.readouterr().out
        assert "trace-consistent: True" in out

    def test_flow_with_bus(self, capsys):
        assert main(["--commands", "5", "--bus", "axi4lite", "flow"]) == 0
        out = capsys.readouterr().out
        assert "axi4lite-device-under-design" in out or "ok" in out
        assert "FAIL" not in out

    def test_report_with_bus(self, capsys):
        assert main(["--commands", "4", "--bus", "wishbone",
                     "report"]) == 0
        out = capsys.readouterr().out
        assert "communication synthesis report" in out

    def test_functional_bus_rejected(self):
        with pytest.raises(SystemExit):
            main(["--bus", "functional", "flow"])

    def test_waveforms_guard_non_pci(self, capsys):
        assert main(["--bus", "wishbone", "waveforms"]) == 2
        out = capsys.readouterr().out
        assert "PCI-specific" in out

    def test_response_capacity_plumbs_through(self, capsys):
        assert main(["--commands", "5", "--response-capacity", "2",
                     "refine"]) == 0
        out = capsys.readouterr().out
        assert "trace-consistent: True" in out


class TestMatrixCli:
    def test_single_bus_matrix(self, capsys):
        assert main(["--commands", "4", "--bus", "tlmgp", "matrix"]) == 0
        out = capsys.readouterr().out
        assert "swap matrix: seed 55" in out
        assert "ALL CONSISTENT" in out
        assert "3 cells" in out

    def test_matrix_honours_seed(self, capsys):
        assert main(["--seed", "7", "--commands", "4", "--bus",
                     "wishbone", "matrix"]) == 0
        out = capsys.readouterr().out
        assert "swap matrix: seed 7" in out


class TestSeedPlumbing:
    def _output(self, argv, capsys):
        import re

        assert main(argv) == 0
        # Wall-clock timings are the only legitimate run-to-run delta.
        return re.sub(r"\d+\.\d+s", "<t>", capsys.readouterr().out)

    def test_flow_seed_is_reproducible(self, capsys):
        argv = ["--commands", "4", "--seed", "17", "flow"]
        assert self._output(argv, capsys) == self._output(argv, capsys)

    def test_flow_seed_changes_the_workload(self, capsys):
        base = ["--commands", "4"]
        assert self._output([*base, "--seed", "17", "flow"], capsys) \
            != self._output([*base, "--seed", "18", "flow"], capsys)

    def test_waveforms_seed_is_reproducible(self, capsys, tmp_path):
        def dump(name):
            path = str(tmp_path / name)
            assert main(["--seed", "23", "waveforms", "--vcd", path]) == 0
            capsys.readouterr()
            with open(path) as handle:
                return handle.read()

        assert dump("a.vcd") == dump("b.vcd")


class TestFaultCli:
    def test_fault_campaign_table(self, capsys):
        assert main(["fault", "--runs", "6", "--workers", "1"]) == 0
        out = capsys.readouterr().out
        assert "fault campaign 'demo-pci'" in out
        assert "detection coverage" in out

    def test_fault_campaign_json(self, capsys):
        import json

        assert main(["--seed", "11", "fault", "--runs", "6",
                     "--workers", "1", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["campaign"] == "demo-pci"
        assert data["seed"] == 11
        assert len(data["outcomes"]) == 6

    def test_fault_seed_reproducible(self, capsys):
        def classifications():
            assert main(["--seed", "31", "fault", "--runs", "6",
                         "--workers", "1", "--json"]) == 0
            import json

            data = json.loads(capsys.readouterr().out)
            return [(o["run_id"], o["classification"], o["window"])
                    for o in data["outcomes"]]

        assert classifications() == classifications()

    def test_fault_lint_gate(self, capsys):
        assert main(["fault", "--runs", "6", "--workers", "1",
                     "--lint"]) == 0
        out = capsys.readouterr().out
        assert "detection coverage" in out


_EXITING_SCRIPT = """
import sys

from repro.core import CommandType
from repro.flow import build_platform
from repro.kernel import MS


def main():
    commands = [CommandType.write(0x40, [1]), CommandType.read(0x40, count=1)]
    build_platform([commands], bus="pci", synthesize=True).run(5 * MS)
    return {status}


sys.exit(main())
"""


class TestScriptExit:
    """A script ending in ``sys.exit(main())`` must not end the CLI."""

    @pytest.mark.parametrize("command", ["analyze", "compile", "profile",
                                         "spans"])
    @pytest.mark.parametrize("status", [0, None, 3])
    def test_script_exit_status(self, command, status, tmp_path,
                                monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        script = tmp_path / "exiting.py"
        script.write_text(_EXITING_SCRIPT.format(status=status))
        rc = main([command, "--quiet-script", str(script)])
        captured = capsys.readouterr()
        if status == 3:
            assert rc == 3
            assert captured.out == ""
            assert "script exited with status 3" in captured.err
        else:
            assert rc == 0
            assert captured.out.strip()
            assert "script exited" not in captured.err
