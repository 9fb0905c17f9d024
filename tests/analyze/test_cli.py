"""``python -m repro analyze`` CLI behaviour against tiny scripts."""

import json

import pytest

from repro.__main__ import main

CLEAN_SCRIPT = """\
from repro.hdl import Clock, Module
from repro.kernel import NS, Simulator
from repro.osss import GlobalObject, connect, guarded_method
from repro.synthesis import SynthesisConfig, synthesize_communication


class Latch:
    def __init__(self):
        self.value = 0

    @guarded_method()
    def store(self, v):
        self.value = v


sim = Simulator()
clock = Clock(sim, "clock", period=10 * NS)
hosts = [GlobalObject(Module(sim, f"h{i}"), "obj", Latch) for i in range(2)]
connect(*hosts)
synthesize_communication(sim, clock.clk, SynthesisConfig(emit_hdl=False))
print("script ran")
"""

NO_SYNTH_SCRIPT = """\
from repro.kernel import Simulator

sim = Simulator()
"""


def analyze(argv):
    return main(["analyze", *argv])


@pytest.fixture
def clean_script(tmp_path):
    path = tmp_path / "design.py"
    path.write_text(CLEAN_SCRIPT)
    return str(path)


class TestAnalyzeCli:
    def test_clean_script_table(self, clean_script, capsys):
        assert analyze([clean_script]) == 0
        out = capsys.readouterr().out
        assert "script ran" in out  # script stdout passes through
        assert "analyze run0: 2 module(s), clean" in out

    def test_quiet_script_swallows_stdout(self, clean_script, capsys):
        assert analyze(["--quiet-script", clean_script]) == 0
        out = capsys.readouterr().out
        assert "script ran" not in out
        assert "analyze run0" in out

    def test_schedule_dump(self, clean_script, capsys):
        assert analyze(["--quiet-script", "--schedule", clean_script]) == 0
        out = capsys.readouterr().out
        assert "schedule " in out and "level 0:" in out

    def test_json_format(self, clean_script, capsys):
        assert analyze(["--quiet-script", "--format", "json",
                        clean_script]) == 0
        payload = json.loads(capsys.readouterr().out)
        (report,) = payload
        assert report["label"] == "run0"
        assert len(report["modules"]) == 2
        assert report["diagnostics"] == []

    def test_sarif_to_file(self, clean_script, tmp_path, capsys):
        out_file = tmp_path / "report.sarif"
        assert analyze(["--quiet-script", "--format", "sarif",
                        "--output", str(out_file), clean_script]) == 0
        sarif = json.loads(out_file.read_text())
        assert sarif["version"] == "2.1.0"
        (run,) = sarif["runs"]
        assert run["tool"]["driver"]["name"] == "repro-analyze"
        assert run["results"] == []
        # Summary still lands on stdout when the report goes to a file.
        assert "analyze run0" in capsys.readouterr().out

    def test_unknown_suppression_rejected(self, clean_script, capsys):
        assert analyze(["--suppress", "BOGUS999", clean_script]) == 2
        assert "unknown rule in --suppress" in capsys.readouterr().out

    def test_comma_separated_suppressions_accepted(self, clean_script,
                                                   capsys):
        assert analyze(["--quiet-script", "--suppress", "NET002,FSM003",
                        clean_script]) == 0
        assert "analyze run0" in capsys.readouterr().out

    def test_script_without_synthesis_fails(self, tmp_path, capsys):
        path = tmp_path / "empty.py"
        path.write_text(NO_SYNTH_SCRIPT)
        assert analyze([str(path)]) == 2
        assert "performed no communication synthesis" in (
            capsys.readouterr().out
        )

    def test_script_argv_passthrough(self, tmp_path, capsys):
        path = tmp_path / "argv.py"
        path.write_text(
            "import sys\n"
            + CLEAN_SCRIPT
            + "print('argv:', sys.argv[1:])\n"
        )
        assert analyze([str(path), "--depth", "3"]) == 0
        assert "argv: ['--depth', '3']" in capsys.readouterr().out
