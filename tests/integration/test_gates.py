"""The CI gate harness (``benchmarks/gates.py``): its compare rule, its
counting rule, count determinism, and that a 2% counted gate notices
one probe subscriber on a hot kind."""

import importlib.util
import json
import math
import os
import subprocess
import sys

import pytest

from repro.instrument import EVENT_NOTIFY, PROCESS_ACTIVATE

GATES_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "benchmarks", "gates.py",
)
SMALL_PCI = {"seed": 55, "n_commands": 6}


def _load_gates():
    spec = importlib.util.spec_from_file_location("gates", GATES_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gates = _load_gates()


def _pci_setup(attach=None):
    def setup():
        bundle = gates.pci_platform(**SMALL_PCI)
        if attach is not None:
            attach(bundle.handle.sim.probes)
        return lambda: gates.run_to_completion(bundle)
    return setup


class TestCompareRule:
    ENTRY = {"kind": "counted", "reference": 1000, "tolerance": 0.02}

    def test_exactly_at_the_limit_passes(self):
        assert gates.within(gates.limit(self.ENTRY), self.ENTRY)
        assert gates.within(self.ENTRY["reference"], self.ENTRY)

    def test_just_above_the_limit_fails(self):
        above = math.nextafter(gates.limit(self.ENTRY), math.inf)
        assert not gates.within(above, self.ENTRY)

    def test_missing_case_fails_loudly(self, tmp_path):
        baselines = gates.load_baselines()
        del baselines["durable_off"]
        path = tmp_path / "baselines.json"
        path.write_text(json.dumps(baselines))
        with pytest.raises(gates.GateError, match="durable_off"):
            gates.load_baselines(str(path))

    def test_checked_in_baselines_cover_every_case(self):
        baselines = gates.load_baselines()
        assert list(baselines) == list(gates.CASES)
        for entry in baselines.values():
            assert set(entry) == {"kind", "reference", "tolerance", "workload"}
            assert entry["kind"] in gates.MEASURES


class TestCountingRule:
    @staticmethod
    def _code(name, directory):
        code = compile("pass", os.path.join(directory, "probe.py"), "exec")
        return code.replace(co_name=name)

    @pytest.mark.parametrize("name", ["<module>", "<genexpr>", "<lambda>", "run"])
    def test_counts_repro_frames(self, name):
        assert gates.counts_toward(self._code(name, gates.REPRO_DIR))

    @pytest.mark.parametrize("name", ["<listcomp>", "<dictcomp>", "<setcomp>"])
    def test_skips_comprehensions_that_python_inlines(self, name):
        assert not gates.counts_toward(self._code(name, gates.REPRO_DIR))

    def test_skips_code_outside_repro(self):
        here = os.path.dirname(os.path.abspath(__file__))
        assert not gates.counts_toward(self._code("run", here))

    def test_counted_frames_end_to_end(self):
        source = (
            "f = lambda: 1\n"
            "f()\n"
            "list(i for i in ())\n"
            "[i for i in (1, 2)]\n"
            "{i for i in (1, 2)}\n"
            "{i: i for i in (1, 2)}\n"
        )
        code = compile(source, os.path.join(gates.REPRO_DIR, "probe.py"), "exec")
        calls, __ = gates.count_calls(lambda: exec(code, {}))
        assert calls == 3  # <module>, <lambda>, <genexpr>


class TestCountedRuns:
    def test_count_repeats_in_a_fresh_subprocess(self):
        here, __ = gates.measure_counted(_pci_setup())
        again, __ = gates.measure_counted(_pci_setup())
        script = (
            "import importlib.util\n"
            f"spec = importlib.util.spec_from_file_location('gates', {GATES_PATH!r})\n"
            "gates = importlib.util.module_from_spec(spec)\n"
            "spec.loader.exec_module(gates)\n"
            "def setup():\n"
            f"    bundle = gates.pci_platform(**{SMALL_PCI!r})\n"
            "    return lambda: gates.run_to_completion(bundle)\n"
            "print(gates.measure_counted(setup)[0])\n"
        )
        fresh = subprocess.run(
            [sys.executable, "-c", script], check=True,
            capture_output=True, text=True, timeout=120,
        )
        assert here == again == int(fresh.stdout.strip())

    @pytest.mark.parametrize("kind", [EVENT_NOTIFY, PROCESS_ACTIVATE])
    def test_one_noop_subscriber_trips_the_gate(self, kind):
        entry = gates.load_baselines()["pci_probes_off"]
        assert entry["kind"] == "counted"
        assert entry["tolerance"] <= 0.02
        off, __ = gates.measure_counted(_pci_setup())
        on, __ = gates.measure_counted(
            _pci_setup(lambda probes: probes.subscribe(kind, lambda *args: None))
        )
        small = dict(entry, reference=off)
        assert gates.within(off, small)
        assert not gates.within(on, small), (on, off)
