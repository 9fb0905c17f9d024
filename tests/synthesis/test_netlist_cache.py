"""Tests of the content-addressed netlist cache.

Every synthesis run builds fresh IR, but the lint verdict, the HDL text
and the report rows of a netlist are looked up by its fingerprint. A
warm run must be indistinguishable from a cold one, failures must never
be remembered, and a change to the IR rule set must be seen at once.
"""

import pytest

from repro.errors import SynthesisError
from repro.hdl import Clock, Module
from repro.kernel import NS, Simulator
from repro.lint import Severity
from repro.lint import runner as lint_runner
from repro.lint.engine import IR, LintRule, default_registry
from repro.osss import GlobalObject, connect, guarded_method
from repro.osss.guarded_method import guarded_methods_of
from repro.synthesis import (
    Const,
    build_channel_ir,
    build_object_ir,
    estimate_state_bits,
    synthesize_communication,
    tool,
)
from repro.synthesis.cache import MAX_ENTRIES, NETLIST_CACHE, NetlistCache


class Latch:
    def __init__(self):
        self.value = 0

    @guarded_method()
    def store(self, v):
        self.value = v

    @guarded_method()
    def load(self):
        return self.value


def _synthesize():
    sim = Simulator()
    clock = Clock(sim, "clock", period=10 * NS)
    hosts = [GlobalObject(Module(sim, f"h{i}"), "obj", Latch) for i in range(2)]
    connect(*hosts)
    return synthesize_communication(sim, clock.clk)


CHANNEL = dict(
    name="chan", n_clients=2, method_names=["load", "store"],
    arbiter_kind="round_robin", body_cycles=1, priorities=None,
    data_width=32,
)


def _channel_fingerprint(**changes):
    return build_channel_ir(**{**CHANNEL, **changes}).fingerprint()


def _object_fingerprint(state):
    methods = guarded_methods_of(Latch)
    return build_object_ir("obj", state, methods, sorted(methods)).fingerprint()


@pytest.fixture
def cold_cache():
    NETLIST_CACHE.clear()
    yield NETLIST_CACHE
    NETLIST_CACHE.clear()


class TestFingerprint:
    def test_equal_for_two_builds_of_one_design(self):
        assert _channel_fingerprint() == _channel_fingerprint()
        assert _object_fingerprint(Latch()) == _object_fingerprint(Latch())
        first, second = _synthesize(), _synthesize()
        assert first.groups[0].channel_ir is not second.groups[0].channel_ir
        for a, b in zip(first.groups, second.groups):
            assert a.channel_ir.fingerprint() == b.channel_ir.fingerprint()
            assert a.object_ir.fingerprint() == b.object_ir.fingerprint()

    @pytest.mark.parametrize("changes", [
        dict(n_clients=3),
        dict(method_names=["load", "save"]),
        dict(arbiter_kind="fcfs"),
        dict(arbiter_kind="static_priority", priorities=[0, 1]),
        dict(body_cycles=2),
        dict(data_width=16),
    ], ids=lambda changes: ",".join(changes))
    def test_channel_parameters_change_it(self, changes):
        assert _channel_fingerprint(**changes) != _channel_fingerprint()

    def test_priorities_change_it(self):
        assert (
            _channel_fingerprint(arbiter_kind="static_priority",
                                 priorities=[0, 1])
            != _channel_fingerprint(arbiter_kind="static_priority",
                                    priorities=[1, 0])
        )

    def test_object_state_size_changes_it(self):
        narrow = Latch()
        narrow.value = True
        assert estimate_state_bits(narrow) != estimate_state_bits(Latch())
        assert _object_fingerprint(narrow) != _object_fingerprint(Latch())

    def test_comments_change_it(self):
        module = build_channel_ir(**CHANNEL)
        before = module.fingerprint()
        module.assigns[0].comment += " (edited)"
        assert module.fingerprint() != before


class TestWarmSynthesis:
    def test_warm_run_equals_cold_run_with_fresh_ir(self, cold_cache,
                                                    monkeypatch):
        cold = _synthesize()
        assert len(cold_cache) > 0
        emitted = []
        monkeypatch.setattr(tool, "emit_verilog",
                            lambda module: emitted.append(module) or "")
        warm = _synthesize()
        assert emitted == []  # the text came from the cache
        assert warm.all_verilog() == cold.all_verilog() != ""
        assert warm.all_vhdl() == cold.all_vhdl() != ""
        assert [m.row() for m in warm.report.modules] == \
            [m.row() for m in cold.report.modules]
        assert warm.report.render() == cold.report.render()
        for a, b in zip(warm.report.modules, cold.report.modules):
            assert a is not b
        for a, b in zip(warm.groups, cold.groups):
            assert a.channel_ir is not b.channel_ir
            assert a.object_ir is not b.object_ir

    def test_passing_netlists_are_linted_once(self, cold_cache, monkeypatch):
        linted = []
        real = lint_runner.lint_rtl_module
        monkeypatch.setattr(
            lint_runner, "lint_rtl_module",
            lambda module: linted.append(module.name) or real(module),
        )
        _synthesize()
        first = list(linted)
        assert first  # channel and object netlists
        _synthesize()
        assert linted == first


class TestFailuresNotCached:
    def test_failing_netlist_raises_every_call(self, cold_cache, monkeypatch):
        real = tool.build_object_ir

        def broken(*args, **kwargs):
            module = real(*args, **kwargs)
            wire = module.add_net("doubly_driven", 1)
            module.add_assign(wire, Const(0, 1))
            module.add_assign(wire, Const(1, 1))
            return module

        monkeypatch.setattr(tool, "build_object_ir", broken)
        for __ in range(3):
            with pytest.raises(SynthesisError, match="IR005"):
                _synthesize()

    def test_rule_registered_when_warm_runs_next_time(self, cold_cache):
        _synthesize()
        seen = []

        class RejectEverything(LintRule):
            rule_id = "TST901"
            name = "reject-everything"
            target = IR
            default_severity = Severity.ERROR
            description = "test rule: every netlist fails"

            def check(self, module):
                seen.append(module.name)
                yield self.emit(module.name, "rejected")

        default_registry.register(RejectEverything())
        try:
            with pytest.raises(SynthesisError, match="TST901"):
                _synthesize()
            with pytest.raises(SynthesisError, match="TST901"):
                _synthesize()
        finally:
            del default_registry._rules["TST901"]
        assert len(seen) == 2
        _synthesize()  # the original rule set passes again


class TestBound:
    def test_least_recently_used_entry_is_evicted(self):
        cache = NetlistCache()
        for key in range(MAX_ENTRIES):
            cache.get((key,), lambda: "built")
        cache.get((0,), lambda: "rebuilt")  # refresh the oldest entry
        cache.get((MAX_ENTRIES,), lambda: "built")
        assert len(cache) == MAX_ENTRIES
        assert cache.get((0,), lambda: "rebuilt") == "built"
        assert cache.get((1,), lambda: "rebuilt") == "rebuilt"
