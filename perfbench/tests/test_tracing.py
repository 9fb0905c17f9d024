"""Outside-in tracing: spans land where callers look functions up."""

import json

from repro.core import refinement
from repro.fault import campaign, runner
from repro.flow import platforms
from repro.synthesis import tool

from perfbench import run
from perfbench.tracing import CountingBus, Tracer
from perfbench.workloads import FaultCampaign, SparseSim, SwapMatrix

SEED = 7


def traced(workload):
    bench = run.Bench(workload, SEED, 2)
    bench.tracer = Tracer()
    return bench


def by_name(tracer):
    names = {}
    for span in tracer.spans:
        names.setdefault(span.name, []).append(span)
    return names


def test_fault_spans_nest_under_the_runner_lookups():
    bench = traced(FaultCampaign(runs=6))
    bench.iterate(0, traced=True)
    spans = by_name(bench.tracer)
    (root,) = spans["fault.run_campaign"]
    (plan,) = spans["fault.plan"]
    assert plan.parent == root.sid
    assert len(spans["fault.run"]) == 6
    for run_span in spans["fault.run"]:
        assert run_span.parent == root.sid
        children = {
            span.name for span in bench.tracer.spans if span.parent == run_span.sid
        }
        assert children == {"fault.build", "kernel.run"}
    # golden + probe + one per run, all through the campaign's partials.
    builds = spans["flow.build"]
    assert len(builds) == 8
    assert {span.args["level"] for span in builds} == {"synthesized"}
    synth = spans["synthesis.synthesize"]
    assert len(synth) == 8
    assert sum(span.args["repeat"] for span in synth) == 7
    assert "compile.compile_module" not in spans


def test_originals_restored_after_a_traced_iteration():
    originals = (
        platforms.build_platform,
        runner.execute_run,
        runner.plan_campaign,
        campaign.build_campaign_platform,
        refinement.PlatformHandle.run,
        dict(campaign._BUILDERS),
    )
    bench = traced(FaultCampaign(runs=6))
    bench.iterate(0, traced=True)
    assert originals == (
        platforms.build_platform,
        runner.execute_run,
        runner.plan_campaign,
        campaign.build_campaign_platform,
        refinement.PlatformHandle.run,
        dict(campaign._BUILDERS),
    )
    assert tool.set_synthesis_sink(None) is None


def test_matrix_traces_compile_verify_and_correlate():
    bench = traced(SwapMatrix(n_commands=2))
    bench.iterate(0, traced=True)
    spans = by_name(bench.tracer)
    assert len(spans["compile.compile_module"]) == 4
    assert len(spans["verify.check_traces"]) == 12
    assert len(spans["trace.correlate"]) == 12
    levels = [span.args["level"] for span in spans["flow.build"]]
    # The functional reference plus four functional cells.
    assert levels.count("functional") == 5
    assert levels.count("compiled") == 4


def test_counting_bus_counts_match_the_kernel():
    bench = traced(SparseSim(commands=2))
    bench.iterate(0, traced=True)
    (run_span,) = by_name(bench.tracer)["kernel.run"]
    __, sim_time, deltas, __ = bench.traced_outcomes[0].digest["platform_runs"][0]
    assert run_span.args["deltas"] == deltas
    assert run_span.args["cycles"] * 30_000_000 == sim_time
    assert run_span.args["activations"] > 0
    assert run_span.args["grants"] > 0


def test_each_simulator_gets_its_own_bus():
    bench = traced(FaultCampaign(runs=6))
    buses = []
    original = refinement.PlatformHandle.run

    def spy(handle, max_time):
        buses.append(handle.sim._probes)
        return original(handle, max_time)

    refinement.PlatformHandle.run = spy
    try:
        bench.iterate(0, traced=True)
    finally:
        refinement.PlatformHandle.run = original
    assert len(buses) == 7
    assert all(isinstance(bus, CountingBus) for bus in buses)
    assert len({id(bus) for bus in buses}) == 7


def test_per_layer_metrics_and_chrome_trace(tmp_path):
    catalogue = run._metric_catalogue()
    bench = traced(SparseSim(commands=2))
    bench.iterate(0)
    bench.measure(trace=True)
    assert bench.failed == 0  # traced runs repeat the untraced digests
    metrics = run.per_layer_metrics(bench)
    assert set(metrics) == {metric["name"] for metric in catalogue["per_layer"]}
    assert metrics["synthesis.calls"] == 1
    assert metrics["compile.calls"] == 0
    assert metrics["bench.trace_overhead"] > 0
    path = tmp_path / "trace.json"
    bench.tracer.write_chrome_trace(str(path))
    events = json.loads(path.read_text())["traceEvents"]
    assert len(events) == len(bench.tracer.spans)
    roots = [event for event in events if event["args"]["parent"] is None]
    assert {event["name"] for event in roots} == {"bench.sparse_sim"}
    assert {event["args"]["iteration"] for event in roots} == {0, 1}
