"""Metrics aggregation: histograms, counters, the collector, detections."""


from repro.hdl.module import Module
from repro.instrument import (
    Counter,
    MetricsCollector,
    ProbeBus,
)
from repro.kernel import NS, US, Simulator
from repro.osss import GlobalObject, guarded_method
from repro.telemetry.digest import LatencyDigest


class TestHistogram:
    """The collector's time histograms are power-of-two LatencyDigests."""

    def test_empty(self):
        h = LatencyDigest()
        assert h.count == 0
        assert h.mean == 0.0
        assert h.quantile(0.5) == 0
        assert h.to_dict()["max"] is None

    def test_basic_stats(self):
        h = LatencyDigest()
        for v in (0, 1, 2, 4, 100):
            h.add(v)
        assert h.count == 5
        assert h.total == 107
        assert h.min == 0 and h.max == 100
        assert h.mean == 107 / 5

    def test_quantile_bounds(self):
        h = LatencyDigest()
        for v in range(1, 101):
            h.add(v)
        assert h.quantile(0.0) <= h.quantile(0.5) <= h.quantile(1.0)
        assert h.quantile(1.0) == 100

    def test_negative_clamped(self):
        h = LatencyDigest()
        h.add(-5)
        assert h.min == 0

    def test_buckets_are_powers_of_two(self):
        h = LatencyDigest()
        for v in (0, 1, 3, 5, 9):
            h.add(v)
        uppers = [(1 << bucket) - 1 for bucket in sorted(h.buckets)]
        assert uppers == [0, 1, 3, 7, 15]


class TestCounter:
    def test_add_and_top(self):
        c = Counter()
        c.add("a")
        c.add("b", 3)
        c.add("a")
        assert c["a"] == 2 and c["b"] == 3
        assert c.total == 5
        assert c.top(1) == [("b", 3)]
        assert len(c) == 2


class _Buffer:
    def __init__(self, depth=2):
        self.items = []
        self.depth = depth

    @guarded_method(lambda self: len(self.items) < self.depth)
    def put(self, item):
        self.items.append(item)

    @guarded_method(lambda self: bool(self.items))
    def get(self):
        return self.items.pop(0)


class _Producer(Module):
    def __init__(self, parent, name, n, start_delay=0):
        super().__init__(parent, name)
        self.buffer = GlobalObject(self, "buffer", _Buffer)
        self.n = n
        self.start_delay = start_delay
        self.thread(self._run, "producer")

    def _run(self):
        from repro.kernel import Timeout

        if self.start_delay:
            yield Timeout(self.start_delay)
        for i in range(self.n):
            yield from self.buffer.call("put", i)


class _ConsumerModule(Module):
    def __init__(self, parent, name, peer, n):
        super().__init__(parent, name)
        self.buffer = GlobalObject(self, "buffer", _Buffer)
        self.buffer.connect(peer.buffer)
        self.got = []
        self.n = n
        self.thread(self._run, "consumer")

    def _run(self):
        for _ in range(self.n):
            item = yield from self.buffer.call("get")
            self.got.append(item)


class TestMetricsCollector:
    def _run_system(self, n=6):
        sim = Simulator()
        metrics = MetricsCollector().attach(sim.probes)
        producer = _Producer(sim, "prod", n)
        consumer = _ConsumerModule(sim, "cons", producer, n)
        sim.run(1 * US)
        return sim, metrics, consumer

    def test_method_traffic_recorded(self):
        sim, metrics, consumer = self._run_system()
        assert consumer.got == list(range(6))
        rows = {r.key.rsplit(".", 1)[-1]: r for r in metrics.method_rows()}
        assert rows["put"].calls == 6
        assert rows["put"].completions == 6
        assert rows["get"].calls == 6
        assert rows["get"].grants == 6
        # Wait/service/total histograms populated for every completion.
        assert rows["get"].total_times.count == 6

    def test_guard_blocks_counted(self):
        # Late producer: the consumer's get is pending on an empty buffer
        # with nothing else eligible, so the server guard-blocks.
        sim = Simulator()
        metrics = MetricsCollector().attach(sim.probes)
        producer = _Producer(sim, "prod", 3, start_delay=100 * NS)
        consumer = _ConsumerModule(sim, "cons", producer, 3)
        sim.run(1 * US)
        assert consumer.got == [0, 1, 2]
        assert metrics.guard_blocks.total >= 1
        rows = {r.key.rsplit(".", 1)[-1]: r for r in metrics.method_rows()}
        assert rows["get"].queued >= 1  # the blocked get was queued

    def test_kernel_counters(self):
        sim, metrics, __ = self._run_system()
        assert metrics.deltas == sim.delta_count
        assert metrics.events_notified > 0
        assert metrics.process_activations.total > 0

    def test_to_dict_round_trips_through_json(self):
        import json

        __, metrics, __ = self._run_system()
        payload = json.loads(json.dumps(metrics.to_dict()))
        assert payload["deltas"] > 0
        assert payload["methods"][0]["calls"] >= 1

    def test_detach_stops_collection(self):
        sim = Simulator()
        metrics = MetricsCollector().attach(sim.probes)
        metrics.detach()
        producer = _Producer(sim, "prod", 2)
        _ConsumerModule(sim, "cons", producer, 2)
        sim.run(1 * US)
        assert metrics.deltas == 0
        assert not metrics.method_metrics

    def test_transaction_pairing(self):
        bus = ProbeBus()
        metrics = MetricsCollector().attach(bus)
        payload = object()
        from repro.instrument import TRANSACTION_BEGIN, TRANSACTION_END

        bus.emit(TRANSACTION_BEGIN, 100, "top.monitor", payload)
        bus.emit(TRANSACTION_END, 400, "top.monitor", payload, 100)
        assert metrics.transactions["top.monitor"] == 1
        assert metrics.transaction_times["top.monitor"].total == 300

    def test_flow_stage_probes_collected(self):
        bus = ProbeBus()
        metrics = MetricsCollector().attach(bus)
        from repro.instrument import FLOW_STAGE

        bus.emit(FLOW_STAGE, "lint", "ok", 0.25)
        assert metrics.flow_stages == [("lint", "ok", 0.25)]


class TestMonitorTransactionProbes:
    def test_pci_platform_emits_transactions(self):
        from repro.core import CommandType
        from repro.flow import build_platform
        from repro.kernel import MS

        bundle = build_platform(
            [[CommandType.write(0x40, [1, 2]), CommandType.read(0x40, count=2)]],
            bus="pci"
        )
        sim = bundle.handle.sim
        metrics = MetricsCollector().attach(sim.probes)
        bundle.run(5 * MS)
        monitor_path = bundle.monitor.path
        observed = len(bundle.monitor.completed_transactions)
        assert observed > 0
        assert metrics.transactions[monitor_path] == observed
        assert metrics.transaction_times[monitor_path].count == observed

    def test_fault_activation_probe(self):
        from repro.core import CommandType
        from repro.fault.models import make_fault
        from repro.flow import PciPlatformConfig, build_platform
        from repro.kernel import MS

        bundle = build_platform(
            [[CommandType.write(0x40, [1])]],
            PciPlatformConfig(monitor_strict=False), bus="pci",
        )
        sim = bundle.handle.sim
        sim.elaborate()
        metrics = MetricsCollector().attach(sim.probes)
        # The single-write workload finishes within ~150 ns; the glitch
        # window must fall inside the active run.
        fault = make_fault(
            "glitch", "top.bus.frame_n", (30 * NS, 60 * NS), value=0
        )
        fault.arm(sim)
        try:
            bundle.run(5 * MS)
        except Exception:
            pass  # the platform may legitimately detect the fault
        assert fault.activations >= 1
        assert metrics.fault_activations["glitch"] == fault.activations
