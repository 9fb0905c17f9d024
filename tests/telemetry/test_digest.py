"""Tests for the shared power-of-two latency digest."""

import pickle
import random

import pytest

from repro.telemetry.digest import (
    STANDARD_QUANTILES,
    LatencyDigest,
    quantile_from_pow2_buckets,
)


class TestQuantileKernel:
    def test_empty_sample_set_is_zero(self):
        assert quantile_from_pow2_buckets({}, 0, None, 0.5) == 0

    def test_out_of_range_quantile_raises(self):
        with pytest.raises(ValueError):
            quantile_from_pow2_buckets({1: 1}, 1, 1, 1.5)
        with pytest.raises(ValueError):
            quantile_from_pow2_buckets({1: 1}, 1, 1, -0.1)
        # Validated before the empty-input shortcut.
        with pytest.raises(ValueError):
            quantile_from_pow2_buckets({}, 0, None, 2.0)
        with pytest.raises(ValueError):
            LatencyDigest().quantile(2.0)

    def test_upper_bound_of_selected_bucket(self):
        # bucket 4 holds [8, 15]; one sample there, quantile reports 15.
        assert quantile_from_pow2_buckets({4: 1}, 1, None, 0.5) == 15

    def test_clamped_to_observed_maximum(self):
        assert quantile_from_pow2_buckets({4: 1}, 1, 9, 0.5) == 9

    def test_standard_quantiles_are_p50_p95_p99(self):
        assert STANDARD_QUANTILES == (0.5, 0.95, 0.99)


class TestLatencyDigest:
    def test_empty_digest(self):
        digest = LatencyDigest()
        assert digest.count == 0
        assert digest.mean == 0.0
        assert digest.p50 == digest.p95 == digest.p99 == 0

    def test_single_sample(self):
        digest = LatencyDigest()
        digest.add(180)
        assert digest.count == 1
        assert digest.min == digest.max == 180
        assert digest.p50 == 180  # clamped to the exact max
        assert digest.mean == 180.0

    def test_quantiles_are_monotone(self):
        digest = LatencyDigest()
        for value in [1, 2, 4, 8, 100, 1000, 5000]:
            digest.add(value)
        assert digest.p50 <= digest.p95 <= digest.p99 <= digest.max

    def test_negative_samples_clamp_to_zero(self):
        digest = LatencyDigest()
        digest.add(-5)
        assert digest.min == 0
        assert digest.total == 0

    def test_merge_matches_serial_stream(self):
        rng = random.Random(55)
        samples = [rng.randrange(0, 100_000) for __ in range(500)]
        serial = LatencyDigest()
        for value in samples:
            serial.add(value)
        shards = [LatencyDigest() for __ in range(4)]
        for index, value in enumerate(samples):
            shards[index % 4].add(value)
        merged = LatencyDigest.merged(shards)
        assert merged == serial
        assert merged.p95 == serial.p95

    def test_merge_is_commutative(self):
        a, b = LatencyDigest(), LatencyDigest()
        for value in (1, 10, 100):
            a.add(value)
        for value in (7, 70):
            b.add(value)
        ab = LatencyDigest.merged([a, b])
        ba = LatencyDigest.merged([b, a])
        assert ab == ba

    def test_dict_round_trip(self):
        digest = LatencyDigest()
        for value in (3, 14, 159, 2653):
            digest.add(value)
        document = digest.to_dict()
        assert document["p95"] == digest.p95
        assert all(isinstance(k, str) for k in document["buckets"])
        clone = LatencyDigest.from_dict(document)
        assert clone == digest

    def test_picklable_for_pool_transport(self):
        digest = LatencyDigest()
        digest.add(42)
        clone = pickle.loads(pickle.dumps(digest))
        assert clone == digest


class TestHistogramDelegation:
    """MetricsCollector's traffic histograms are LatencyDigests."""

    def test_histogram_quantile_equals_digest_quantile(self):
        from repro.instrument.metrics import MethodMetrics

        histogram = MethodMetrics("chan", "put").total_times
        digest = LatencyDigest()
        for value in (1, 2, 3, 50, 900, 40_000):
            histogram.add(value)
            digest.add(value)
        assert isinstance(histogram, LatencyDigest)
        for q in STANDARD_QUANTILES:
            assert histogram.quantile(q) == digest.quantile(q)

    def test_histogram_document_has_p95_p99(self):
        from repro.instrument.metrics import MethodMetrics

        histogram = MethodMetrics("chan", "put").total_times
        histogram.add(100)
        document = histogram.to_dict()
        assert "p95" in document and "p99" in document
        assert document["p99"] == histogram.quantile(0.99)
