"""Mergeable latency digests with fixed power-of-two buckets.

The scorecards, the :class:`~repro.instrument.metrics.MetricsCollector`
traffic tables and the fault-campaign telemetry all need the same thing: a
latency distribution that (a) never allocates per-sample storage, (b)
answers p50/p95/p99 queries, and (c) **merges deterministically** —
a digest assembled from per-worker shards in a process pool must equal
the digest a serial run would have produced. Fixed bucket boundaries
give all three: bucket *i* holds samples whose bit length is *i*
(values in ``[2**(i-1), 2**i)``; bucket 0 holds zeros), so merging is a
plain per-bucket sum and is associative and commutative by
construction.

:class:`LatencyDigest` is the one latency distribution type in the
repo, so the profiler tables and the scorecards can never disagree
about what "p95" means.

This module is deliberately dependency-free (it imports nothing from
the rest of the package) so low-level layers can use it without cycles.
"""

from __future__ import annotations

import typing

#: The quantiles every telemetry surface reports.
STANDARD_QUANTILES = (0.5, 0.95, 0.99)


def quantile_from_pow2_buckets(
    buckets: "typing.Mapping[int, int]",
    count: int,
    max_value: "int | None",
    q: float,
) -> int:
    """Approximate *q*-quantile of a power-of-two bucketed sample set.

    :param buckets: ``{bit_length: count}`` occupancy map.
    :param count: total samples (must equal ``sum(buckets.values())``).
    :param max_value: exact maximum sample, used to clamp the top
        bucket's upper bound.
    :returns: the upper bound of the bucket containing the quantile
        (clamped to *max_value*), 0 for an empty sample set.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    if not count:
        return 0
    threshold = q * count
    seen = 0
    for bucket in sorted(buckets):
        seen += buckets[bucket]
        if seen >= threshold:
            upper = (1 << bucket) - 1 if bucket else 0
            if max_value is not None:
                return min(upper, max_value)
            return upper
    return max_value if max_value is not None else 0


class LatencyDigest:
    """A mergeable, picklable latency distribution.

    Adding a sample is two integer ops; merging two digests is a
    per-bucket sum, so ``merge(a, b) == merge(b, a)`` and splitting a
    sample stream across any number of process-pool workers yields the
    exact digest of the serial run.
    """

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0
        self.min: int | None = None
        self.max: int | None = None
        self.buckets: dict[int, int] = {}

    def add(self, value: int) -> None:
        value = int(value)
        if value < 0:
            value = 0
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        bucket = value.bit_length()
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1

    def merge(self, other: "LatencyDigest") -> "LatencyDigest":
        """Fold *other* into this digest in place; returns self."""
        self.count += other.count
        self.total += other.total
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max
        for bucket, occupancy in other.buckets.items():
            self.buckets[bucket] = self.buckets.get(bucket, 0) + occupancy
        return self

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> int:
        return quantile_from_pow2_buckets(
            self.buckets, self.count, self.max, q
        )

    @property
    def p50(self) -> int:
        return self.quantile(0.50)

    @property
    def p95(self) -> int:
        return self.quantile(0.95)

    @property
    def p99(self) -> int:
        return self.quantile(0.99)

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            # str keys so the document round-trips through JSON.
            "buckets": {str(k): v for k, v in sorted(self.buckets.items())},
        }

    @classmethod
    def from_dict(cls, document: "typing.Mapping") -> "LatencyDigest":
        digest = cls()
        digest.count = int(document.get("count", 0))
        digest.total = int(document.get("total", 0))
        minimum = document.get("min")
        maximum = document.get("max")
        digest.min = None if minimum is None else int(minimum)
        digest.max = None if maximum is None else int(maximum)
        digest.buckets = {
            int(k): int(v) for k, v in document.get("buckets", {}).items()
        }
        return digest

    @classmethod
    def merged(
        cls, digests: "typing.Iterable[LatencyDigest]"
    ) -> "LatencyDigest":
        """A fresh digest holding the union of *digests*."""
        result = cls()
        for digest in digests:
            result.merge(digest)
        return result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LatencyDigest):
            return NotImplemented
        return (
            self.count == other.count
            and self.total == other.total
            and self.min == other.min
            and self.max == other.max
            and self.buckets == other.buckets
        )

    def __repr__(self) -> str:
        return (
            f"LatencyDigest(n={self.count}, p50={self.p50}, "
            f"p95={self.p95}, p99={self.p99})"
        )
