"""Functional coverage collection.

Small covergroup-style bookkeeping: named coverpoints with explicit
bins, sampled by the testbench, reported as hit percentages. Used by the
integration tests to demonstrate that the adopted test set exercises the
interesting protocol corners (burst lengths, terminations, guard
blocking).
"""

from __future__ import annotations

import typing

from ..errors import CoverageError
from ..instrument.probes import ProbeSubscriber


class CoverPoint:
    """One named coverage dimension with explicit bins."""

    def __init__(
        self,
        name: str,
        bins: typing.Sequence[object],
        at_least: int = 1,
    ) -> None:
        if not bins:
            raise CoverageError(f"coverpoint {name!r} needs at least one bin")
        if at_least < 1:
            raise CoverageError(f"coverpoint {name!r}: at_least must be >= 1")
        self.name = name
        self.at_least = at_least
        self.hits: dict[object, int] = {bin_: 0 for bin_ in bins}
        self.others = 0

    def sample(self, value: object) -> None:
        if value in self.hits:
            self.hits[value] += 1
        else:
            self.others += 1

    @property
    def covered_bins(self) -> int:
        return sum(1 for count in self.hits.values() if count >= self.at_least)

    @property
    def coverage(self) -> float:
        return self.covered_bins / len(self.hits)

    def holes(self) -> list[object]:
        return [bin_ for bin_, count in self.hits.items() if count < self.at_least]


class CoverageCollector:
    """A set of coverpoints with an aggregate goal."""

    def __init__(self, name: str = "coverage") -> None:
        self.name = name
        self._points: dict[str, CoverPoint] = {}

    def add_point(
        self, name: str, bins: typing.Sequence[object], at_least: int = 1
    ) -> CoverPoint:
        if name in self._points:
            raise CoverageError(f"duplicate coverpoint {name!r}")
        point = CoverPoint(name, bins, at_least)
        self._points[name] = point
        return point

    def sample(self, name: str, value: object) -> None:
        try:
            self._points[name].sample(value)
        except KeyError:
            raise CoverageError(f"unknown coverpoint {name!r}") from None

    def point(self, name: str) -> CoverPoint:
        try:
            return self._points[name]
        except KeyError:
            raise CoverageError(f"unknown coverpoint {name!r}") from None

    @property
    def coverage(self) -> float:
        if not self._points:
            return 1.0
        return sum(p.coverage for p in self._points.values()) / len(self._points)

    def require(self, goal: float = 1.0) -> None:
        """Raise :class:`CoverageError` if aggregate coverage < *goal*."""
        if self.coverage + 1e-12 < goal:
            holes = {
                name: point.holes()
                for name, point in self._points.items()
                if point.holes()
            }
            raise CoverageError(
                f"{self.name}: coverage {self.coverage:.1%} below goal "
                f"{goal:.1%}; holes: {holes}"
            )

    def report(self) -> str:
        lines = [f"coverage report: {self.name} ({self.coverage:.1%})"]
        for name, point in sorted(self._points.items()):
            lines.append(
                f"  {name}: {point.covered_bins}/{len(point.hits)} bins "
                f"({point.coverage:.1%})"
                + (f", holes: {point.holes()}" if point.holes() else "")
            )
        return "\n".join(lines)


class ProbeCoverage(ProbeSubscriber):
    """Samples coverpoints straight off the probe bus.

    Instead of sprinkling ``collector.sample(...)`` calls through the
    testbench, bind a coverpoint to a probe kind with an extractor that
    maps the probe payload to a bin value (return ``None`` to skip the
    emission)::

        cov = CoverageCollector("bus")
        cov.add_point("burst", [1, 2, 4])
        ProbeCoverage(cov).cover(
            TRANSACTION_END, "burst",
            lambda time, source, txn: txn.word_count,
        ).attach(sim.probes)
    """

    def __init__(self, collector: CoverageCollector) -> None:
        self.collector = collector
        self._bindings: list[tuple[str, typing.Callable]] = []

    def cover(
        self,
        kind: str,
        point: str,
        extractor: typing.Callable[..., object],
    ) -> "ProbeCoverage":
        if self._bus is not None:
            raise CoverageError("add bindings before attach()")
        self.collector.point(point)  # fail early on unknown points

        def sampler(*args, _point=point, _extract=extractor):
            value = _extract(*args)
            if value is not None:
                self.collector.sample(_point, value)

        self._bindings.append((kind, sampler))
        return self

    def subscriptions(self) -> list[tuple[str, typing.Callable]]:
        return self._bindings
