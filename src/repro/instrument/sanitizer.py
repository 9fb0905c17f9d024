"""Dynamic race sanitizer: delta-race detection over ``signal.commit``.

The static ``RACE001`` rule reports shared state that *could* be
written by several parties without arbiter serialization. This
subscriber watches the probe bus for the dynamic symptom: one signal
committing two or more *different* values at the same simulation
timestamp (successive delta cycles of one instant). Within a single
delta the kernel's staged write is last-wins — only one commit happens
— so same-timestamp multi-valued commits are exactly the observable
trace of unserialized writers interleaving through the delta loop.

Attach a :class:`RaceSanitizer` to a bus before running, then hand it
the static findings to split them into *confirmed* (the raced signal
really did multi-commit) and *unobserved* (this workload never hit the
window — the report stays a static claim). When no sanitizer is
attached the kernel's hot path pays the usual single ``None`` check;
the sanitizer is strictly opt-in.
"""

from __future__ import annotations

import typing

from .probes import SIGNAL_COMMIT, ProbeSubscriber

#: Per-signal cap on recorded race observations (memory bound).
_MAX_OBSERVATIONS = 16


class RaceObservation:
    """One same-timestamp multi-valued commit sequence on a signal."""

    __slots__ = ("signal_name", "time", "values")

    def __init__(
        self, signal_name: str, time: int, values: typing.Sequence[object]
    ) -> None:
        self.signal_name = signal_name
        self.time = time
        #: Every value committed at this timestamp, in commit order.
        self.values = list(values)

    def __repr__(self) -> str:
        return (
            f"RaceObservation({self.signal_name}@{self.time}: "
            f"{self.values})"
        )


class RaceSanitizer(ProbeSubscriber):
    """Probe-bus subscriber detecting same-timestamp delta races.

    :param watch: signal names to track (e.g. from static ``RACE001``
        findings). ``None`` watches every committing signal.
    """

    def __init__(self, watch: typing.Iterable[str] | None = None) -> None:
        self.watch: set[str] | None = None if watch is None else set(watch)
        #: signal name -> recorded observations (bounded).
        self.observations: dict[str, list[RaceObservation]] = {}
        #: signal name -> total same-timestamp conflict count (unbounded
        #: tally, even past the per-signal observation cap).
        self.conflicts: dict[str, int] = {}
        self._last: dict[int, tuple[object, int, list[object]]] = {}

    _SUBSCRIPTIONS = ((SIGNAL_COMMIT, "_on_commit"),)

    # -- probe callback ------------------------------------------------------

    def _on_commit(self, time: int, signal: object, value: object) -> None:
        name = getattr(signal, "name", str(signal))
        if self.watch is not None and name not in self.watch:
            return
        key = id(signal)
        entry = self._last.get(key)
        if entry is None or entry[1] != time:
            self._last[key] = (signal, time, [value])
            return
        values = entry[2]
        values.append(value)
        if len(set(map(repr, values))) < 2:
            return  # re-commit of the same value: benign
        self.conflicts[name] = self.conflicts.get(name, 0) + 1
        recorded = self.observations.setdefault(name, [])
        if recorded and recorded[-1].time == time:
            recorded[-1].values = list(values)  # grow the open window
        elif len(recorded) < _MAX_OBSERVATIONS:
            recorded.append(RaceObservation(name, time, values))

    # -- queries -------------------------------------------------------------

    @property
    def racy_signals(self) -> set[str]:
        return set(self.conflicts)

    def observed(self, signal_name: str) -> bool:
        return signal_name in self.conflicts

    def verdicts(
        self, findings: typing.Iterable[object]
    ) -> list[tuple[object, str]]:
        """Pair each static finding with ``"confirmed"``/``"unobserved"``.

        *findings* are :class:`~repro.lint.diagnostics.Diagnostic`-like
        objects; a finding names its signal via ``extra["signal"]``.
        Findings without a signal cannot be dynamically checked and are
        paired with ``"unobserved"``.
        """
        results: list[tuple[object, str]] = []
        for finding in findings:
            extra = getattr(finding, "extra", None) or {}
            name = extra.get("signal")
            verdict = (
                "confirmed"
                if name is not None and self.observed(name)
                else "unobserved"
            )
            results.append((finding, verdict))
        return results

    def summary_line(self) -> str:
        if not self.conflicts:
            return "race sanitizer: no same-timestamp conflicts observed"
        total = sum(self.conflicts.values())
        return (
            f"race sanitizer: {total} same-timestamp conflict(s) on "
            f"{len(self.conflicts)} signal(s): "
            + ", ".join(sorted(self.conflicts))
        )
