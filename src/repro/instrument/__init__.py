"""repro.instrument — the unified kernel instrumentation plane.

Every observation point of the stack — process scheduling, delta
cycles, event notification, signal commits, guarded-method traffic,
bus transactions, design-flow stages, fault activations and checker
detections — is published on one :class:`ProbeBus` with a typed probe
catalogue (:data:`PROBE_KINDS`). Observers (VCD tracers, metrics,
profilers, fault classifiers) subscribe to the kinds they care about
instead of each inventing a private hook.

The design constraint is the ROADMAP's "as fast as the hardware
allows": a simulator with no bus attached pays exactly one truthiness
check per probe site (``if probes is not None``) — no allocation, no
call, no dict lookup — so instrumentation is free when off.

Typical use::

    from repro.instrument import MetricsCollector, WallClockProfiler

    sim = Simulator()
    metrics = MetricsCollector().attach(sim.probes)
    profiler = WallClockProfiler().attach(sim.probes)
    ... build and run ...
    print(profiler.report().render())

or, from the command line, ``python -m repro profile <script.py>``.
"""

from .metrics import Counter, DetectionLog, MetricsCollector
from .probes import (
    DELTA_BEGIN,
    DELTA_END,
    DETECTION,
    EVENT_NOTIFY,
    FAULT_ACTIVATE,
    FLOW_STAGE,
    METHOD_CALL,
    METHOD_COMPLETE,
    METHOD_GRANT,
    METHOD_GUARD_BLOCK,
    METHOD_QUEUE,
    PROBE_KINDS,
    PROCESS_ACTIVATE,
    PROCESS_SUSPEND,
    SIGNAL_COMMIT,
    TRANSACTION_BEGIN,
    TRANSACTION_END,
    ProbeBus,
    default_bus,
    set_default_bus,
)
from .profiler import ProfileReport, WallClockProfiler
from .sanitizer import RaceObservation, RaceSanitizer

__all__ = [
    "Counter",
    "DELTA_BEGIN",
    "DELTA_END",
    "DETECTION",
    "DetectionLog",
    "EVENT_NOTIFY",
    "FAULT_ACTIVATE",
    "FLOW_STAGE",
    "METHOD_CALL",
    "METHOD_COMPLETE",
    "METHOD_GRANT",
    "METHOD_GUARD_BLOCK",
    "METHOD_QUEUE",
    "MetricsCollector",
    "PROBE_KINDS",
    "PROCESS_ACTIVATE",
    "PROCESS_SUSPEND",
    "ProbeBus",
    "ProfileReport",
    "RaceObservation",
    "RaceSanitizer",
    "SIGNAL_COMMIT",
    "TRANSACTION_BEGIN",
    "TRANSACTION_END",
    "WallClockProfiler",
    "default_bus",
    "set_default_bus",
]
