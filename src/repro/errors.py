"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError` so that
applications can catch library failures with a single ``except`` clause
while still being able to distinguish kernel, modeling, protocol and
synthesis problems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SimulationError(ReproError):
    """A violation of the discrete-event kernel's rules.

    Examples: running a finished simulator, waiting on a negative delay,
    or a process yielding an object that is not a wait specification.
    """


class ElaborationError(ReproError):
    """The design hierarchy could not be elaborated.

    Raised for unbound ports, duplicate instance names, processes added
    after elaboration, and similar structural mistakes.
    """


class LogicValueError(ReproError, ValueError):
    """An invalid logic literal or an undefined value conversion.

    Converting a vector containing ``X`` or ``Z`` bits to an integer
    raises this error rather than silently producing a number.
    """


class WidthError(ReproError, ValueError):
    """A bit-vector width mismatch in an operation or assignment."""


class MultipleDriverError(ReproError):
    """An unresolved signal was written by more than one process."""


class ProtocolError(ReproError):
    """A bus protocol rule was violated (detected by a monitor/checker)."""


class ArbitrationError(ReproError):
    """A scheduling algorithm misbehaved (e.g. granted a non-requester)."""


class GuardTimeoutError(ReproError):
    """A guarded method call did not complete within the allotted time."""


class JournalError(ReproError):
    """A campaign journal could not be created, read or resumed.

    Raised for mid-file corruption (a line whose checksum does not match
    anywhere but the torn tail), a missing or unreadable header, and a
    spec-hash mismatch on resume — a journal written for a different
    campaign must be refused, never silently recomputed.
    """


class SynthesisError(ReproError):
    """The communication synthesis tool rejected or mis-lowered a design."""


class ConsistencyError(ReproError):
    """Pre- and post-synthesis observable traces disagree."""


class RefinementError(ReproError):
    """A communication refinement step could not be applied."""


class CoverageError(ReproError):
    """A functional-coverage goal definition is invalid."""
