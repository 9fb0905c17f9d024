"""RetryPolicy mechanics and guarded-call recovery behaviour."""

import pytest

from repro.errors import GuardTimeoutError, SimulationError
from repro.hdl.module import Module
from repro.kernel.process import Timeout
from repro.instrument.probes import (
    RESILIENCE_GIVEUP,
    RESILIENCE_RETRY,
    RESILIENCE_TIMEOUT,
)
from repro.kernel.simtime import NS, US
from repro.kernel.simulator import Simulator
from repro.osss.global_object import GlobalObject
from repro.osss.guarded_method import guarded_method
from repro.resilience import (
    RecoveryLog,
    RetryPolicy,
    attach_retry_policy,
    default_guard_policy,
)


class TestPolicyValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(SimulationError):
            RetryPolicy(timeout=0)
        with pytest.raises(SimulationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(SimulationError):
            RetryPolicy(backoff=-1)
        with pytest.raises(SimulationError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(SimulationError):
            RetryPolicy(jitter=1.0)

    def test_attach_rejects_policy_free_objects(self):
        with pytest.raises(SimulationError):
            attach_retry_policy(object(), RetryPolicy())


class TestBackoffSchedule:
    def test_schedule_is_reproducible_per_seed(self):
        a = RetryPolicy(seed=55)
        b = RetryPolicy(seed=55)
        keys = ("top.app0", "put_command", 1_234_000)
        assert a.backoff_schedule(*keys) == b.backoff_schedule(*keys)

    def test_schedule_differs_across_seeds_and_identities(self):
        policy = RetryPolicy(seed=55)
        other_seed = RetryPolicy(seed=56)
        keys = ("top.app0", "put_command", 1_234_000)
        assert policy.backoff_schedule(*keys) != other_seed.backoff_schedule(
            *keys
        )
        assert policy.backoff_schedule(*keys) != policy.backoff_schedule(
            "top.app1", "put_command", 1_234_000
        )

    def test_jitter_free_schedule_is_exact_exponential(self):
        policy = RetryPolicy(
            max_attempts=5, backoff=1 * US, multiplier=2.0,
            max_backoff=3 * US, jitter=0.0,
        )
        assert policy.backoff_schedule("x") == [
            1 * US, 2 * US, 3 * US, 3 * US  # capped at max_backoff
        ]

    def test_jitter_stays_within_fraction(self):
        policy = RetryPolicy(
            max_attempts=4, backoff=1 * US, multiplier=1.0, jitter=0.1,
        )
        for delay in policy.backoff_schedule("id"):
            assert 0.9 * US <= delay <= 1.1 * US

    def test_default_guard_policy_threads_the_seed(self):
        assert default_guard_policy(55).seed == 55
        schedule = default_guard_policy(55).backoff_schedule("k")
        assert schedule == default_guard_policy(55).backoff_schedule("k")
        assert schedule != default_guard_policy(56).backoff_schedule("k")


class _Cell:
    """take() blocks until armed; executions are counted."""

    def __init__(self):
        self.ready = False
        self.executions = 0

    @guarded_method(lambda self: self.ready)
    def take(self):
        self.executions += 1
        return self.executions

    def arm(self):
        self.ready = True


class _Host(Module):
    def __init__(self, parent, name, arm_after=None):
        super().__init__(parent, name)
        self.cell = GlobalObject(self, "cell", _Cell)
        self.arm_after = arm_after
        self.result = None
        self.error = None
        self.thread(self._caller, "caller")
        if arm_after is not None:
            self.thread(self._armer, "armer")

    def _caller(self):
        try:
            self.result = yield from self.cell.call("take")
        except GuardTimeoutError as error:
            self.error = error

    def _armer(self):
        yield Timeout(self.arm_after)
        yield from self.cell.call("arm")


class TestGuardedCallPolicy:
    def _build(self, arm_after, policy):
        sim = Simulator()
        host = _Host(sim, "top", arm_after=arm_after)
        attach_retry_policy(host.cell, policy, ("take",))
        log = RecoveryLog().attach(sim.probes)
        return sim, host, log

    def test_dead_guard_surfaces_guard_timeout(self):
        policy = RetryPolicy(
            timeout=1 * US, max_attempts=3, backoff=100 * NS, jitter=0.0,
        )
        sim, host, log = self._build(None, policy)
        sim.run(50 * US)
        assert host.result is None
        assert isinstance(host.error, GuardTimeoutError)
        assert "3 attempts" in str(host.error)
        # One timeout per attempt, a retry before each re-submission,
        # one final giveup — and nothing recovered.
        assert log.count(RESILIENCE_TIMEOUT) == 3
        assert log.count(RESILIENCE_RETRY) == 2
        assert log.count(RESILIENCE_GIVEUP) == 1
        assert log.recoveries == 0
        (episode,) = log.episodes()
        assert episode.outcome == "giveup"
        assert episode.attempts == 3

    def test_late_guard_recovers_without_double_execution(self):
        policy = RetryPolicy(
            timeout=1 * US, max_attempts=4, backoff=100 * NS, jitter=0.0,
        )
        # Armed after the first attempt's deadline but well inside the
        # retry budget: attempt >= 2 succeeds.
        sim, host, log = self._build(int(1.5 * US), policy)
        sim.run(50 * US)
        assert host.error is None
        assert host.result == 1
        assert host.cell.state.executions == 1  # cancelled attempts never ran
        assert log.count(RESILIENCE_TIMEOUT) >= 1
        assert log.recoveries == 1
        (episode,) = log.episodes()
        assert episode.outcome == "recovered"
        assert episode.latency is not None and episode.latency > 0

    def test_immediate_success_emits_no_probes(self):
        policy = RetryPolicy(timeout=1 * US, max_attempts=3)
        sim = Simulator()
        host = _Host(sim, "top", arm_after=None)
        host.cell.state.ready = True
        attach_retry_policy(host.cell, policy, ("take",))
        log = RecoveryLog().attach(sim.probes)
        sim.run(10 * US)
        assert host.result == 1
        assert len(log) == 0

    def test_schedule_identical_across_identical_runs(self):
        """Same seed, same design: the recovery timeline reproduces."""
        policy = RetryPolicy(
            timeout=1 * US, max_attempts=3, backoff=200 * NS,
            jitter=0.3, seed=55,
        )
        timelines = []
        for __ in range(2):
            sim, host, log = self._build(None, policy)
            sim.run(50 * US)
            timelines.append([(e.kind, e.time) for e in log.events])
        assert timelines[0] == timelines[1]
