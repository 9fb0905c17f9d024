"""Tests for the durable campaign layer: journal, resume, cache.

The contract under test is byte-identity: serial, parallel and
interrupted-then-resumed executions of the same spec must produce the
same canonical report and the same merged telemetry digests, and an
identical re-invocation against a warm cache must touch no simulator
at all.
"""

import json
import os
import signal
import subprocess
import sys
import time
import zlib

import pytest

from repro.errors import JournalError
from repro.fault import (
    CampaignJournal,
    CampaignSpec,
    FaultSpec,
    ResultCache,
    RunOutcome,
    campaign_content_hash,
    campaign_fingerprint,
    demo_campaign_spec,
    report_as_json,
    resolve_workers,
    run_campaign,
)
from repro.fault.durable import (
    decode_line,
    encode_line,
    journal_path,
    stable_content_hash,
)


def _spec(seed=19, **overrides):
    spec = CampaignSpec(
        "durable-test",
        [
            FaultSpec("stuck_at", "top.bus.devsel_n", repeats=3,
                      params={"value": 1}),
            FaultSpec("dropped_request", "top.interface.channel",
                      repeats=3, params={"method": "put_command"}),
        ],
        platform="pci",
        seed=seed,
        n_apps=2,
        commands_per_app=4,
    )
    for name, value in overrides.items():
        setattr(spec, name, value)
    return spec


def _canonical(result):
    return report_as_json(result, canonical=True)


def _pre_removal_hash(spec):
    """The content hash campaigns had while specs carried a ``backend``
    field: the same fingerprint plus ``"backend": "interpreted"`` at the
    top level and in the spec document."""
    document = campaign_fingerprint(spec)
    document["backend"] = "interpreted"
    document["spec"] = {**document["spec"], "backend": "interpreted"}
    return stable_content_hash(document)


class TestContentHash:
    def test_identical_specs_hash_identically(self):
        assert campaign_content_hash(_spec()) == campaign_content_hash(_spec())

    def test_behaviour_fields_change_the_hash(self):
        base = campaign_content_hash(_spec())
        assert campaign_content_hash(_spec(seed=20)) != base
        assert campaign_content_hash(_spec(resilience=True)) != base
        assert campaign_content_hash(_spec(), max_runs=3) != base
        assert campaign_content_hash(
            _spec(crash_run_ids=(1,))
        ) != base

    def test_fault_lines_fold_into_the_hash(self):
        changed = _spec()
        changed.faults[0] = FaultSpec(
            "stuck_at", "top.bus.devsel_n", repeats=3, params={"value": 0}
        )
        assert campaign_content_hash(changed) != campaign_content_hash(_spec())

    def test_observability_knobs_do_not(self, tmp_path):
        noisy = _spec(flight_record_dir=str(tmp_path))
        assert campaign_content_hash(noisy) == campaign_content_hash(_spec())

    def test_fingerprint_names_builder_and_version(self):
        document = campaign_fingerprint(_spec())
        assert "build_platform(bus='pci')" in document["builder"]
        assert document["repro_version"]


class TestEnvelope:
    def test_round_trip(self):
        payload = {"type": "event", "event": "quarantine", "run_id": 3}
        assert decode_line(encode_line(payload)) == payload

    def test_checksum_mismatch_raises(self):
        line = encode_line({"type": "outcome", "x": 1})
        corrupted = line.replace('"x":1', '"x":2')
        with pytest.raises(ValueError):
            decode_line(corrupted)


class TestJournal:
    def test_create_then_resume_replays_outcomes(self, tmp_path):
        spec = _spec()
        first = run_campaign(spec, workers=1, journal_dir=str(tmp_path))
        journal, outcomes, truncated = CampaignJournal.open_resume(
            str(tmp_path), spec
        )
        journal.close()
        assert not truncated
        assert sorted(outcomes) == [o.run_id for o in first.outcomes]
        assert all(
            outcomes[o.run_id].classification == o.classification
            for o in first.outcomes
        )

    def test_header_binds_spec_hash(self, tmp_path):
        spec = _spec()
        run_campaign(spec, workers=1, journal_dir=str(tmp_path))
        with open(journal_path(str(tmp_path)), encoding="utf-8") as stream:
            header = decode_line(stream.readline())
        assert header["type"] == "header"
        assert header["spec_hash"] == campaign_content_hash(spec)
        assert header["campaign"] == spec.name

    def test_resume_refuses_a_different_campaign(self, tmp_path):
        run_campaign(_spec(), workers=1, journal_dir=str(tmp_path))
        with pytest.raises(JournalError, match="different campaign"):
            CampaignJournal.open_resume(str(tmp_path), _spec(seed=20))

    def test_resume_refuses_mismatched_max_runs(self, tmp_path):
        run_campaign(_spec(), workers=1, journal_dir=str(tmp_path))
        with pytest.raises(JournalError, match="different campaign"):
            CampaignJournal.open_resume(str(tmp_path), _spec(), max_runs=3)

    def test_torn_tail_is_truncated(self, tmp_path):
        spec = _spec()
        run_campaign(spec, workers=1, journal_dir=str(tmp_path))
        path = journal_path(str(tmp_path))
        with open(path, "r", encoding="utf-8") as stream:
            whole = stream.read()
        # Tear the last line mid-write, the signature of a SIGKILL.
        with open(path, "w", encoding="utf-8") as stream:
            stream.write(whole[:-20])
        journal, outcomes, truncated = CampaignJournal.open_resume(
            str(tmp_path), spec
        )
        journal.close()
        assert truncated
        assert len(outcomes) == 5  # the torn sixth outcome is gone
        # The tail was physically truncated: a second open is clean.
        journal, outcomes2, truncated2 = CampaignJournal.open_resume(
            str(tmp_path), spec
        )
        journal.close()
        assert not truncated2
        assert sorted(outcomes2) == sorted(outcomes)

    def test_midfile_corruption_refuses(self, tmp_path):
        spec = _spec()
        run_campaign(spec, workers=1, journal_dir=str(tmp_path))
        path = journal_path(str(tmp_path))
        with open(path, "r", encoding="utf-8") as stream:
            lines = stream.read().splitlines()
        document = json.loads(lines[2])
        document["payload"]["outcome"]["classification"] = "benign"
        lines[2] = json.dumps(document)  # payload edited, crc now stale
        with open(path, "w", encoding="utf-8") as stream:
            stream.write("\n".join(lines) + "\n")
        with pytest.raises(JournalError, match="line 3"):
            CampaignJournal.open_resume(str(tmp_path), spec)

    def test_empty_journal_refuses(self, tmp_path):
        open(journal_path(str(tmp_path)), "w").close()
        with pytest.raises(JournalError, match="empty"):
            CampaignJournal.open_resume(str(tmp_path), _spec())

    def test_missing_journal_refuses(self, tmp_path):
        with pytest.raises(JournalError, match="no journal"):
            CampaignJournal.open_resume(str(tmp_path), _spec())

    def test_header_only_journal_reruns_everything(self, tmp_path):
        spec = _spec()
        journal = CampaignJournal.create(str(tmp_path), spec, total_runs=6)
        journal.close()
        result = run_campaign(spec, workers=1, resume_from=str(tmp_path))
        assert result.resumed == 0
        assert len(result.outcomes) == 6


class TestResume:
    def test_resume_is_byte_identical_serial_and_parallel(self, tmp_path):
        spec = _spec(crash_run_ids=(1, 3))
        baseline = _canonical(run_campaign(spec, workers=1))
        # Serial journaled run, then resume (worker_error runs re-run).
        serial_dir = tmp_path / "serial"
        run_campaign(spec, workers=1, journal_dir=str(serial_dir))
        resumed_serial = run_campaign(
            spec, workers=1, resume_from=str(serial_dir)
        )
        assert _canonical(resumed_serial) == baseline
        # Parallel journaled run, then parallel resume.
        pool_dir = tmp_path / "pool"
        run_campaign(spec, workers=2, journal_dir=str(pool_dir))
        resumed_pool = run_campaign(
            spec, workers=2, resume_from=str(pool_dir)
        )
        assert _canonical(resumed_pool) == baseline
        assert resumed_pool.resumed == 4

    def test_resume_after_partial_journal(self, tmp_path):
        spec = _spec()
        full = run_campaign(spec, workers=1, journal_dir=str(tmp_path))
        path = journal_path(str(tmp_path))
        # Keep the header and the first three outcome lines: the state
        # a killed campaign leaves behind.
        with open(path, "r", encoding="utf-8") as stream:
            lines = stream.read().splitlines()
        with open(path, "w", encoding="utf-8") as stream:
            stream.write("\n".join(lines[:4]) + "\n")
        resumed = run_campaign(spec, workers=1, resume_from=str(tmp_path))
        assert resumed.resumed == 3
        assert _canonical(resumed) == _canonical(full)
        # The journal now holds all six outcomes again.
        __, outcomes, __ = CampaignJournal.open_resume(str(tmp_path), spec)
        assert len(outcomes) == 6

    def test_resume_merges_telemetry_identically(self, tmp_path):
        from repro.fault.report import merged_telemetry

        spec = _spec(telemetry=True)
        full = run_campaign(spec, workers=1)
        jdir = str(tmp_path)
        run_campaign(spec, workers=1, journal_dir=jdir, max_runs=6)
        path = journal_path(jdir)
        with open(path, "r", encoding="utf-8") as stream:
            lines = stream.read().splitlines()
        with open(path, "w", encoding="utf-8") as stream:
            stream.write("\n".join(lines[:3]) + "\n")
        resumed = run_campaign(spec, workers=2, resume_from=jdir, max_runs=6)
        want = merged_telemetry(full)
        got = merged_telemetry(resumed)
        assert want is not None and got is not None
        assert got.to_dict() == {**want.to_dict(), "label": got.label}


class TestPreRemovalJournals:
    """Journals and cache entries keyed by the old backend-carrying hash
    must refuse or miss, never replay."""

    def test_old_journal_refuses_to_resume(self, tmp_path):
        spec = _spec()
        run_campaign(spec, workers=1, journal_dir=str(tmp_path))
        path = journal_path(str(tmp_path))
        with open(path, encoding="utf-8") as stream:
            lines = stream.read().splitlines()
        header = decode_line(lines[0])
        old_hash = _pre_removal_hash(spec)
        assert old_hash != header["spec_hash"]
        header["spec_hash"] = old_hash
        header["backend"] = "interpreted"
        lines[0] = encode_line(header)
        with open(path, "w", encoding="utf-8") as stream:
            stream.write("\n".join(lines) + "\n")
        with pytest.raises(JournalError,
                           match="written for a different campaign"):
            run_campaign(spec, workers=1, resume_from=str(tmp_path))

    def test_old_cache_entry_misses(self, tmp_path):
        spec = _spec()
        cold = run_campaign(spec, workers=1, cache_dir=str(tmp_path))
        os.rename(
            os.path.join(str(tmp_path), cold.content_hash),
            os.path.join(str(tmp_path), _pre_removal_hash(spec)),
        )
        rerun = run_campaign(spec, workers=1, cache_dir=str(tmp_path))
        assert rerun.cache_hits == 0
        assert rerun.cache_misses == len(cold.outcomes)
        assert _canonical(rerun) == _canonical(cold)


class TestResultCache:
    def test_identical_rerun_is_all_hits_and_builds_nothing(
        self, tmp_path, monkeypatch
    ):
        spec = _spec()
        cold = run_campaign(spec, workers=1, cache_dir=str(tmp_path))
        assert cold.cache_hits == 0
        assert cold.cache_misses == len(cold.outcomes)

        # A warm re-invocation may touch no simulator: planning and
        # execution both come from the cache.
        import repro.fault.campaign as campaign_mod
        import repro.fault.runner as runner_mod

        def explode(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("cache hit was supposed to skip this")

        monkeypatch.setattr(campaign_mod, "execute_run", explode)
        monkeypatch.setattr(runner_mod, "execute_run", explode)
        monkeypatch.setattr(runner_mod, "plan_campaign", explode)
        warm = run_campaign(spec, workers=1, cache_dir=str(tmp_path))
        assert warm.cache_hits == len(cold.outcomes)
        assert warm.cache_misses == 0
        assert _canonical(warm) == _canonical(cold)

    def test_different_seed_misses(self, tmp_path):
        run_campaign(_spec(), workers=1, cache_dir=str(tmp_path))
        other = run_campaign(_spec(seed=20), workers=1, cache_dir=str(tmp_path))
        assert other.cache_hits == 0

    def test_corrupt_cache_entry_is_a_miss_not_an_error(self, tmp_path):
        spec = _spec()
        cold = run_campaign(spec, workers=1, cache_dir=str(tmp_path))
        entry = ResultCache(str(tmp_path)).entry(cold.content_hash)
        victim = entry.outcome_path(cold.outcomes[0].run_id)
        with open(victim, "w", encoding="utf-8") as stream:
            stream.write("garbage\n")
        warm = run_campaign(spec, workers=1, cache_dir=str(tmp_path))
        assert warm.cache_misses == 1
        assert warm.cache_hits == len(cold.outcomes) - 1
        assert _canonical(warm) == _canonical(cold)

    def test_worker_errors_are_never_cached(self, tmp_path):
        spec = _spec(crash_run_ids=(0,))
        cold = run_campaign(spec, workers=1, cache_dir=str(tmp_path))
        assert cold.outcomes[0].classification == "worker_error"
        warm = run_campaign(spec, workers=1, cache_dir=str(tmp_path))
        # The crashed run re-executes; the content runs hit.
        assert warm.cache_misses == 1
        assert warm.cache_hits == len(cold.outcomes) - 1
        assert _canonical(warm) == _canonical(cold)

    def test_outcome_round_trips_through_cache_dict_form(self):
        outcome = RunOutcome(
            3, "stuck_at", "top.bus.devsel_n", (10, 20), "detected",
            detail="checker fired", activations=2, detections=1,
            wall_seconds=0.25, sim_time=1000,
        )
        clone = RunOutcome.from_dict(outcome.to_dict())
        assert clone.to_dict() == outcome.to_dict()
        assert clone.to_dict(canonical=True)["wall_seconds"] == 0.0


class TestWorkersConvention:
    def test_zero_means_serial(self):
        assert resolve_workers(0) == 1
        assert resolve_workers(-4) == 1

    def test_env_ceiling_clamps_explicit_requests(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_WORKERS", "2")
        assert resolve_workers(16) == 2
        assert resolve_workers(1) == 1
        # The ceiling also clamps the derived default.
        assert resolve_workers(None) <= 2

    def test_env_unset_and_garbage_are_ignored(self, monkeypatch):
        monkeypatch.delenv("REPRO_MAX_WORKERS", raising=False)
        assert resolve_workers(6) == 6
        monkeypatch.setenv("REPRO_MAX_WORKERS", "many")
        assert resolve_workers(6) == 6

    def test_zero_beats_the_ceiling(self, monkeypatch):
        # Precedence: an explicit 0 (serial) is not "clamped up" to the
        # ceiling — it stays serial.
        monkeypatch.setenv("REPRO_MAX_WORKERS", "4")
        assert resolve_workers(0) == 1


class TestInterrupt:
    def test_serial_interrupt_keeps_completed_prefix(self, tmp_path):
        spec = _spec()
        seen = []

        def boom(outcome):
            seen.append(outcome)
            if len(seen) == 3:
                raise KeyboardInterrupt

        result = run_campaign(
            spec, workers=1, progress=boom, journal_dir=str(tmp_path)
        )
        assert result.interrupted
        assert len(result.outcomes) == 3
        # The journal kept them too, so a resume completes the campaign.
        resumed = run_campaign(spec, workers=1, resume_from=str(tmp_path))
        assert resumed.resumed == 3
        assert not resumed.interrupted
        full = run_campaign(spec, workers=1)
        assert _canonical(resumed) == _canonical(full)


@pytest.mark.slow
class TestParentKill:
    """The real thing: SIGKILL the campaign process, then resume."""

    _SCRIPT = r"""
import sys
from repro.fault import demo_campaign_spec, run_campaign
spec = demo_campaign_spec(platform="pci", seed=55, runs=12)
spec.wall_timeout = 30.0
run_campaign(spec, workers=2, max_runs=12, journal_dir=sys.argv[1])
print("COMPLETE")
"""

    def test_sigkill_then_resume_matches_uninterrupted(self, tmp_path):
        jdir = str(tmp_path / "journal")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "..", "src")]
            + env.get("PYTHONPATH", "").split(os.pathsep)
        )
        child = subprocess.Popen(
            [sys.executable, "-c", self._SCRIPT, jdir],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            # Its own process group, so one kill takes its pool workers too.
            start_new_session=True,
        )
        # Wait for at least two fsync'd outcome lines, then kill -9.
        path = os.path.join(jdir, "journal.jsonl")
        deadline = time.time() + 60
        while time.time() < deadline:
            if child.poll() is not None:
                break  # finished before we got to kill it — still fine
            try:
                with open(path, "rb") as stream:
                    lines = stream.read().count(b"\n")
            except OSError:
                lines = 0
            if lines >= 3:  # header + >= 2 outcomes
                os.killpg(child.pid, signal.SIGKILL)
                break
            time.sleep(0.02)
        child.wait(timeout=60)

        spec = demo_campaign_spec(platform="pci", seed=55, runs=12)
        spec.wall_timeout = 30.0
        resumed = run_campaign(
            spec, workers=2, max_runs=12, resume_from=jdir
        )
        uninterrupted = run_campaign(spec, workers=2, max_runs=12)
        assert _canonical(resumed) == _canonical(uninterrupted)
        assert len(resumed.outcomes) == 12


class TestDurableCli:
    """End-to-end ``python -m repro fault`` durability flags."""

    def _fault(self, capsys, *extra):
        from repro.__main__ import main

        code = main([
            "--seed", "55", "fault", "--runs", "6", "--workers", "0",
            "--json", "--canonical", *extra,
        ])
        return code, capsys.readouterr().out

    def test_journal_then_resume_byte_identical(self, tmp_path, capsys):
        jdir = str(tmp_path / "journal")
        code, first = self._fault(capsys, "--journal", jdir)
        assert code == 0
        code, resumed = self._fault(capsys, "--journal", jdir, "--resume")
        assert code == 0
        assert resumed == first

    def test_cache_rerun_is_identical(self, tmp_path, capsys):
        cdir = str(tmp_path / "cache")
        code, cold = self._fault(capsys, "--cache", cdir)
        assert code == 0
        code, warm = self._fault(capsys, "--cache", cdir)
        assert code == 0
        assert warm == cold

    def test_resume_without_journal_is_usage_error(self, capsys):
        from repro.__main__ import main

        assert main(["fault", "--resume"]) == 2

    def test_resume_wrong_seed_refuses(self, tmp_path, capsys):
        from repro.__main__ import main

        jdir = str(tmp_path / "journal")
        code, __ = self._fault(capsys, "--journal", jdir)
        assert code == 0
        code = main([
            "--seed", "56", "fault", "--runs", "6", "--workers", "0",
            "--journal", jdir, "--resume",
        ])
        assert code == 2
        assert "different campaign" in capsys.readouterr().err

    def test_inject_crash_reports_worker_error(self, capsys):
        code, out = self._fault(capsys, "--inject-crash", "1")
        assert code == 1
        document = json.loads(out)
        assert document["classifications"]["worker_error"] == 1


class TestCrc32Stability:
    def test_crc_matches_zlib_over_canonical_json(self):
        payload = {"b": 2, "a": 1}
        line = json.loads(encode_line(payload))
        expected = zlib.crc32(
            json.dumps(payload, sort_keys=True, separators=(",", ":"))
            .encode("utf-8")
        ) & 0xFFFFFFFF
        assert line["crc"] == expected
