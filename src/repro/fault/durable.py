"""Durable fault campaigns: crash-safe journal, resume, result cache.

Long campaigns are multi-process jobs; a mid-campaign crash, OOM kill
or Ctrl-C must never throw away completed work. This module gives the
runner three durability primitives:

* :class:`CampaignJournal` — a crash-safe append-only JSONL journal.
  The first line is an fsync'd header binding the file to the
  campaign's **content hash** (spec + design builder id + seed +
  repro version); every completed
  :class:`~repro.fault.campaign.RunOutcome` is then appended as one
  sorted-key JSON line wrapped in a CRC32 envelope and fsync'd, so a
  parent SIGKILL loses at most the line being written. On open for
  resume a torn tail line is detected and truncated; corruption
  anywhere *else* — a checksum mismatch mid-file, a missing header —
  refuses with :class:`~repro.errors.JournalError` rather than
  silently recomputing.

* :func:`campaign_content_hash` / :func:`campaign_fingerprint` — the
  spec-hash contract. Everything that determines campaign behaviour
  (every :class:`~repro.fault.spec.FaultSpec` line, platform/builder,
  seed, workload knobs, the ``max_runs`` truncation) is folded into one
  canonical document hashed with :func:`stable_content_hash`. A journal
  or cache entry is only ever replayed against the exact campaign that
  wrote it.

* :class:`ResultCache` — a content-addressed result cache. One
  directory per campaign hash holds the pickled golden reference, the
  expanded run plan and one CRC-checked JSON document per content
  outcome, so re-running an identical campaign is a pure cache hit:
  zero simulator builds, zero runs. Infrastructure outcomes
  (``timeout``/``error``/``worker_error``) are machine artifacts, not
  content, and are deliberately never cached.

Journal line grammar (one JSON object per line, sorted keys)::

    {"crc": <crc32 of canonical payload JSON>, "payload": {...}}

with payload ``type`` one of ``header``, ``outcome`` or ``event``
(degradation-ladder markers: quarantine, pool break, serial fallback).
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import typing
import zlib

from .._version import __version__
from ..errors import JournalError
from .campaign import (
    BENIGN,
    DETECTED,
    RECOVERED,
    SILENT,
    GoldenReference,
    RunOutcome,
)
from .spec import CampaignSpec, RunSpec

#: Journal/cache on-disk format revision; bumped on incompatible change.
JOURNAL_FORMAT = 1

#: File name of the journal inside its ``--journal DIR``.
JOURNAL_NAME = "journal.jsonl"

#: Classifications worth caching: genuine campaign content. Timeouts,
#: infrastructure errors and worker deaths depend on the machine the
#: campaign happened to run on.
CACHEABLE_CLASSIFICATIONS = (DETECTED, SILENT, BENIGN, RECOVERED)


# -- spec-hash contract ----------------------------------------------------------


def stable_content_hash(document: object) -> str:
    """SHA-256 hex digest of a canonical JSON encoding of *document*.

    The encoding is sorted-key, compact-separator JSON with non-JSON
    leaves rendered through ``str``, so the digest is stable across
    processes and sessions for any plain-data tree. Journal spec hashes
    and result-cache keys are both this digest of
    :func:`campaign_fingerprint`.
    """
    payload = json.dumps(
        document, sort_keys=True, separators=(",", ":"), default=str
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def spec_document(spec: CampaignSpec) -> dict:
    """Canonical plain-data form of every behaviour-affecting spec field.

    The observability knob that cannot change an outcome's content
    (``flight_record_dir``) is deliberately excluded so turning
    telemetry dumps on does not invalidate a cache.
    """
    return {
        "name": spec.name,
        "platform": spec.platform,
        "seed": spec.seed,
        "n_apps": spec.n_apps,
        "commands_per_app": spec.commands_per_app,
        "max_time": spec.max_time,
        "wall_timeout": spec.wall_timeout,
        "address_span": spec.address_span,
        "write_fraction": spec.write_fraction,
        "think_time": spec.think_time,
        "trace_spans": spec.trace_spans,
        "resilience": spec.resilience,
        "crash_run_ids": sorted(spec.crash_run_ids),
        "synthesize": spec.synthesize,
        "telemetry": spec.telemetry,
        "faults": [fault.to_dict() for fault in spec.faults],
    }


def builder_id(spec: CampaignSpec) -> str:
    """The design builder a campaign's platforms come from."""
    return f"repro.flow.platforms.build_platform(bus={spec.platform!r})"


def campaign_fingerprint(
    spec: CampaignSpec, max_runs: "int | None" = None
) -> dict:
    """The full document the content hash is computed over."""
    return {
        "format": JOURNAL_FORMAT,
        "repro_version": __version__,
        "builder": builder_id(spec),
        "seed": spec.seed,
        "max_runs": max_runs,
        "spec": spec_document(spec),
    }


def campaign_content_hash(
    spec: CampaignSpec, max_runs: "int | None" = None
) -> str:
    """The campaign's content address (SHA-256 hex)."""
    return stable_content_hash(campaign_fingerprint(spec, max_runs))


# -- CRC32 line envelope ---------------------------------------------------------


def _canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _crc_of(payload: dict) -> int:
    return zlib.crc32(_canonical(payload).encode("utf-8")) & 0xFFFFFFFF


def encode_line(payload: dict) -> str:
    """One journal/cache line: the payload inside its CRC32 envelope."""
    return _canonical({"crc": _crc_of(payload), "payload": payload})


def decode_line(line: str) -> dict:
    """Parse and checksum-verify one line; raises ``ValueError``."""
    document = json.loads(line)
    if not isinstance(document, dict) or "payload" not in document:
        raise ValueError("line is not a CRC envelope")
    payload = document["payload"]
    if not isinstance(payload, dict):
        raise ValueError("payload is not an object")
    if document.get("crc") != _crc_of(payload):
        raise ValueError("checksum mismatch")
    return payload


def journal_path(directory: str) -> str:
    return os.path.join(directory, JOURNAL_NAME)


# -- the journal -----------------------------------------------------------------


class CampaignJournal:
    """Crash-safe append-only journal of one campaign's outcomes.

    Use :meth:`create` for a fresh campaign and :meth:`open_resume` to
    continue an interrupted one; both leave the instance open for
    appending. Every append is flushed and fsync'd before returning —
    a journaled outcome survives any subsequent crash of the parent.
    """

    def __init__(self, path: str, content_hash: str) -> None:
        self.path = path
        self.content_hash = content_hash
        self._stream: typing.IO[str] | None = None
        #: Outcome lines appended by this process (not resumed ones).
        self.appended = 0

    # -- construction --------------------------------------------------------

    @classmethod
    def create(
        cls,
        directory: str,
        spec: CampaignSpec,
        max_runs: "int | None" = None,
        total_runs: int = 0,
    ) -> "CampaignJournal":
        """Start a fresh journal (truncating any previous one)."""
        os.makedirs(directory, exist_ok=True)
        journal = cls(
            journal_path(directory), campaign_content_hash(spec, max_runs)
        )
        journal._stream = open(journal.path, "w", encoding="utf-8")
        journal._append({
            "type": "header",
            "format": JOURNAL_FORMAT,
            "spec_hash": journal.content_hash,
            "campaign": spec.name,
            "platform": spec.platform,
            "seed": spec.seed,
            "total_runs": total_runs,
            "repro_version": __version__,
        })
        return journal

    @classmethod
    def open_resume(
        cls,
        directory: str,
        spec: CampaignSpec,
        max_runs: "int | None" = None,
    ) -> "tuple[CampaignJournal, dict[int, RunOutcome], bool]":
        """Open an existing journal for resumption.

        Returns ``(journal, outcomes-by-run-id, tail_truncated)``. The
        header's spec hash must match the campaign being resumed;
        anything else is refused with a clear :class:`JournalError` —
        resuming someone else's journal would merge unrelated results.
        """
        path = journal_path(directory)
        header, payloads, valid_bytes, truncated = _read_journal(path)
        expected = campaign_content_hash(spec, max_runs)
        found = header.get("spec_hash")
        if found != expected:
            raise JournalError(
                f"journal at {path} was written for a different campaign "
                f"(journal spec hash {str(found)[:12]}..., this campaign "
                f"{expected[:12]}...); refusing to resume — check the "
                "spec/seed/--runs arguments, or start over "
                "without --resume"
            )
        if truncated:
            # Drop the torn tail on disk too, so the file we append to
            # is exactly the validated prefix.
            with open(path, "r+b") as stream:
                stream.truncate(valid_bytes)
        outcomes: dict[int, RunOutcome] = {}
        for payload in payloads:
            if payload.get("type") == "outcome":
                outcome = RunOutcome.from_dict(payload["outcome"])
                outcomes[outcome.run_id] = outcome
        journal = cls(path, expected)
        journal._stream = open(path, "a", encoding="utf-8")
        return journal, outcomes, truncated

    # -- appending -----------------------------------------------------------

    def _append(self, payload: dict) -> None:
        assert self._stream is not None
        self._stream.write(encode_line(payload) + "\n")
        self._stream.flush()
        os.fsync(self._stream.fileno())

    def append_outcome(self, outcome: RunOutcome) -> None:
        self._append({"type": "outcome", "outcome": outcome.to_dict()})
        self.appended += 1

    def append_event(self, event: str, **fields: object) -> None:
        """Degradation-ladder / lifecycle marker (quarantine, pool
        break, serial fallback, interrupt)."""
        payload: dict = {"type": "event", "event": event}
        payload.update(fields)
        self._append(payload)

    def close(self) -> None:
        if self._stream is not None:
            self._stream.close()
            self._stream = None

    def __repr__(self) -> str:
        return (
            f"CampaignJournal({self.path}, "
            f"hash={self.content_hash[:12]}...)"
        )


def _read_journal(path: str) -> tuple[dict, list[dict], int, bool]:
    """Validate a journal file line by line.

    Returns ``(header, payloads, valid_byte_length, tail_truncated)``.
    The last line is allowed to be torn (unparseable, checksum-broken
    or missing its newline — the signature of a crash mid-write) and is
    dropped; the same damage anywhere else means the file was edited or
    the disk corrupted it, and the journal refuses.
    """
    if not os.path.exists(path):
        raise JournalError(
            f"no journal at {path}; run with --journal DIR (without "
            "--resume) to start one"
        )
    with open(path, "rb") as stream:
        raw = stream.read()
    if not raw.strip():
        raise JournalError(
            f"journal at {path} is empty — its header was never "
            "committed, so there is nothing to bind a resume to; start "
            "a fresh campaign without --resume"
        )
    lines = raw.split(b"\n")
    # A trailing newline leaves one empty chunk at the end; its absence
    # means the final line never finished writing.
    complete_tail = lines and lines[-1] == b""
    if complete_tail:
        lines = lines[:-1]
    payloads: list[dict] = []
    valid_bytes = 0
    truncated = False
    for index, line in enumerate(lines):
        last = index == len(lines) - 1
        try:
            if last and not complete_tail:
                raise ValueError("unterminated line")
            payload = decode_line(line.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as error:
            if last:
                truncated = True
                break
            raise JournalError(
                f"journal at {path} is corrupt at line {index + 1} "
                f"({error}); a non-tail line can only be damaged by "
                "external editing or disk corruption — refusing to "
                "resume from it"
            ) from None
        payloads.append(payload)
        valid_bytes += len(line) + 1
    if not payloads or payloads[0].get("type") != "header":
        raise JournalError(
            f"journal at {path} has no valid header line; refusing to "
            "resume"
        )
    if payloads[0].get("format") != JOURNAL_FORMAT:
        raise JournalError(
            f"journal at {path} uses format "
            f"{payloads[0].get('format')!r}; this version reads format "
            f"{JOURNAL_FORMAT}"
        )
    return payloads[0], payloads[1:], valid_bytes, truncated


# -- the content-addressed result cache ------------------------------------------


class ResultCache:
    """Root of a content-addressed campaign result cache.

    Layout: ``root/<campaign hash>/`` holding ``meta.json`` (the full
    fingerprint document), ``golden.pkl`` (pickled
    :class:`GoldenReference`), ``plan.json`` (the expanded run list)
    and ``run<NNNNN>.json`` — one CRC-enveloped document per cached
    outcome. Cache reads are best-effort: any damaged entry is treated
    as a miss and recomputed (the cache, unlike the journal, carries no
    partial-campaign state worth refusing over).
    """

    def __init__(self, root: str) -> None:
        self.root = root

    def entry(self, content_hash: str) -> "CacheEntry":
        return CacheEntry(os.path.join(self.root, content_hash))


class CacheEntry:
    """One campaign's slice of the result cache."""

    def __init__(self, directory: str) -> None:
        self.directory = directory

    def _path(self, name: str) -> str:
        return os.path.join(self.directory, name)

    def outcome_path(self, run_id: int) -> str:
        return self._path(f"run{run_id:05d}.json")

    # -- plan + golden -------------------------------------------------------

    def store_plan(
        self,
        fingerprint: dict,
        golden: GoldenReference,
        runs: typing.Sequence[RunSpec],
    ) -> None:
        os.makedirs(self.directory, exist_ok=True)
        _atomic_write_text(
            self._path("meta.json"),
            json.dumps(fingerprint, indent=2, sort_keys=True) + "\n",
        )
        plan = {
            "type": "plan",
            "runs": [
                {
                    "run_id": run.run_id,
                    "kind": run.kind,
                    "target_path": run.target_path,
                    "window": list(run.window) if run.window else None,
                    "params": run.params,
                }
                for run in runs
            ],
        }
        _atomic_write_text(self._path("plan.json"), encode_line(plan) + "\n")
        _atomic_write_bytes(
            self._path("golden.pkl"),
            pickle.dumps(
                {
                    "traces": golden.traces,
                    "image": golden.image,
                    "horizon": golden.horizon,
                },
                protocol=pickle.HIGHEST_PROTOCOL,
            ),
        )

    def load_plan(
        self,
    ) -> "tuple[GoldenReference, list[RunSpec]] | None":
        """The cached golden reference and run plan, or ``None``."""
        try:
            with open(self._path("plan.json"), encoding="utf-8") as stream:
                plan = decode_line(stream.read().strip())
            with open(self._path("golden.pkl"), "rb") as stream:
                state = pickle.load(stream)
            golden = GoldenReference(
                state["traces"], state["image"], state["horizon"]
            )
            runs = [
                RunSpec(
                    int(doc["run_id"]),
                    str(doc["kind"]),
                    str(doc["target_path"]),
                    tuple(doc["window"]) if doc["window"] else None,
                    dict(doc["params"]),
                )
                for doc in plan["runs"]
            ]
        except (OSError, ValueError, KeyError, TypeError,
                pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError):
            return None
        return golden, runs

    # -- outcomes ------------------------------------------------------------

    def store_outcome(self, outcome: RunOutcome) -> None:
        """Cache one content outcome (infrastructure outcomes are
        machine artifacts and are skipped)."""
        if outcome.classification not in CACHEABLE_CLASSIFICATIONS:
            return
        os.makedirs(self.directory, exist_ok=True)
        payload = {"type": "outcome", "outcome": outcome.to_dict()}
        try:
            _atomic_write_text(
                self.outcome_path(outcome.run_id),
                encode_line(payload) + "\n",
            )
        except OSError:
            pass  # a full disk must never fail the campaign

    def load_outcome(self, run_id: int) -> "RunOutcome | None":
        try:
            with open(self.outcome_path(run_id), encoding="utf-8") as stream:
                payload = decode_line(stream.read().strip())
            return RunOutcome.from_dict(payload["outcome"])
        except (OSError, ValueError, KeyError, TypeError):
            return None


def _atomic_write_text(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as stream:
        stream.write(text)
        stream.flush()
        os.fsync(stream.fileno())
    os.replace(tmp, path)


def _atomic_write_bytes(path: str, blob: bytes) -> None:
    tmp = path + ".tmp"
    with open(tmp, "wb") as stream:
        stream.write(blob)
        stream.flush()
        os.fsync(stream.fileno())
    os.replace(tmp, path)
