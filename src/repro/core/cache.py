"""Content-addressed persistent cache of characterization results.

A full sweep re-measures thousands of instruction variants even though
the simulator is deterministic: for a fixed (form, microarchitecture,
measurement configuration, code version) the characterization can never
change.  This module memoizes it on disk so that repeated ``sweep`` runs,
``table1`` regeneration, and the benchmark harness skip measurement
entirely.

Entries live in JSON-lines files, one per microarchitecture, under
``~/.cache/repro`` (or an explicit ``cache_dir``).  Each line carries

* ``salt`` — the code-version salt it was written under,
* ``key``  — a SHA-256 digest of (form uid, uarch name, the
  :class:`~repro.measure.backend.MeasurementConfig` protocol fields,
  salt),
* ``uid`` / ``uarch`` — for human inspection of the file,
* ``data`` — the :func:`~repro.core.result.encode_characterization`
  encoding, or ``null`` for a form the runner skips (so a warm sweep
  does not need a backend even to re-discover what is unmeasurable).

Because the salt participates in the key, bumping :data:`CACHE_SCHEMA`
(or the package version) invalidates every existing entry; stale lines
are counted as invalidations and dropped on load.  Each line carries a
CRC (see :mod:`repro.core.journal`, the shared crash-safe writer all
appends go through): an unparsable *final* line is a **torn tail** — a
writer died mid-append — counted in ``torn_tails`` and recovered by
truncation, while damage anywhere else (unparsable mid-file lines,
CRC mismatches, malformed envelopes) is counted in ``corrupt_lines``
and left for ``repro doctor`` to quarantine.  The file is append-only:
re-characterized entries are appended and the last line for a key
wins.  Appends take an advisory ``flock`` with a **bounded**, jittered
retry (:func:`~repro.core.journal.lock_scope`): a writer that
cannot get the lock proceeds unlocked (counted in ``lock_timeouts``,
with the retry attempts in ``lock_retries``) rather than deadlocking
the sweep behind a crashed lock holder.

Beyond the result store this module also holds the *incremental sweep*
machinery: :func:`form_fingerprint` digests every input of one form's
characterization (catalog entry, ground-truth µop tables, uarch knobs,
measurement protocol, code-version salt), :class:`SweepManifest`
persists those fingerprints per (uarch, config) so the next sweep can
diff them and re-measure only affected forms, and
:func:`collect_garbage` compacts the JSONL stores, dropping orphaned
keys (no manifest references them) and superseded or stale lines.

Contract (enforced by ``repro lint``, RPR101/RPR102): keys and encoded
entries must be deterministic functions of their inputs — no wall-clock
reads, no unseeded randomness, no iteration over unordered sets on any
path that feeds a digest or a serialized line.  ``time.monotonic`` /
``time.sleep`` are exempt because the flock retry loop paces with them;
they never reach a key.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, Optional, Sequence

from repro.core.journal import (
    LOCK_TIMEOUT,
    append_entry,
    decode_blob,
    decode_entry,
    encode_entry,
    lock_scope,
    publish_blob,
    rewrite_store,
    scan_journal,
)
from repro.measure.backend import MeasurementConfig
from repro.stats import RunStatistics

#: Bump to invalidate every cache entry written by older code — part of
#: every cache key, together with the package version.  2: per-line
#: CRCs (PR 9) — pre-CRC lines would all classify as damaged, so the
#: salt retires them wholesale instead.
CACHE_SCHEMA = 2

_MISS = object()


def cache_salt() -> str:
    """The code-version salt mixed into every cache key."""
    from repro import __version__

    return f"{__version__}/{CACHE_SCHEMA}"


def default_cache_dir() -> str:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(base, "repro")


def cache_key(
    form_uid: str,
    uarch_name: str,
    config: MeasurementConfig,
    salt: Optional[str] = None,
) -> str:
    """Content address of one measurement: digest of everything that
    could change its outcome."""
    payload = json.dumps(
        {
            "uid": form_uid,
            "uarch": uarch_name,
            # Protocol fields only: resource knobs such as the LRU bound
            # do not affect results and must not invalidate the cache.
            "config": config.protocol_fields(),
            "salt": salt if salt is not None else cache_salt(),
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _store_stats(store, **extra) -> RunStatistics:
    """A journal store's integrity and lock counters."""
    return RunStatistics(
        corrupt_lines=store.corrupt_lines,
        torn_tails=store.torn_tails,
        lock_timeouts=store.lock_timeouts,
        lock_retries=store.lock_retries,
        **extra,
    )


class ResultCache:
    """Persistent characterization store, one JSON-lines file per uarch."""

    def __init__(
        self,
        cache_dir: Optional[str] = None,
        salt: Optional[str] = None,
    ):
        self.cache_dir = cache_dir or default_cache_dir()
        # Fail before any measurement work, not at the first put().
        if os.path.exists(self.cache_dir) and not os.path.isdir(
            self.cache_dir
        ):
            raise NotADirectoryError(
                f"cache path exists and is not a directory: "
                f"{self.cache_dir}"
            )
        self.salt = salt if salt is not None else cache_salt()
        #: Entries loaded under a different salt, dropped on load.
        self.invalidations = 0
        #: Mid-file lines that could not be decoded (garbage, CRC
        #: mismatches, malformed payloads) — distinct from
        #: invalidations, which are *valid* entries from another code
        #: version, and from torn tails, which are crash residue.
        self.corrupt_lines = 0
        #: Unparsable final lines (a writer died mid-append); the
        #: intact prefix is served and doctor truncates the tail.
        self.torn_tails = 0
        #: Appends that proceeded unlocked after the bounded flock wait,
        #: and the total lock-retry attempts behind all appends.
        self.lock_timeouts = 0
        self.lock_retries = 0
        self._entries: Dict[str, Dict[str, Any]] = {}
        self._loaded: set = set()

    # -- file layout ----------------------------------------------------

    def path_for(self, uarch_name: str) -> str:
        return os.path.join(self.cache_dir, f"{uarch_name}.jsonl")

    def load(self, uarch_name: str) -> None:
        """Read the store for *uarch_name* once, counting its damage and
        invalidations (later calls are no-ops)."""
        if uarch_name in self._loaded:
            return
        self._loaded.add(uarch_name)
        scan = scan_journal(self.path_for(uarch_name))
        self.torn_tails += 1 if scan.torn else 0
        self.corrupt_lines += scan.corrupt
        for entry in scan.entries():
            if entry.get("salt") != self.salt:
                self.invalidations += 1
                continue
            self._entries[entry["key"]] = entry

    def stats(self) -> RunStatistics:
        """This store's counters so far, in the run's counter record."""
        return _store_stats(self, cache_invalidations=self.invalidations)

    # -- lookup / store -------------------------------------------------

    def key_for(self, form_uid: str, uarch_name: str,
                config: MeasurementConfig) -> str:
        return cache_key(form_uid, uarch_name, config, self.salt)

    def get(self, key: str, uarch_name: str):
        """The stored ``data`` dict, ``None`` for a cached skip marker, or
        the module-level miss sentinel."""
        self.load(uarch_name)
        entry = self._entries.get(key)
        if entry is None:
            return _MISS
        return entry["data"]

    @staticmethod
    def is_miss(value) -> bool:
        return value is _MISS

    @staticmethod
    def miss():
        """The sentinel :meth:`get` returns for an absent key."""
        return _MISS

    def put(
        self,
        key: str,
        form_uid: str,
        uarch_name: str,
        data: Optional[Dict[str, Any]],
    ) -> None:
        """Persist one characterization (``data=None`` marks a skip)."""
        self.load(uarch_name)
        entry = {
            "salt": self.salt,
            "key": key,
            "uid": form_uid,
            "uarch": uarch_name,
            "data": data,
        }
        self._entries[key] = entry
        os.makedirs(self.cache_dir, exist_ok=True)
        append_entry(
            self.path_for(uarch_name), entry, kind="cache", stats=self
        )

    def __len__(self) -> int:
        return len(self._entries)


def measurement_key(
    uarch_name: str,
    config: MeasurementConfig,
    code: Sequence,
    init: Optional[Dict[str, int]],
    salt: Optional[str] = None,
) -> str:
    """Content address of one raw ``measure()`` call.

    ``code`` is a sequence of instantiated instructions; the digest uses
    ``form.uid|<intel syntax>`` per instruction, which pins both the
    form and the concrete operand assignment (registers, immediates,
    memory operands) that codegen chose.
    """
    payload = json.dumps(
        {
            "uarch": uarch_name,
            "config": config.protocol_fields(),
            "salt": salt if salt is not None else cache_salt(),
            "code": [
                f"{instruction.form.uid}|{instruction}"
                for instruction in code
            ],
            "init": sorted(init.items()) if init else None,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class MeasurementMemo:
    """Persistent memo of raw backend measurements, shared across workers.

    The characterization algorithms re-measure the same *sub*-sequences
    for thousands of forms: every blocking-instruction discovery run
    (Section 5.1.1), the per-port blocking blocks of Algorithm 1, and
    the chain fragments of the latency generators are identical across
    forms — and across the :class:`~repro.core.sweep.SweepEngine` worker
    processes, each of which used to rebuild its own in-process cache
    from scratch.  This memo persists those
    :class:`~repro.pipeline.core.CounterValues` (in the lossless
    :func:`~repro.core.result.encode_counters` wire format) next to the
    result cache, keyed by :func:`measurement_key`.

    Concurrency model: workers load the file once (lazily) and append
    new entries under an advisory ``flock``; appends are single
    ``write()`` calls of one JSON line, so concurrent writers interleave
    at line granularity and a torn tail line is dropped as an
    invalidation on the next load.  Entries written by one worker become
    visible to *other* processes on their next load — the parent
    pre-warms shared measurements before forking so workers start hot.
    """

    #: File suffix distinguishing memo files from result-cache files.
    SUFFIX = ".measure.jsonl"

    def __init__(
        self,
        cache_dir: Optional[str] = None,
        salt: Optional[str] = None,
    ):
        self.cache_dir = cache_dir or default_cache_dir()
        if os.path.exists(self.cache_dir) and not os.path.isdir(
            self.cache_dir
        ):
            raise NotADirectoryError(
                f"cache path exists and is not a directory: "
                f"{self.cache_dir}"
            )
        self.salt = salt if salt is not None else cache_salt()
        #: Entries loaded under a different salt, dropped on load.
        self.invalidations = 0
        #: Mid-file undecodable lines skipped on load — see
        #: :class:`ResultCache`.
        self.corrupt_lines = 0
        #: Unparsable final lines (crashed appends) — see
        #: :class:`ResultCache`.
        self.torn_tails = 0
        #: Appends that proceeded unlocked after the bounded flock wait,
        #: and the lock-retry attempts behind all appends.
        self.lock_timeouts = 0
        self.lock_retries = 0
        self._entries: Dict[str, Any] = {}
        self._loaded: set = set()

    def path_for(self, uarch_name: str) -> str:
        return os.path.join(self.cache_dir, f"{uarch_name}{self.SUFFIX}")

    def load(self, uarch_name: str) -> None:
        """Read the memo for *uarch_name* once (see
        :meth:`ResultCache.load`)."""
        if uarch_name in self._loaded:
            return
        self._loaded.add(uarch_name)
        scan = scan_journal(self.path_for(uarch_name))
        self.torn_tails += 1 if scan.torn else 0
        self.corrupt_lines += scan.corrupt
        for entry in scan.entries():
            if entry.get("salt") != self.salt:
                self.invalidations += 1
                continue
            self._entries[entry["key"]] = entry["data"]

    def stats(self) -> RunStatistics:
        """This memo's counters so far, in the run's counter record."""
        return _store_stats(self, memo_invalidations=self.invalidations)

    def key_for(
        self,
        uarch_name: str,
        config: MeasurementConfig,
        code: Sequence,
        init: Optional[Dict[str, int]],
    ) -> str:
        return measurement_key(uarch_name, config, code, init, self.salt)

    def get(self, key: str, uarch_name: str):
        """The encoded counters, or the module-level miss sentinel."""
        self.load(uarch_name)
        return self._entries.get(key, _MISS)

    @staticmethod
    def is_miss(value) -> bool:
        return value is _MISS

    def put(self, key: str, uarch_name: str, data: Dict[str, Any]) -> None:
        self.load(uarch_name)
        if key in self._entries:
            return
        self._entries[key] = data
        os.makedirs(self.cache_dir, exist_ok=True)
        append_entry(
            self.path_for(uarch_name),
            {"salt": self.salt, "key": key, "data": data},
            kind="memo",
            stats=self,
        )

    def __len__(self) -> int:
        return len(self._entries)


# ---------------------------------------------------------------------------
# Incremental re-characterization: per-form input fingerprints + manifest
# ---------------------------------------------------------------------------


def catalog_context_digest(database, uarch) -> str:
    """Digest of everything the *blocking-instruction discovery* reads.

    The port-usage algorithm measures every form against blocking
    instructions selected from the whole catalog (Section 5.1.1), so a
    form's characterization depends not only on its own entry but on the
    µop decompositions of every potential blocker.  This digest covers
    the sorted (uid, encoded entry) pairs of the full catalog on one
    generation: any edit that could shift the blocking selection — an
    entry's ports, a form added or removed — changes it, conservatively
    re-characterizing everything.  Catalog edits that leave all entries
    intact (an attribute toggle, a flags fix) leave it unchanged, so
    only the edited forms re-measure.
    """
    from repro.uarch.tables import build_entry
    from repro.uarch.uops import encode_entry

    pairs = []
    for form in database:
        try:
            encoded = encode_entry(build_entry(form, uarch))
        except KeyError:
            encoded = f"error:{form.category}"
        pairs.append([form.uid, encoded])
    pairs.sort(key=lambda pair: pair[0])
    payload = json.dumps(
        {"uarch": uarch.name, "entries": pairs}, sort_keys=True
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def catalog_context_key(database, uarch, salt: str) -> str:
    """Cheap digest of everything :func:`catalog_context_digest` reads.

    ``build_entry`` is a function of the form's catalog entry
    (:meth:`InstructionForm.fingerprint_payload`), the generation's
    knobs and the table modules of :mod:`repro.uarch`, so hashing those
    — without running the rules — identifies the digest.  The sweep
    persists ``{key, digest}`` in the manifest and recomputes the
    digest only when this key moves.
    """
    import repro.uarch

    tables = os.path.dirname(os.path.abspath(repro.uarch.__file__))
    hasher = hashlib.sha256()
    for name in sorted(os.listdir(tables)):
        if name.endswith(".py"):
            with open(os.path.join(tables, name), "rb") as handle:
                hasher.update(name.encode("utf-8") + b"\0" + handle.read())
    forms = sorted(
        ([form.uid, form.fingerprint_payload()] for form in database),
        key=lambda pair: pair[0],
    )
    payload = json.dumps(
        {"salt": salt, "uarch": uarch.fingerprint_fields(), "forms": forms},
        sort_keys=True,
    )
    hasher.update(payload.encode("utf-8"))
    return hasher.hexdigest()


def form_fingerprint(
    form,
    uarch,
    config: MeasurementConfig,
    salt: Optional[str] = None,
    context: Optional[str] = None,
) -> str:
    """Digest of every input of one form's characterization.

    Covers the catalog entry (:meth:`InstructionForm.fingerprint_payload`),
    the ground-truth µop tables (``build_entry``),
    the generation's simulation knobs, the measurement protocol, the
    code-version salt, and optionally the catalog-wide blocking
    *context* (:func:`catalog_context_digest`).  Two sweeps whose
    fingerprints agree for a form would measure byte-identical results,
    so the incremental path may serve the cached one; any input edit
    flips the fingerprint and re-measures exactly the affected forms.
    """
    from repro.uarch.tables import build_entry
    from repro.uarch.uops import encode_entry

    try:
        entry = encode_entry(build_entry(form, uarch))
    except KeyError:
        entry = f"error:{form.category}"
    payload = json.dumps(
        {
            "catalog": form.fingerprint_payload(),
            "entry": entry,
            "uarch": uarch.fingerprint_fields(),
            "config": config.protocol_fields(),
            "salt": salt if salt is not None else cache_salt(),
            "context": context,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class SweepManifest:
    """Persistent record of the input fingerprints of the last sweep.

    One JSON file per microarchitecture next to the result cache,
    holding — per measurement-config digest — the ``uid ->
    {fingerprint, key}`` map of every form the last sweep(s) resolved.
    The incremental sweep path diffs current fingerprints against it to
    re-measure only affected forms, and :func:`collect_garbage` uses the
    union of recorded ``key`` values as the *root set*: a result-cache
    entry no manifest references is an orphan.

    Updates are read-modify-write transactions under an advisory flock
    on a sibling lock file, merged per config digest, and published
    atomically via ``os.replace`` — concurrent sweeps of different
    configs (or samples) never clobber each other's entries.
    """

    SUFFIX = ".manifest.json"

    def __init__(
        self,
        cache_dir: Optional[str] = None,
        salt: Optional[str] = None,
    ):
        self.cache_dir = cache_dir or default_cache_dir()
        self.salt = salt if salt is not None else cache_salt()
        #: Updates that proceeded unlocked, and lock-retry attempts.
        self.lock_timeouts = 0
        self.lock_retries = 0

    def stats(self) -> RunStatistics:
        """This manifest's lock counters, in the run's counter record."""
        return RunStatistics(
            lock_timeouts=self.lock_timeouts,
            lock_retries=self.lock_retries,
        )

    def path_for(self, uarch_name: str) -> str:
        return os.path.join(
            self.cache_dir, f"{uarch_name}{self.SUFFIX}"
        )

    def config_digest(self, config: MeasurementConfig) -> str:
        payload = json.dumps(
            {"config": config.protocol_fields(), "salt": self.salt},
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def _load(self, uarch_name: str) -> Dict[str, Any]:
        try:
            with open(self.path_for(uarch_name), "r",
                      encoding="utf-8") as handle:
                state, _ = decode_blob(handle.read())
        except (OSError, UnicodeDecodeError):
            state = None
        if (
            not isinstance(state, dict)
            or state.get("salt") != self.salt
            or not isinstance(state.get("configs"), dict)
        ):
            # Missing, torn, CRC-damaged, or another code version: an
            # empty manifest (a full sweep will rebuild it; GC keeps
            # everything current-salt when no manifest exists).
            return {"salt": self.salt, "configs": {}}
        return state

    def entries_for(
        self, uarch_name: str, config: MeasurementConfig
    ) -> Dict[str, Dict[str, str]]:
        """``uid -> {"fingerprint": ..., "key": ...}`` of the previous
        sweep under *config* (empty when none was recorded)."""
        state = self._load(uarch_name)
        recorded = state["configs"].get(self.config_digest(config))
        if not isinstance(recorded, dict):
            return {}
        entries = recorded.get("entries")
        return dict(entries) if isinstance(entries, dict) else {}

    def context_digest(self, uarch_name: str, key: str) -> Optional[str]:
        """The catalog context digest recorded under *key*
        (:func:`catalog_context_key`), or ``None`` when the manifest is
        missing, damaged, from another salt, or recorded another key."""
        record = self._load(uarch_name).get("context")
        if isinstance(record, dict) and record.get("key") == key:
            digest = record.get("digest")
            return digest if isinstance(digest, str) else None
        return None

    def update(
        self,
        uarch_name: str,
        config: MeasurementConfig,
        entries: Dict[str, Dict[str, str]],
        context: Optional[Dict[str, str]] = None,
    ) -> None:
        """Merge *entries* into the manifest for (*uarch*, *config*),
        replacing the ``{key, digest}`` catalog *context* record when
        one is given."""
        os.makedirs(self.cache_dir, exist_ok=True)
        path = self.path_for(uarch_name)
        with open(path + ".lock", "a+", encoding="utf-8") as lock, lock_scope(
            lock, "manifest", salt=path, stats=self
        ):
            state = self._load(uarch_name)
            digest = self.config_digest(config)
            recorded = state["configs"].setdefault(
                digest, {"config": config.protocol_fields(), "entries": {}},
            )
            recorded["entries"].update(entries)
            if context is not None:
                state["context"] = context
            publish_blob(path, state, kind="manifest")

    def prune(self, uarch_name: str, uids) -> int:
        """Drop *uids* from every recorded config of *uarch*.

        ``repro doctor --repair`` calls this when the manifest claims a
        form was resolved but the result store has no bytes for it (a
        crash between the write and the manifest record, or quarantined
        damage): the false claim is withdrawn so the next sweep
        re-measures the form instead of trusting a phantom entry.
        Returns how many entries were removed.
        """
        uids = set(uids)
        path = self.path_for(uarch_name)
        if not uids or not os.path.exists(path):
            return 0
        removed = 0
        with open(path + ".lock", "a+", encoding="utf-8") as lock, lock_scope(
            lock, "manifest", salt=path, stats=self
        ):
            state = self._load(uarch_name)
            for recorded in state["configs"].values():
                entries = recorded.get("entries")
                if not isinstance(entries, dict):
                    continue
                for uid in uids & set(entries):
                    del entries[uid]
                    removed += 1
            if removed:
                publish_blob(path, state, kind="manifest")
        return removed

    def live_keys(self, uarch_name: str) -> Optional[set]:
        """Every result-cache key any recorded sweep references, or
        ``None`` when no manifest exists for *uarch* (in which case GC
        must keep all current-salt entries — orphanhood is unprovable).
        """
        if not os.path.exists(self.path_for(uarch_name)):
            return None
        state = self._load(uarch_name)
        if not state["configs"]:
            return None
        keys = set()
        for recorded in state["configs"].values():
            entries = recorded.get("entries")
            if isinstance(entries, dict):
                for entry in entries.values():
                    if isinstance(entry, dict) and "key" in entry:
                        keys.add(entry["key"])
        return keys


# ---------------------------------------------------------------------------
# Garbage collection / compaction
# ---------------------------------------------------------------------------


class GCStats:
    """Counters of one :func:`collect_garbage` run."""

    def __init__(self):
        self.result_kept = 0
        self.result_dropped_orphan = 0
        self.result_dropped_stale = 0
        self.result_dropped_superseded = 0
        self.memo_kept = 0
        self.memo_dropped = 0
        self.corrupt_dropped = 0
        self.bytes_before = 0
        self.bytes_after = 0

    @property
    def keys_dropped(self) -> int:
        """Total lines dropped across every store (the ``gc_keys_dropped``
        statistics counter)."""
        return (
            self.result_dropped_orphan
            + self.result_dropped_stale
            + self.result_dropped_superseded
            + self.memo_dropped
            + self.corrupt_dropped
        )

    def as_dict(self) -> Dict[str, int]:
        return {
            "result_kept": self.result_kept,
            "result_dropped_orphan": self.result_dropped_orphan,
            "result_dropped_stale": self.result_dropped_stale,
            "result_dropped_superseded": self.result_dropped_superseded,
            "memo_kept": self.memo_kept,
            "memo_dropped": self.memo_dropped,
            "corrupt_dropped": self.corrupt_dropped,
            "keys_dropped": self.keys_dropped,
            "bytes_before": self.bytes_before,
            "bytes_after": self.bytes_after,
        }


def _compact_jsonl(path: str, keep, stats: GCStats, kind: str) -> None:
    """Rewrite one JSONL store in place, keeping the last entry per key
    for which ``keep(entry)`` is true.

    The rewrite goes through :func:`~repro.core.journal.rewrite_store`,
    under the same lock the appenders take.  Undecodable lines — torn
    tails and mid-file corruption alike — are dropped and counted: GC
    is an explicit "compact everything" request, unlike the read path,
    which preserves damaged bytes for ``repro doctor``.
    """

    def compact(blob: bytes) -> bytes:
        raw_lines = blob.decode("utf-8", errors="replace").splitlines()
        last: Dict[str, Any] = {}
        order: Dict[str, int] = {}
        for index, line in enumerate(raw_lines):
            line = line.strip()
            if not line:
                continue
            entry, problem = decode_entry(line)
            if problem is not None:
                stats.corrupt_dropped += 1
                continue
            key = entry["key"]
            if key in last:
                stats.result_dropped_superseded += (
                    1 if kind == "result" else 0
                )
                stats.memo_dropped += 1 if kind == "memo" else 0
            last[key] = entry
            order.setdefault(key, index)
        kept_lines = []
        for key in sorted(last, key=lambda k: order[k]):
            entry = last[key]
            verdict = keep(entry)
            if verdict == "keep":
                kept_lines.append(encode_entry(entry))
                if kind == "result":
                    stats.result_kept += 1
                else:
                    stats.memo_kept += 1
            elif verdict == "stale":
                if kind == "result":
                    stats.result_dropped_stale += 1
                else:
                    stats.memo_dropped += 1
            else:  # orphan
                if kind == "result":
                    stats.result_dropped_orphan += 1
                else:
                    stats.memo_dropped += 1
        if not kept_lines:
            return b""
        return ("\n".join(kept_lines) + "\n").encode("utf-8")

    rewrite_store(path, compact, kind="compact")


def collect_garbage(
    cache_dir: Optional[str] = None,
    salt: Optional[str] = None,
) -> GCStats:
    """Compact the persistent stores under *cache_dir*.

    * **Result stores** (``<uarch>.jsonl``): drop lines written under
      another salt, superseded lines (append-only last-wins history),
      undecodable lines, and — when a :class:`SweepManifest` exists for
      the generation — *orphans*: keys no recorded sweep references
      (stale configs, forms renamed or removed from the catalog).
      Without a manifest every current-salt entry is kept: a key's
      liveness cannot be proven, and GC must never drop a live key.
    * **Measurement memos** (``<uarch>.measure.jsonl``): stale-salt,
      duplicate, and corrupt lines are dropped (memo keys are raw
      measurement content; no per-form root set exists for them).

    Every rewrite holds the store's own lock, so a concurrent append
    waits instead of landing in a doomed inode; but GC cannot tell
    whether a sweep is running, and may drop the orphans a running
    sweep is about to claim in its manifest.  Run it between sweeps.
    Returns the per-store :class:`GCStats`.
    """
    cache_dir = cache_dir or default_cache_dir()
    salt = salt if salt is not None else cache_salt()
    stats = GCStats()
    if not os.path.isdir(cache_dir):
        return stats
    manifest = SweepManifest(cache_dir, salt=salt)

    def tally(path: str, attr: str) -> None:
        try:
            setattr(stats, attr,
                    getattr(stats, attr) + os.path.getsize(path))
        except OSError:
            pass

    for name in sorted(os.listdir(cache_dir)):
        path = os.path.join(cache_dir, name)
        if name.endswith(MeasurementMemo.SUFFIX):
            tally(path, "bytes_before")

            def keep_memo(entry):
                return (
                    "keep" if entry.get("salt") == salt else "stale"
                )

            _compact_jsonl(path, keep_memo, stats, "memo")
            tally(path, "bytes_after")
        elif name.endswith(".jsonl"):
            uarch_name = name[: -len(".jsonl")]
            tally(path, "bytes_before")
            live_keys = manifest.live_keys(uarch_name)

            def keep_result(entry):
                if entry.get("salt") != salt:
                    return "stale"
                if (
                    live_keys is not None
                    and entry["key"] not in live_keys
                ):
                    return "orphan"
                return "keep"

            _compact_jsonl(path, keep_result, stats, "result")
            tally(path, "bytes_after")
    return stats
