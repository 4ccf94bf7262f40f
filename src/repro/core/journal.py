"""Checksummed, torn-write-safe journal I/O: the shared persistence writer.

Every durable byte the sweep stack writes — result-cache and memo JSONL
lines, the sweep manifest — goes through this module, so crash safety
is implemented (and chaos-tested) exactly once:

* **Per-line CRC** (:func:`encode_entry` / :func:`decode_entry`): each
  JSONL record carries a CRC-32 of its canonical body.  A reader can
  therefore tell a *torn tail* — an unparsable final line, the signature
  of a writer killed mid-append — from *corruption* anywhere else (an
  unparsable line mid-file, a parsable line whose CRC does not match, a
  malformed envelope).  Torn tails are truncated and the sweep
  continues; corruption is counted and surfaced by ``repro doctor``,
  which quarantines the damaged bytes rather than silently dropping
  them.  Whole-file JSON states (the manifest) get the same
  treatment via :func:`encode_blob` / :func:`decode_blob`.
* **One append path** (:func:`append_entry`): single-``write()`` line
  appends under a bounded advisory flock, with a *self-healing* check
  that the file currently ends in a newline — so an append after a torn
  write can never merge into the garbage tail and lose its own record.
  In-place rewrites (GC compaction, doctor repair) share one primitive,
  :func:`rewrite_store`.  ``repro lint`` RPR150 forbids raw append-mode
  and ``r+`` ``open()`` calls anywhere else in the package.
* **Lock discipline by construction**: every lock in the persistence
  layer is taken through :func:`lock_scope`, which checks the one
  table below (:data:`LOCK_ORDER`, :data:`STORE_KINDS`) on entry and
  raises :class:`LockOrderError` for a nesting the table does not allow; :func:`publish_blob` raises
  unless its kind's lock scope is held, and every writer that takes a
  kind rejects one it does not own with ``ValueError``.
* **Durability policy** (``REPRO_DURABILITY``): ``fsync`` syncs every
  append and every atomic-rename publish; ``batch`` (the default) skips
  the per-append fsync — completed ``write()`` syscalls survive process
  death, only machine death can lose them — but still syncs before
  rename publishes and after in-place rewrites; ``off`` never syncs
  (throwaway stores, tests).
* **Crash points**: every writer calls :func:`maybe_crash` with the
  site suffixes it declares in :data:`WRITER_SITES`
  (``cache.pre-append``, ``manifest.post-rename``, ...); :data:`CRASH_SITES`
  is derived from that declaration and the kind table.  When
  ``REPRO_CRASH_POINT`` is armed the process SIGKILLs itself there
  (see :mod:`repro.measure.faults`), which is how the crash-consistency
  suite proves doctor + resume reconverges from every named site.

Determinism contract (``repro lint`` RPR101/RPR102): encoded lines are
pure functions of their entries — the CRC covers a ``sort_keys``
canonical serialization, and nothing here reads wall clocks or entropy
(``time.monotonic``/``time.sleep`` pace the flock retry only).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import threading
import time
import zlib
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

try:
    import fcntl
except ImportError:  # non-POSIX: appends are not locked
    fcntl = None

#: Environment variable selecting the durability mode.
DURABILITY_ENV = "REPRO_DURABILITY"

#: ``fsync`` — sync every append and rename; ``batch`` — sync renames
#: only (appends survive process crashes, not power loss); ``off`` —
#: never sync.
DURABILITY_MODES = ("fsync", "batch", "off")

#: Environment variable arming a crash point (``site`` or ``site:N`` to
#: SIGKILL on the Nth hit).  The site registry and the kill itself live
#: in :mod:`repro.measure.faults`.
CRASH_POINT_ENV = "REPRO_CRASH_POINT"

#: Environment variable naming a JSONL file the lock trace recorder
#: appends to.  Unset (the default) the recorder is a no-op costing one
#: ``os.environ`` lookup per event; set, every flock acquire/release and
#: durable write emits one line — the dynamic oracle the test suite
#: compares against the lock table below.
LOCK_TRACE_ENV = "REPRO_LOCK_TRACE"

#: Longest a writer waits for the advisory file lock before proceeding
#: unlocked (single-line ``write()`` appends interleave at line
#: granularity anyway, so a missed lock degrades to at worst one torn
#: line — which the loader classifies and recovers — rather than a
#: deadlocked sweep).
LOCK_TIMEOUT = 5.0

#: Exponential-backoff schedule of the flock retry loop (mirrors
#: :class:`repro.measure.executor.RetryPolicy`): attempt *n* sleeps
#: ``min(max, base * 2**(n-1))`` plus a deterministic jitter fraction.
LOCK_RETRY_BASE = 0.005
LOCK_RETRY_MAX = 0.1
LOCK_RETRY_JITTER = 0.25


def durability_mode(explicit: Optional[str] = None) -> str:
    """The active durability mode: *explicit*, ``$REPRO_DURABILITY``,
    or the ``batch`` default.  Unknown values fall back to ``batch``
    (the conservative middle) rather than crashing a sweep."""
    mode = explicit or os.environ.get(DURABILITY_ENV) or "batch"
    return mode if mode in DURABILITY_MODES else "batch"


def maybe_crash(site: str) -> None:
    """SIGKILL the process at *site* when ``REPRO_CRASH_POINT`` arms it.

    A no-op (without even importing the chaos harness) unless the
    environment variable is set, so the hot append path costs one
    ``os.environ`` lookup.
    """
    if not os.environ.get(CRASH_POINT_ENV):
        return
    from repro.measure.faults import crash_point

    crash_point(site)


def _crash_armed(site: str) -> bool:
    """Whether *site* is the armed crash point (regardless of count)."""
    if not os.environ.get(CRASH_POINT_ENV):
        return False
    from repro.measure.faults import crash_site_armed

    return crash_site_armed(site)


# ---------------------------------------------------------------------------
# The persistence invariants, as one table
# ---------------------------------------------------------------------------

#: ``(held, acquired)`` pairs a thread may nest.  Doctor quarantines
#: damaged lines while it holds the store it repairs.  No other nesting
#: exists — no class nests in itself — so the order is acyclic and the
#: layer cannot deadlock.
LOCK_ORDER = frozenset({("store", "quarantine")})

#: Crash-site suffixes of each writer, declared once.  ``pre-append``
#: fires before the store is even opened, ``mid-append`` splits the
#: one-line write to manufacture a torn tail, ``pre-fsync`` fires after
#: the write but before durability, ``post-append`` after the lock is
#: released; ``pre-rename``/``post-rename`` bracket the atomic publish
#: of whole-file states.  The quarantine sidecar appends raw (already
#: damaged) bytes in one write — no split worth manufacturing, no fsync
#: barrier worth naming — and in-place rewrites run only under an
#: explicit ``gc``/``doctor --repair``, so neither carries more.
WRITER_SITES = {
    "append": ("pre-append", "mid-append", "pre-fsync", "post-append"),
    "quarantine": ("pre-append", "post-append"),
    "publish": ("pre-rename", "post-rename"),
    "rewrite": (),
}

#: Store kind -> (lock class its bytes change under, its writer).
STORE_KINDS = {
    "cache": ("store", "append"),
    "memo": ("store", "append"),
    "quarantine": ("quarantine", "quarantine"),
    "manifest": ("manifest", "publish"),
    "compact": ("store", "rewrite"),
    "repair": ("store", "rewrite"),
}

#: Lock classes, derived from the kind table.  A class names a family
#: of files sharing one discipline, not a path: every
#: ``<uarch>.manifest.json.lock`` is "manifest".
LOCK_CLASSES = tuple(sorted({lock for lock, _ in STORE_KINDS.values()}))

#: Every named crash point, derived from the two tables above (the
#: registry :mod:`repro.measure.faults` re-exports).
CRASH_SITES = tuple(
    f"{kind}.{suffix}"
    for kind, (_, writer) in STORE_KINDS.items()
    for suffix in WRITER_SITES[writer]
)


class LockOrderError(RuntimeError):
    """A lock taken against the table above, or a store written
    outside its lock scope."""


def _lock_for(kind: str, writer: str) -> str:
    """The lock class of store *kind*; ``ValueError`` unless *writer*
    is the writer :data:`STORE_KINDS` assigns it."""
    lock, owner = STORE_KINDS.get(kind, (None, None))
    if owner != writer:
        raise ValueError(f"no {writer} store of kind {kind!r}")
    return lock


# ---------------------------------------------------------------------------
# Lock trace recorder
# ---------------------------------------------------------------------------

#: Per-thread stack of the ``(lock class, path)`` scopes this thread is
#: inside, in entry order — maintained by :func:`lock_scope` alone.
_LOCK_STATE = threading.local()


def _held_locks() -> List[Tuple[str, str]]:
    held = getattr(_LOCK_STATE, "held", None)
    if held is None:
        held = []
        _LOCK_STATE.held = held
    return held


def trace_event(event: str, **fields) -> None:
    """Append one trace line when ``REPRO_LOCK_TRACE`` names a file.

    Each line is a self-contained JSON record carrying the event name,
    the emitting pid/thread, and the lock classes held at that moment.
    O_APPEND single-``write()`` lines keep concurrent processes from
    interleaving mid-record (same argument as :func:`append_entry`); a
    reader that hits a torn final line skips it.
    """
    path = os.environ.get(LOCK_TRACE_ENV)
    if not path:
        return
    record = dict(fields)
    record["event"] = event
    record["held"] = [name for name, _ in _held_locks()]
    record["pid"] = os.getpid()
    record["thread"] = threading.get_ident()
    line = json.dumps(record, sort_keys=True) + "\n"
    try:
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(line)
    except OSError:
        # Tracing is observability, never control flow: a broken trace
        # file must not take down the writer being observed.
        pass


# ---------------------------------------------------------------------------
# Bounded, jittered flock and the one lock scope
# ---------------------------------------------------------------------------


def retry_delay(
    attempt: int,
    salt: str,
    base: float = LOCK_RETRY_BASE,
    cap: float = LOCK_RETRY_MAX,
    jitter: float = LOCK_RETRY_JITTER,
) -> float:
    """Deterministic backoff-plus-jitter delay for retry *attempt*
    (1-based): ``min(cap, base * 2**(attempt-1))`` stretched by up to
    *jitter* of itself.  The jitter fraction is drawn from a digest of
    (attempt, salt), so two writers contending for the same lock — or
    two workers retrying the same flaky measurement — de-synchronize
    identically on every run.  The defaults are the lock's; the
    executor's ``RetryPolicy.delay_for`` passes its own fields."""
    delay = min(cap, base * 2 ** (attempt - 1))
    digest = hashlib.sha256(f"{attempt}:{salt}".encode("utf-8")).digest()
    fraction = int.from_bytes(digest[:4], "big") / 2**32
    return delay * (1.0 + jitter * fraction)


def flock_bounded(
    handle,
    timeout: float = LOCK_TIMEOUT,
    salt: str = "",
    name: str = "store",
) -> Tuple[bool, int]:
    """Try to take an exclusive flock, giving up after *timeout* seconds.

    Returns ``(locked, retries)``: whether the lock was acquired, and
    how many non-blocking attempts failed before it was (or before the
    deadline).  A plain blocking ``flock`` can park a sweep forever
    behind a worker that died while holding the lock; polling a
    non-blocking attempt with capped exponential backoff (plus the
    deterministic jitter of :func:`retry_delay`) bounds the damage
    without stampeding the lock.

    The raw primitive: a successful acquisition is traced under the
    lock class *name*, but the held-lock bookkeeping and the release
    belong to :func:`lock_scope`, the one way the package takes a lock.
    """
    if fcntl is None:
        return False, 0
    deadline = time.monotonic() + timeout
    attempt = 0
    while True:
        try:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
            trace_event("acquire", lock=name)
            return True, attempt
        except OSError:
            now = time.monotonic()
            if now >= deadline:
                return False, attempt
            attempt += 1
            time.sleep(
                min(retry_delay(attempt, salt), deadline - now)
            )


@contextlib.contextmanager
def lock_scope(handle, name: str, salt: str = "", stats=None):
    """Hold the lock class *name* on *handle* for the ``with`` body.

    *name* must be one of :data:`LOCK_CLASSES`.  On entry the nesting
    is checked against :data:`LOCK_ORDER` for every scope this thread
    is already in — a violation raises
    :class:`LockOrderError` before any flock is tried.  Then the
    bounded flock is taken (its retries and a timeout are folded into
    *stats*' ``lock_retries`` / ``lock_timeouts``, when it carries
    them) and the scope is pushed on the thread's held stack.  A lock
    that times out still enters the body unlocked — a missed lock
    degrades to at worst one torn line, not a wedged sweep — and the
    scope is pushed and popped either way, so the held stack always
    mirrors the ``with`` nesting.
    """
    if name not in LOCK_CLASSES:
        raise ValueError(f"unknown lock class {name!r}")
    held = _held_locks()
    path = getattr(handle, "name", "")
    for held_name, _ in held:
        if (held_name, name) not in LOCK_ORDER:
            raise LockOrderError(
                f"{name!r} lock taken while holding {held_name!r}"
            )
    locked, retries = flock_bounded(handle, salt=salt, name=name)
    _count(stats, "lock_retries", retries)
    if not locked and fcntl is not None:
        _count(stats, "lock_timeouts", 1)
    held.append((name, path))
    try:
        yield
    finally:
        held.pop()
        if locked:
            fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
            trace_event("release", lock=name)


def _count(stats, field: str, amount: int) -> None:
    """Bump ``stats.<field>`` when *stats* carries such a counter."""
    if stats is None or amount == 0:
        return
    current = getattr(stats, field, None)
    if current is not None:
        setattr(stats, field, current + amount)


# ---------------------------------------------------------------------------
# Per-line CRC codec
# ---------------------------------------------------------------------------


def line_crc(body: str) -> str:
    """CRC-32 of a canonical line body, as 8 hex digits."""
    return format(zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF, "08x")


def encode_entry(entry: Dict[str, Any]) -> str:
    """One checksummed JSONL line (without the trailing newline).

    The CRC covers the ``sort_keys`` canonical serialization of the
    entry *without* its ``crc`` field, so decoding re-derives the same
    bytes from the parsed JSON — no raw-line bookkeeping needed.
    """
    body = {key: value for key, value in entry.items() if key != "crc"}
    crc = line_crc(json.dumps(body, sort_keys=True))
    body["crc"] = crc
    return json.dumps(body, sort_keys=True)


def decode_entry(line: str):
    """Parse one checksummed JSONL line.

    Returns ``(entry, None)`` — the entry *without* its ``crc`` field —
    or ``(None, problem)`` where *problem* is:

    * ``"unparsable"`` — not JSON at all (a torn write, if it is the
      file's final line; corruption otherwise — the caller classifies
      by position, see :func:`scan_journal`);
    * ``"corrupt"`` — well-formed JSON with a malformed envelope (not a
      dict, no string ``key``, no ``data``);
    * ``"crc"`` — envelope intact but the checksum is missing or does
      not match the body (bit rot, a partially overwritten line, or a
      legacy line from before checksumming).
    """
    try:
        entry = json.loads(line)
    except ValueError:
        return None, "unparsable"
    if not isinstance(entry, dict):
        return None, "corrupt"
    crc = entry.pop("crc", None)
    if not isinstance(entry.get("key"), str) or "data" not in entry:
        return None, "corrupt"
    if crc != line_crc(json.dumps(entry, sort_keys=True)):
        return None, "crc"
    return entry, None


# ---------------------------------------------------------------------------
# Whole-file JSON states (the manifest)
# ---------------------------------------------------------------------------


def encode_blob(state: Dict[str, Any]) -> str:
    """A whole-file JSON state with a top-level ``crc`` field (same
    canonical-body scheme as :func:`encode_entry`)."""
    body = {key: value for key, value in state.items() if key != "crc"}
    crc = line_crc(json.dumps(body, sort_keys=True))
    body["crc"] = crc
    return json.dumps(body, sort_keys=True)


def decode_blob(text: str):
    """Parse a checksummed whole-file state; ``(state, None)`` or
    ``(None, "unparsable" | "corrupt" | "crc")``."""
    try:
        state = json.loads(text)
    except ValueError:
        return None, "unparsable"
    if not isinstance(state, dict):
        return None, "corrupt"
    crc = state.pop("crc", None)
    if crc != line_crc(json.dumps(state, sort_keys=True)):
        return None, "crc"
    return state, None


# ---------------------------------------------------------------------------
# Scanning: torn-tail vs. mid-file classification
# ---------------------------------------------------------------------------


class JournalRecord(NamedTuple):
    """One line of a scanned journal, valid or not."""

    entry: Optional[Dict[str, Any]]
    #: ``None`` (valid), ``"torn"`` (unparsable final line — a crashed
    #: append, safe to truncate), ``"unparsable"`` / ``"corrupt"`` /
    #: ``"crc"`` (mid-file damage — quarantine material).
    problem: Optional[str]
    #: Byte offset of the line start within the file.
    offset: int
    #: Raw line bytes (without the newline).
    raw: bytes


class JournalScan:
    """The result of :func:`scan_journal`: every record, classified."""

    def __init__(self):
        self.records: List[JournalRecord] = []
        #: Byte offset where a torn tail starts (``None`` = clean tail).
        #: Truncating the file here recovers every intact record.
        self.torn_offset: Optional[int] = None
        #: Mid-file records that failed to decode (excludes the torn
        #: tail): these need quarantine, not truncation.
        self.corrupt = 0
        self.size = 0

    @property
    def torn(self) -> bool:
        return self.torn_offset is not None

    def entries(self) -> List[Dict[str, Any]]:
        """The valid entries, in file order."""
        return [
            record.entry for record in self.records
            if record.problem is None
        ]


def scan_journal(path: str) -> JournalScan:
    """Read and classify every line of the JSONL store at *path*
    (:func:`scan_blob` over the file's bytes; a missing file scans as
    empty)."""
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except OSError:
        return JournalScan()
    return scan_blob(blob)


def scan_blob(blob: bytes) -> JournalScan:
    """Classify every line of a JSONL store's bytes.

    The classification rule: a line that is not even JSON *and* is the
    file's final line is a **torn tail** — the signature of a writer
    killed mid-append — and is safe to truncate away.  Everything else
    that fails to decode (unparsable mid-file, bad envelope, CRC
    mismatch anywhere) is **corruption**: bytes that claim to be a
    record but cannot be trusted, counted and left for ``repro doctor``
    to quarantine.
    """
    scan = JournalScan()
    scan.size = len(blob)
    lines: List[Tuple[int, bytes]] = []
    offset = 0
    for raw in blob.split(b"\n"):
        if raw.strip():
            lines.append((offset, raw))
        offset += len(raw) + 1
    for index, (start, raw) in enumerate(lines):
        try:
            entry, problem = decode_entry(raw.decode("utf-8"))
        except UnicodeDecodeError:
            entry, problem = None, "unparsable"
        if problem == "unparsable" and index == len(lines) - 1:
            problem = "torn"
            scan.torn_offset = start
        elif problem is not None:
            scan.corrupt += 1
        scan.records.append(JournalRecord(entry, problem, start, raw))
    return scan


# ---------------------------------------------------------------------------
# The one append path
# ---------------------------------------------------------------------------


def append_entry(
    path: str,
    entry: Dict[str, Any],
    kind: str = "cache",
    stats=None,
    durability: Optional[str] = None,
) -> None:
    """Append one checksummed entry to the JSONL store at *path*.

    *kind* names the store for crash-point sites (``cache``, ``memo``;
    any other kind is a ``ValueError``).  *stats* is any object carrying
    ``lock_timeouts`` / ``lock_retries`` counters (e.g.
    :class:`~repro.core.cache.ResultCache`); the bounded flock's retries
    and timeouts are folded into it.

    Crash safety: the record is a single ``write()`` of one line, taken
    after self-healing a missing trailing newline — so a predecessor's
    torn tail can corrupt at most *itself*, never a later append.  The
    armed ``{kind}.mid-append`` site deliberately splits the write to
    manufacture the torn-tail case the readers must recover from.
    """
    lock = _lock_for(kind, "append")
    line = encode_entry(entry)
    payload = (line + "\n").encode("utf-8")
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    mode = durability_mode(durability)
    maybe_crash(f"{kind}.pre-append")
    with open(path, "ab+") as handle, lock_scope(
        handle, lock, salt=path, stats=stats
    ):
        trace_event("write", store=kind)
        handle.seek(0, os.SEEK_END)
        if handle.tell() > 0:
            handle.seek(-1, os.SEEK_END)
            if handle.read(1) != b"\n":
                # A previous writer died mid-line: terminate the torn
                # tail so this record starts on its own line (the scan
                # still classifies the tail as torn-or-corrupt; it just
                # cannot swallow this append).
                handle.write(b"\n")
        if _crash_armed(f"{kind}.mid-append"):
            half = max(1, len(payload) // 2)
            handle.write(payload[:half])
            handle.flush()
            maybe_crash(f"{kind}.mid-append")
            handle.write(payload[half:])
        else:
            handle.write(payload)
        handle.flush()
        maybe_crash(f"{kind}.pre-fsync")
        if mode == "fsync":
            os.fsync(handle.fileno())
    maybe_crash(f"{kind}.post-append")


def quarantine_lines(
    path: str,
    lines: List[bytes],
    durability: Optional[str] = None,
) -> None:
    """Append raw damaged lines to the quarantine sidecar at *path*.

    Quarantined bytes are preserved verbatim — they failed to decode,
    so they cannot be re-encoded through :func:`append_entry` — but the
    append still goes through this module (lint RPR150) so it shares
    the lock scope, the durability policy, and the
    ``quarantine.pre-append`` / ``quarantine.post-append`` crash points
    with every other writer.
    """
    if not lines:
        return
    mode = durability_mode(durability)
    maybe_crash("quarantine.pre-append")
    with open(path, "ab+") as handle, lock_scope(
        handle, "quarantine", salt=path
    ):
        trace_event("write", store="quarantine")
        handle.seek(0, os.SEEK_END)
        handle.write(b"\n".join(lines) + b"\n")
        handle.flush()
        if mode == "fsync":
            os.fsync(handle.fileno())
    maybe_crash("quarantine.post-append")


def publish_blob(
    path: str,
    state: Dict[str, Any],
    kind: str,
    durability: Optional[str] = None,
) -> None:
    """Atomically publish a checksummed whole-file JSON state.

    Write-to-temp + ``os.replace``: readers observe either the old or
    the new state, never a mixture.  Under ``fsync``/``batch`` the temp
    file is synced before the rename (an unsynced rename can publish an
    empty inode after power loss); ``off`` skips the sync.  The
    ``{kind}.pre-rename`` / ``{kind}.post-rename`` crash points bracket
    the publish.

    The caller must be inside the :func:`lock_scope` of the kind's lock
    class — the read-modify-write that produced *state* is only atomic
    under it — so a publish outside it raises :class:`LockOrderError`.
    """
    lock = _lock_for(kind, "publish")
    if not any(name == lock for name, _ in _held_locks()):
        raise LockOrderError(
            f"publish_blob(kind={kind!r}) outside a {lock!r} lock scope"
        )
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    mode = durability_mode(durability)
    blob = encode_blob(state)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(blob)
        handle.flush()
        if mode != "off":
            os.fsync(handle.fileno())
    trace_event("write", store=kind)
    maybe_crash(f"{kind}.pre-rename")
    os.replace(tmp, path)
    maybe_crash(f"{kind}.post-rename")


def rewrite_store(
    path: str,
    rewrite: Callable[[bytes], Optional[bytes]],
    kind: str,
) -> None:
    """Rewrite the JSONL store at *path* in place, under its lock.

    ``rewrite(blob)`` receives the store's bytes and returns their
    replacement, or ``None`` to leave the file untouched.  The rewrite
    is in place (seek + truncate), not write-and-rename, so a
    concurrent appender blocks on the store lock instead of appending
    to a doomed inode.  Synced unless the durability mode is ``off``.
    A missing store is skipped.  *kind* is ``compact`` (GC) or
    ``repair`` (doctor).
    """
    lock = _lock_for(kind, "rewrite")
    try:
        handle = open(path, "r+b")
    except OSError:
        return
    with handle, lock_scope(handle, lock, salt=path):
        trace_event("write", store=kind)
        replacement = rewrite(handle.read())
        if replacement is None:
            return
        handle.seek(0)
        handle.truncate()
        handle.write(replacement)
        handle.flush()
        if durability_mode() != "off":
            os.fsync(handle.fileno())
