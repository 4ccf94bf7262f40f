"""Persistent, flock-guarded work queue for distributed sweeps.

Dealing uids to workers up front lets one slow form (a divider class,
the blocking discovery) idle every other worker, and a dead worker
needs a bespoke watchdog/respawn path.  This module instead turns the
sweep into a *shared queue* of content-keyed work units that any
number of worker processes — spawned by one engine, or by independent
``repro sweep --drain`` invocations on machines sharing the cache
directory — **lease**, execute, and **ack**:

* a unit is leased for a bounded wall-clock window; a worker that dies
  or stalls simply lets the lease expire, and the next ``lease()`` call
  by any surviving worker *steals* the unit (counted per unit and in
  the queue totals) — no supervisor involvement required;
* acks are idempotent: when a stalled worker finally finishes a unit
  that was stolen from it, the duplicate ack is ignored (results are
  deterministic pure functions, so both acks carry the same bytes);
* a unit whose lease was claimed :data:`MAX_UNIT_LEASES` times without
  an ack is poisoned — it reliably takes workers down with it — and is
  marked failed with a ``WorkerLost`` record instead of starving the
  fleet forever;
* the whole state lives in one checksummed JSON file next to the
  result cache, mutated only in read-modify-write transactions under an
  exclusive ``flock`` on a sibling lock file and published atomically
  via the shared :func:`~repro.core.journal.publish_blob` writer, so
  concurrent drainers on one filesystem never observe a torn queue and
  a crash mid-publish is detected by the CRC, not trusted;
* leases are **renewable** and **fenced**: a live owner heartbeats
  (:meth:`WorkQueue.renew`, driven by :class:`LeaseHeartbeat`) to
  extend its lease on long-running units, and every grant bumps the
  unit's monotonically increasing *fencing token*.  Result writes go
  through :meth:`WorkQueue.deposit`, which stamps and checks the token
  inside the queue transaction — so a stalled-but-alive *zombie*
  whose lease was stolen cannot silently overwrite the thief's work:
  its post-steal deposit is rejected and counted (``zombie_writes``).

Lease expiry uses ``time.time()`` (the wall clock) rather than
``time.monotonic()`` deliberately: monotonic clocks are not comparable
across machines sharing a cache directory.  This module is therefore
*not* part of the cache/result determinism contract (``repro lint``
RPR101) — nothing here ever feeds a content key.
"""

from __future__ import annotations

import dataclasses
import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional

from repro.core.cache import cache_salt
from repro.core.journal import (
    decode_blob,
    flock_bounded,
    publish_blob,
    release_flock,
    trace_event,
)
from repro.stats import RunStatistics

try:
    import fcntl
except ImportError:  # non-POSIX: transactions are not locked
    fcntl = None

#: How many times a unit may be leased before it is declared poisoned
#: and quarantined with a ``WorkerLost`` failure record.  Three leases
#: tolerate one crash plus one steal-then-crash before giving up.
MAX_UNIT_LEASES = 3

_PENDING = "pending"
_LEASED = "leased"
_ACKED = "acked"
_FAILED = "failed"


@dataclasses.dataclass
class WorkUnit:
    """One unit of sweep work: characterize ``uid`` and store it under
    the content-addressed result-cache ``key``.

    ``leases`` counts how many times the unit was handed out (including
    the current lease); ``stolen`` counts how many of those were
    reclaims of an expired lease.  ``failure`` carries the
    :meth:`~repro.core.runner.FormFailure.as_dict` record of a failed
    unit so independent drainers and the coordinating engine see the
    same quarantine.
    """

    key: str
    uid: str
    state: str = _PENDING
    owner: Optional[str] = None
    expires: float = 0.0
    leases: int = 0
    stolen: int = 0
    #: Fencing token: bumped on *every* lease grant (fresh, renewal not
    #: included — renewals keep ownership, steals change it).  A deposit
    #: carrying a stale token is a zombie write and is rejected.
    fence: int = 0
    failure: Optional[Dict[str, Any]] = None
    #: Transient (not persisted): whether the lease that returned this
    #: unit reclaimed an expired lease — i.e. the caller just stole it.
    stolen_now: bool = False

    def as_dict(self) -> Dict[str, Any]:
        data = dataclasses.asdict(self)
        data.pop("stolen_now", None)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "WorkUnit":
        return cls(**{
            key: value for key, value in data.items()
            if key in cls.__dataclass_fields__
        })


class QueueCounters(Dict[str, int]):
    """Cumulative queue-lifetime counters (a plain dict with defaults).

    Keys mirror the :class:`~repro.stats.RunStatistics` fields the
    sweep engine folds them into: ``units_leased``, ``units_stolen``,
    ``units_acked``, ``lease_expirations``, ``leases_renewed``,
    ``zombie_writes``.
    """

    FIELDS = (
        "units_leased", "units_stolen", "units_acked",
        "lease_expirations", "leases_renewed", "zombie_writes",
    )

    def __init__(self, values: Optional[Dict[str, int]] = None):
        super().__init__({field: 0 for field in self.FIELDS})
        if values:
            for field in self.FIELDS:
                self[field] = int(values.get(field, 0))

    def delta(self, since: "QueueCounters") -> Dict[str, int]:
        return {
            field: self[field] - since[field] for field in self.FIELDS
        }


class WorkQueue:
    """A persistent queue of :class:`WorkUnit` shared by drainers.

    One queue per (cache directory, microarchitecture); the salt ties
    the queue to the code version exactly like the result cache, so a
    drainer built from different code refuses stale work wholesale (the
    queue file is reset rather than merged).
    """

    #: File suffix distinguishing queue files from cache/memo files.
    SUFFIX = ".queue.json"

    def __init__(
        self,
        cache_dir: str,
        uarch_name: str,
        salt: Optional[str] = None,
        max_unit_leases: int = MAX_UNIT_LEASES,
    ):
        self.cache_dir = cache_dir
        self.uarch_name = uarch_name
        self.salt = salt if salt is not None else cache_salt()
        self.max_unit_leases = max_unit_leases
        #: Transactions that proceeded unlocked after the bounded wait.
        self.lock_timeouts = 0
        #: Non-blocking flock attempts that had to back off and retry.
        self.lock_retries = 0

    def stats(self) -> RunStatistics:
        """This process's lock counters on the queue, in the run's
        counter record (the shared lease counters are :meth:`counters`)."""
        return RunStatistics(
            lock_timeouts=self.lock_timeouts,
            lock_retries=self.lock_retries,
        )

    # -- file layout ----------------------------------------------------

    @property
    def path(self) -> str:
        return os.path.join(
            self.cache_dir, f"{self.uarch_name}{self.SUFFIX}"
        )

    @property
    def lock_path(self) -> str:
        return self.path + ".lock"

    def _read_state(self) -> Dict[str, Any]:
        state = read_queue_state(self.path, self.salt)
        if state is None:
            # Missing, torn, CRC-damaged, or written by another code
            # version: start fresh.  Work enqueued under an old salt
            # must be re-planned anyway (its result-cache keys are
            # stale too).
            return {
                "salt": self.salt,
                "units": {},
                "counters": dict(QueueCounters()),
            }
        return state

    def _write_state(self, state: Dict[str, Any]) -> None:
        os.makedirs(self.cache_dir, exist_ok=True)
        publish_blob(self.path, state, kind="queue")

    def _transaction(self, mutate):
        """Run ``mutate(state)`` under the queue lock; publish the state
        atomically when *mutate* returns ``(result, True)``."""
        os.makedirs(self.cache_dir, exist_ok=True)
        with open(self.lock_path, "a+", encoding="utf-8") as lock:
            locked, retries = flock_bounded(
                lock, salt=self.lock_path, name="queue"
            )
            self.lock_retries += retries
            if not locked and fcntl is not None:
                self.lock_timeouts += 1
            try:
                state = self._read_state()
                result, dirty = mutate(state)
                if dirty:
                    self._write_state(state)
                return result
            finally:
                release_flock(lock, locked, name="queue")

    # -- unit helpers ---------------------------------------------------

    @staticmethod
    def _units(state: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
        return state["units"]

    @staticmethod
    def _counters(state: Dict[str, Any]) -> Dict[str, int]:
        counters = state.setdefault("counters", {})
        for field in QueueCounters.FIELDS:
            counters.setdefault(field, 0)
        return counters

    # -- operations -----------------------------------------------------

    def enqueue(self, units: List[WorkUnit]) -> int:
        """Add work; returns how many units became pending.

        A unit already known to the queue is *reset to pending* when it
        is acked, failed, or expired-leased (the caller re-requesting it
        means the previous outcome is stale — e.g. an incremental
        re-sweep of a diffed form); a live lease or an existing pending
        entry is left untouched so concurrent drainers are never
        preempted.  A reset acked or failed unit starts a fresh poison
        budget, so a resume re-attempts a unit quarantined as poisoned;
        an expired lease keeps its count.
        """

        def mutate(state):
            stored = self._units(state)
            now = time.time()
            added = 0
            for unit in units:
                existing = stored.get(unit.key)
                if existing is not None:
                    if existing["state"] == _PENDING:
                        continue
                    if existing["state"] == _LEASED:
                        if existing["expires"] > now:
                            continue
                    else:
                        existing["leases"] = 0
                    existing["state"] = _PENDING
                    existing["owner"] = None
                    existing["failure"] = None
                    added += 1
                    continue
                stored[unit.key] = WorkUnit(
                    key=unit.key, uid=unit.uid
                ).as_dict()
                added += 1
            return added, added > 0

        return self._transaction(mutate)

    def lease(
        self,
        owner: str,
        limit: int = 1,
        lease_seconds: float = 60.0,
    ) -> List[WorkUnit]:
        """Claim up to *limit* units for *owner*.

        Units are handed out in sorted uid order (stable across
        drainers).  An expired lease is reclaimed — *stolen* — exactly
        like pending work; a unit reaching ``max_unit_leases`` claims is
        instead marked failed with a ``WorkerLost`` record, so a
        poisoned unit cannot crash the fleet indefinitely.
        """

        def mutate(state):
            stored = self._units(state)
            counters = self._counters(state)
            now = time.time()
            claimed: List[WorkUnit] = []
            dirty = False
            order = sorted(
                stored.values(), key=lambda u: (u["uid"], u["key"])
            )
            for raw in order:
                if len(claimed) >= limit:
                    break
                state_name = raw["state"]
                expired = (
                    state_name == _LEASED and raw["expires"] <= now
                )
                if state_name != _PENDING and not expired:
                    continue
                if expired:
                    counters["lease_expirations"] += 1
                if raw["leases"] >= self.max_unit_leases:
                    raw["state"] = _FAILED
                    raw["owner"] = None
                    raw["failure"] = {
                        "uid": raw["uid"],
                        "phase": "queue",
                        "error_type": "WorkerLost",
                        "message": (
                            f"unit leased {raw['leases']} times without "
                            "an ack; poisoned work quarantined"
                        ),
                        "attempts": raw["leases"],
                        "shard": None,
                    }
                    dirty = True
                    continue
                raw["state"] = _LEASED
                raw["owner"] = owner
                raw["expires"] = now + lease_seconds
                raw["leases"] += 1
                raw["fence"] = raw.get("fence", 0) + 1
                counters["units_leased"] += 1
                if expired:
                    raw["stolen"] += 1
                    counters["units_stolen"] += 1
                unit = WorkUnit.from_dict(raw)
                unit.stolen_now = expired
                claimed.append(unit)
                dirty = True
            return claimed, dirty

        return self._transaction(mutate)

    def ack(self, key: str, owner: str) -> bool:
        """Mark *key* done.  Returns ``False`` for a duplicate ack (the
        unit was stolen and already acked by the thief — harmless, the
        results are identical)."""

        def mutate(state):
            stored = self._units(state)
            counters = self._counters(state)
            raw = stored.get(key)
            if raw is None or raw["state"] == _ACKED:
                return False, False
            raw["state"] = _ACKED
            raw["owner"] = owner
            raw["failure"] = None
            counters["units_acked"] += 1
            return True, True

        return self._transaction(mutate)

    def renew(
        self,
        owner: str,
        key_fences: Dict[str, int],
        lease_seconds: float = 60.0,
    ) -> Dict[str, List[str]]:
        """Extend *owner*'s leases on ``{key: fence}`` units (heartbeat).

        A unit renews only while it is still leased to *owner* under
        the same fencing token — an expired-but-unstolen lease renews
        fine (nobody else claimed it), but once a sibling stole the
        unit the renewal is refused and the key is reported ``lost`` so
        the worker can abandon the doomed computation early instead of
        racing the thief to the cache.
        """

        def mutate(state):
            stored = self._units(state)
            counters = self._counters(state)
            now = time.time()
            renewed: List[str] = []
            lost: List[str] = []
            for key, fence in sorted(key_fences.items()):
                raw = stored.get(key)
                if (
                    raw is not None
                    and raw["state"] == _LEASED
                    and raw["owner"] == owner
                    and raw.get("fence", 0) == fence
                ):
                    raw["expires"] = now + lease_seconds
                    counters["leases_renewed"] += 1
                    renewed.append(key)
                else:
                    lost.append(key)
            return {"renewed": renewed, "lost": lost}, bool(renewed)

        return self._transaction(mutate)

    def deposit(
        self,
        key: str,
        owner: str,
        fence: int,
        write: Callable[[], None],
    ) -> str:
        """Fenced write-through: run *write* (the result-cache append)
        and ack *key*, atomically, inside the queue transaction.

        Returns a verdict string:

        * ``"acked"`` — the token matched; *write* ran and the unit is
          acked.
        * ``"duplicate"`` — already acked (a benign late ack of a
          stolen-then-finished unit whose thief's bytes are identical);
          *write* is skipped.
        * ``"fenced"`` — the unit's token moved past *fence*: the
          caller is a zombie whose lease was stolen.  *write* is
          **not** run, and ``zombie_writes`` is counted — this is the
          detection the idempotence argument of PR 7 couldn't give.
        * ``"missing"`` — the key is not in the queue at all (e.g. the
          queue was reset under a new salt mid-flight).

        Because the store append happens under the queue lock, a thief
        cannot interleave between the fence check and the write: lock
        ordering is queue lock → store lock, everywhere.
        """

        def mutate(state):
            stored = self._units(state)
            counters = self._counters(state)
            raw = stored.get(key)
            if raw is None:
                return "missing", False
            if raw["state"] == _ACKED:
                return "duplicate", False
            fresh = raw.get("fence", 0) == fence
            trace_event("fence-check", key=key, fresh=fresh)
            if not fresh:
                counters["zombie_writes"] += 1
                return "fenced", True
            write()
            raw["state"] = _ACKED
            raw["owner"] = owner
            raw["failure"] = None
            counters["units_acked"] += 1
            return "acked", True

        return self._transaction(mutate)

    def fail(
        self, key: str, owner: str, failure: Dict[str, Any]
    ) -> bool:
        """Record a quarantine for *key* (idempotent like :meth:`ack`;
        an ack always wins over a late failure report)."""

        def mutate(state):
            stored = self._units(state)
            raw = stored.get(key)
            if raw is None or raw["state"] in (_ACKED, _FAILED):
                return False, False
            raw["state"] = _FAILED
            raw["owner"] = owner
            raw["failure"] = failure
            return True, True

        return self._transaction(mutate)

    def expire_owner(self, owner: str) -> int:
        """Force-expire every live lease held by *owner*.

        The coordinating engine calls this when it *knows* a worker died
        (it reaped the process), so siblings can steal the dead worker's
        units immediately instead of waiting out the lease window.  The
        units stay leased with ``expires=0``; the next :meth:`lease`
        reclaims them through the ordinary steal path, keeping the
        steal/expiration counters truthful.
        """

        def mutate(state):
            now = time.time()
            released = 0
            for raw in self._units(state).values():
                if (
                    raw["state"] == _LEASED
                    and raw["owner"] == owner
                    and raw["expires"] > now
                ):
                    raw["expires"] = 0.0
                    released += 1
            return released, released > 0

        return self._transaction(mutate)

    def release_expired(self) -> int:
        """Return expired leases to pending (``repro doctor``'s
        orphaned-lease repair).

        The ordinary steal path already reclaims these lazily; doctor
        releases them eagerly so a repaired store shows no leftover
        lease debris.  The fencing token is untouched — it only bumps
        on the next grant — so a zombie of the released owner is still
        fenced out.
        """

        def mutate(state):
            counters = self._counters(state)
            now = time.time()
            released = 0
            for raw in self._units(state).values():
                if raw["state"] == _LEASED and raw["expires"] <= now:
                    raw["state"] = _PENDING
                    raw["owner"] = None
                    counters["lease_expirations"] += 1
                    released += 1
            return released, released > 0

        return self._transaction(mutate)

    # -- introspection --------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """A consistent read: per-state unit counts, cumulative
        counters, and the failure records of failed units."""

        def mutate(state):
            stored = self._units(state)
            counts = {
                _PENDING: 0, _LEASED: 0, _ACKED: 0, _FAILED: 0,
            }
            failures = {}
            for raw in stored.values():
                counts[raw["state"]] += 1
                if raw["state"] == _FAILED and raw["failure"]:
                    failures[raw["uid"]] = dict(raw["failure"])
            return {
                "counts": counts,
                "counters": QueueCounters(self._counters(state)),
                "failures": failures,
                "units": len(stored),
            }, False

        return self._transaction(mutate)

    def counters(self) -> QueueCounters:
        return self.snapshot()["counters"]

    def remaining_units(self) -> List[WorkUnit]:
        """Units still pending or leased, in stable uid order."""

        def mutate(state):
            units = [
                WorkUnit.from_dict(raw)
                for raw in sorted(
                    self._units(state).values(),
                    key=lambda u: (u["uid"], u["key"]),
                )
                if raw["state"] in (_PENDING, _LEASED)
            ]
            return units, False

        return self._transaction(mutate)

    def all_units(self) -> List[WorkUnit]:
        """Every unit, any state, in stable uid order (doctor's view)."""

        def mutate(state):
            units = [
                WorkUnit.from_dict(raw)
                for raw in sorted(
                    self._units(state).values(),
                    key=lambda u: (u["uid"], u["key"]),
                )
            ]
            return units, False

        return self._transaction(mutate)

    def live_leases(self) -> int:
        """Units currently leased with an unexpired lease."""
        return live_lease_count(read_queue_state(self.path, self.salt))

    @property
    def drained(self) -> bool:
        """No unit is pending or leased (everything acked or failed)."""
        counts = self.snapshot()["counts"]
        return counts[_PENDING] == 0 and counts[_LEASED] == 0

    def outstanding(self) -> int:
        """Units still pending or leased."""
        counts = self.snapshot()["counts"]
        return counts[_PENDING] + counts[_LEASED]

    def clear(self) -> None:
        """Remove the queue file (e.g. after a drained sweep is GC'd)."""

        def mutate(state):
            state["units"] = {}
            return None, True

        self._transaction(mutate)
        try:
            os.remove(self.path)
        except OSError:
            pass


# ---------------------------------------------------------------------------
# Lockless state readers (GC / doctor)
# ---------------------------------------------------------------------------
#
# ``flock`` is advisory per open file description, so a process already
# holding a queue's lock handle would deadlock against itself by calling
# the transactional methods above (they open a second description).
# Callers that must inspect queues *while holding their locks* — GC's
# compaction phase, doctor — read the state file directly instead: the
# atomic-rename publish guarantees any successfully read blob is a
# consistent snapshot.


def read_queue_state(
    path: str, salt: str
) -> Optional[Dict[str, Any]]:
    """The queue state at *path*, or ``None`` when the file is missing,
    torn, CRC-damaged, malformed, or written under another salt (all of
    which a :class:`WorkQueue` would reset to empty)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            state, _ = decode_blob(handle.read())
    except (OSError, UnicodeDecodeError):
        return None
    if (
        not isinstance(state, dict)
        or state.get("salt") != salt
        or not isinstance(state.get("units"), dict)
    ):
        return None
    return state


def live_lease_count(state: Optional[Dict[str, Any]]) -> int:
    """Unexpired leases in a :func:`read_queue_state` snapshot."""
    if state is None:
        return 0
    now = time.time()
    return sum(
        1 for raw in state["units"].values()
        if raw.get("state") == _LEASED and raw.get("expires", 0) > now
    )


def outstanding_count(state: Optional[Dict[str, Any]]) -> int:
    """Pending-or-leased units in a :func:`read_queue_state` snapshot
    (0 = drained; ``None`` states count as drained, matching
    :meth:`WorkQueue._read_state`'s reset-to-empty behavior)."""
    if state is None:
        return 0
    return sum(
        1 for raw in state["units"].values()
        if raw.get("state") in (_PENDING, _LEASED)
    )


# ---------------------------------------------------------------------------
# Lease heartbeat
# ---------------------------------------------------------------------------


class LeaseHeartbeat:
    """A daemon thread renewing a drainer's leases while units run.

    PR 7's fixed lease window forced an ugly choice: long enough for
    the slowest form (slow steals after real crashes) or short enough
    for fast steals (spurious steals of healthy long units).  A
    heartbeat renewing at ``lease_seconds / 3`` decouples them: the
    window can be short, because a *live* worker keeps extending it —
    only a dead or wedged one lets it lapse.

    ``watch(unit)`` / ``unwatch(key)`` bracket each unit's execution.
    When a renewal is refused (the unit was stolen), the key lands in
    :attr:`lost` and is dropped from the watch set — the worker checks
    :meth:`is_lost` before depositing to skip doomed work early (the
    fence check in :meth:`WorkQueue.deposit` remains the authority).
    """

    def __init__(
        self,
        queue: WorkQueue,
        owner: str,
        lease_seconds: float = 60.0,
    ):
        self.queue = queue
        self.owner = owner
        self.lease_seconds = lease_seconds
        self.interval = max(0.05, lease_seconds / 3.0)
        #: Cumulative successful renewals (folded into run statistics).
        self.renewed = 0
        #: Heartbeats that raised (queue unreachable, lock storms);
        #: the loop keeps beating — a missed renewal just means the
        #: lease is not extended this round.
        self.errors = 0
        self.last_error: Optional[BaseException] = None
        self._watched: Dict[str, int] = {}
        self._lost: set = set()
        self._mutex = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def watch(self, unit: WorkUnit) -> None:
        with self._mutex:
            self._watched[unit.key] = unit.fence
            self._lost.discard(unit.key)

    def unwatch(self, key: str) -> None:
        with self._mutex:
            self._watched.pop(key, None)

    def is_lost(self, key: str) -> bool:
        with self._mutex:
            return key in self._lost

    def _beat(self) -> None:
        with self._mutex:
            watched = dict(self._watched)
        if not watched:
            return
        result = self.queue.renew(
            self.owner, watched, self.lease_seconds
        )
        self.renewed += len(result["renewed"])
        if result["lost"]:
            with self._mutex:
                for key in result["lost"]:
                    if key in self._watched:
                        self._watched.pop(key, None)
                        self._lost.add(key)

    def start(self) -> "LeaseHeartbeat":
        self._thread = threading.Thread(
            target=self._run, name="lease-heartbeat", daemon=True
        )
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self._beat()
            except Exception as exc:
                # A failed heartbeat must never kill the worker; the
                # lease simply is not extended this round.
                self.errors += 1
                self.last_error = exc

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
