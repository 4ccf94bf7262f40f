"""Parallel characterization sweeps: cached, distributed, incremental.

:class:`CharacterizationRunner` walks the catalog serially; at the scale
of the paper's tool (thousands of variants per generation, Section 6)
that leaves both cores and determinism on the table.  The
:class:`SweepEngine` exploits that every characterization is an
independent pure function of (form, microarchitecture, measurement
configuration).  Two execution paths share one result contract —
results are bit-identical to a serial run regardless of path, job
count, cache state, or completion order:

* **serial** (``jobs=1``): in-process, optionally on an injected
  backend — the debugging path and the differential-test reference;
* **queue** (``jobs>1``): the pending forms
  become content-keyed :class:`~repro.core.workqueue.WorkUnit` entries
  in a persistent, flock-guarded work queue next to the result cache.
  Worker processes — spawned by this engine, or by independent
  ``repro sweep --drain`` invocations on machines sharing the cache
  directory — *lease* units, characterize them, write the result
  through the shared cache, and *ack*.  A worker that dies or stalls
  lets its lease expire; any surviving worker **steals** the unit.
  A unit that reliably kills workers is poisoned after
  :data:`~repro.core.workqueue.MAX_UNIT_LEASES` leases and quarantined.

*Incremental re-characterization* (``incremental=True`` /
``--incremental``): every cached sweep records a per-form *input
fingerprint* (:func:`~repro.core.cache.form_fingerprint` — catalog
entry, ground-truth µop tables, uarch knobs, measurement protocol,
salt) in a :class:`~repro.core.cache.SweepManifest`.  An incremental
sweep diffs current fingerprints against the manifest and re-measures
exactly the forms whose inputs changed, serving everything else from
the cache (counted as ``incremental_skips``).  The manifest doubles as
the root set for ``repro cache gc``
(:func:`~repro.core.cache.collect_garbage`).

Fault tolerance (see ``docs/robustness.md``): a form whose plan
ultimately fails — after the executor's transient-retry budget — is
**quarantined** as a :class:`~repro.core.runner.FormFailure` instead of
aborting the sweep; quarantined forms are never written to the cache,
so ``sweep --resume`` re-measures only the missing and failed forms.
The chaos harness (:mod:`repro.measure.faults`, ``REPRO_FAULTS`` /
``--fault-spec``) injects deterministic failures at every one of these
seams; nothing is injected unless explicitly requested.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import tempfile
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.core.cache import (
    MeasurementMemo,
    ResultCache,
    SweepManifest,
    cache_key,
    catalog_context_digest,
    form_fingerprint,
)
from repro.core.workqueue import LeaseHeartbeat, WorkQueue, WorkUnit
from repro.core.result import (
    InstructionCharacterization,
    decode_characterization,
    encode_characterization,
)
from repro.core.runner import CharacterizationRunner, FormFailure
from repro.isa.database import InstructionDatabase, load_default_database
from repro.isa.instruction import InstructionForm
from repro.measure.backend import HardwareBackend, MeasurementConfig
from repro.measure.faults import FaultPlan, maybe_faulty
from repro.stats import RunStatistics
from repro.uarch.configs import get_uarch
from repro.uarch.model import UarchConfig

#: Exit code of a worker killed by an injected ``kill`` fault — chosen
#: distinctive so a chaos log reads unambiguously.
KILL_EXIT_CODE = 23

#: Default lease window for queue-mode work units (seconds).  Generous
#: relative to one form's characterization so healthy workers are never
#: preempted; the coordinating engine force-expires the leases of
#: workers it *knows* died, so only cross-machine losses wait this out.
DEFAULT_LEASE_SECONDS = 60.0


#: Queue-drainer payload: (uarch name, measurement config, queue/store
#: directory, salt, memo directory or None, memo salt, fault spec or
#: None, lease window in seconds, worker id).
_DrainPayload = Tuple[
    str, MeasurementConfig, str, str, Optional[str], Optional[str],
    Optional[str], float, int,
]


def _total(parts: Iterable[RunStatistics]) -> RunStatistics:
    """The field-wise sum of counter records."""
    total = RunStatistics()
    for part in parts:
        total.merge(part)
    return total


def _drain_worker(payload: _DrainPayload, out_queue) -> None:
    """Drain the shared work queue from a worker process.

    The worker leases units from the persistent
    :class:`~repro.core.workqueue.WorkQueue` one at a time until the
    queue is drained, so a slow form never idles the rest of the fleet.
    Results are written through the shared result cache *before* the
    ack — a worker dying between the two leaves the unit leased, and
    whoever steals it re-measures (deterministically identical) bytes —
    and additionally streamed to the coordinating engine (when there is
    one) for progress reporting.

    Chaos faults map onto queue semantics: a ``kill``/``kill_once``/
    ``stall`` fault considers a unit "respawned" when it was leased
    more than once, i.e. the first lease crashed and this worker stole
    the unit.
    """
    (
        uarch_name, config, store_dir, salt, memo_dir, memo_salt,
        fault_spec, lease_seconds, worker_id,
    ) = payload
    plan = FaultPlan.parse(fault_spec) if fault_spec else None
    database = load_default_database()
    memo = (
        MeasurementMemo(memo_dir, salt=memo_salt)
        if memo_dir is not None else None
    )
    backend = HardwareBackend(get_uarch(uarch_name), config, memo=memo)
    backend = maybe_faulty(backend, fault_spec)
    runner = CharacterizationRunner(backend, database)
    cache = ResultCache(store_dir, salt=salt)
    work = WorkQueue(store_dir, uarch_name, salt=salt)
    stores = [store for store in (cache, memo) if store is not None]
    # The coordinator counted the shared stores' damage and
    # invalidations when it read them; this drainer reports only what
    # it adds after its own read.
    for store in stores:
        store.load(uarch_name)
    loaded = _total(store.stats() for store in stores)
    owner = f"{os.getpid()}.{worker_id}"
    heartbeat = LeaseHeartbeat(
        work, owner, lease_seconds=lease_seconds
    ).start()
    try:
        while True:
            units = work.lease(
                owner, limit=1, lease_seconds=lease_seconds
            )
            if not units:
                if work.drained:
                    break
                # Other drainers hold live leases; poll until they
                # finish (or their leases expire and become stealable).
                time.sleep(SweepEngine.POLL_INTERVAL)
                continue
            for unit in units:
                heartbeat.watch(unit)
                try:
                    respawned = unit.leases > 1
                    if plan is not None:
                        stall = plan.stall_seconds(unit.uid, respawned)
                        if stall:
                            time.sleep(stall)
                        if plan.should_kill(unit.uid, respawned):
                            out_queue.close()
                            out_queue.join_thread()
                            os._exit(KILL_EXIT_CODE)
                    outcome = runner.characterize_resilient(
                        database.by_uid(unit.uid)
                    )
                    if isinstance(outcome, FormFailure):
                        failure = dataclasses.replace(
                            outcome, shard=worker_id
                        )
                        work.fail(unit.key, owner, failure.as_dict())
                        out_queue.put(
                            ("failure", worker_id, unit.uid, failure)
                        )
                        continue
                    data = (
                        encode_characterization(outcome)
                        if outcome is not None else None
                    )
                    verdict = work.deposit(
                        unit.key, owner, unit.fence,
                        lambda: cache.put(
                            unit.key, unit.uid, uarch_name, data,
                            fence=unit.fence,
                        ),
                    )
                    if verdict in ("acked", "duplicate"):
                        out_queue.put(
                            ("result", worker_id, unit.uid, data)
                        )
                finally:
                    heartbeat.unwatch(unit.key)
    finally:
        heartbeat.stop()
    # Lease counters live in the shared queue state (the coordinator
    # folds their delta); this process's lock waits on it do not.
    totals = _total([
        runner.statistics,
        backend.snapshot(),
        runner.executor.snapshot(),
        work.stats(),
        *(store.stats() for store in stores),
    ])
    out_queue.put(("done", worker_id, totals - loaded))


class _DrainerState:
    """The coordinating engine's view of one queue-mode worker."""

    def __init__(self, worker_id: int, owner: str):
        self.worker_id = worker_id
        self.owner = owner
        self.process = None
        self.queue = None
        self.done = False
        self.dead = False


class SweepEngine:
    """Distributed, cached, fault-tolerant characterization of many forms.

    ``failures`` maps quarantined form uids to their
    :class:`~repro.core.runner.FormFailure` records after a sweep; a
    fully healthy run leaves it empty.

    ``jobs=1`` characterizes in-process; ``jobs > 1`` runs the shared
    work queue any drainer can join.
    """

    #: How often the supervisor wakes to check worker health (seconds).
    POLL_INTERVAL = 0.2

    def __init__(
        self,
        uarch: Union[str, UarchConfig],
        database: Optional[InstructionDatabase] = None,
        config: Optional[MeasurementConfig] = None,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        backend: Optional[HardwareBackend] = None,
        measure_memo: Optional[MeasurementMemo] = None,
        fault_spec: Optional[str] = None,
        lease_timeout: Optional[float] = None,
        incremental: bool = False,
    ):
        self.uarch = get_uarch(uarch) if isinstance(uarch, str) else uarch
        self.database = database or load_default_database()
        self.config = config or (
            backend.config if backend is not None else MeasurementConfig()
        )
        self.jobs = max(1, jobs)
        self.cache = cache
        # The raw-measurement memo rides along with the result cache by
        # default (same directory, same salt): a cached sweep implies the
        # user wants persistence, and the memo is what makes the *cold*
        # part of a sweep cheap across workers and runs.
        if measure_memo is None and cache is not None:
            measure_memo = MeasurementMemo(cache.cache_dir, salt=cache.salt)
        self.measure_memo = measure_memo
        # Chaos harness: never active unless a spec is given explicitly
        # or via REPRO_FAULTS (maybe_faulty re-checks the environment so
        # worker processes see the same spec through the payload).
        from repro.measure.faults import FAULTS_ENV

        self.fault_spec = (
            fault_spec if fault_spec is not None
            else os.environ.get(FAULTS_ENV)
        )
        #: Queue-mode lease window; an expired lease makes the unit
        #: stealable by any other drainer.
        self.lease_timeout = (
            lease_timeout if lease_timeout is not None
            else DEFAULT_LEASE_SECONDS
        )
        #: Incremental re-characterization: diff per-form input
        #: fingerprints against the sweep manifest and re-measure only
        #: changed forms (needs a cache; a no-cache engine ignores it).
        self.incremental = incremental
        self.statistics = RunStatistics()
        #: Quarantined forms: uid -> FormFailure.
        self.failures: Dict[str, FormFailure] = {}
        self._backend = backend
        self._runner: Optional[CharacterizationRunner] = None
        self._manifest: Optional[SweepManifest] = None
        #: Memoized per-form input fingerprints (+ the catalog context
        #: digest they embed) — computing them walks the µop tables.
        self._fingerprint_memo: Dict[str, str] = {}
        self._context_digest: Optional[str] = None

    # ------------------------------------------------------------------

    @property
    def backend(self) -> HardwareBackend:
        """The in-process backend (built lazily: a fully warm sweep never
        needs one).  Wrapped in the chaos harness when a fault spec is
        active; an explicitly injected backend is never wrapped."""
        if self._backend is None:
            self._backend = maybe_faulty(
                HardwareBackend(
                    self.uarch, self.config, memo=self.measure_memo
                ),
                self.fault_spec,
            )
        return self._backend

    @property
    def runner(self) -> CharacterizationRunner:
        if self._runner is None:
            self._runner = CharacterizationRunner(
                self.backend, self.database
            )
        return self._runner

    def supported_forms(self) -> List[InstructionForm]:
        return self.runner.supported_forms()

    def _snapshot(self) -> RunStatistics:
        """Everything this process's producers have counted so far; a
        stretch of work folds as ``merge(after - before)``."""
        parts = [
            store.stats()
            for store in (self.cache, self.measure_memo, self._manifest)
            if store is not None
        ]
        if self._backend is not None:
            parts.append(self._backend.snapshot())
        if self._runner is not None:
            parts.append(self._runner.statistics)
            parts.append(self._runner.executor.snapshot())
        return _total(parts)

    # ------------------------------------------------------------------

    def sweep(
        self,
        forms: Optional[Iterable[InstructionForm]] = None,
        progress: Optional[Callable[[str], None]] = None,
    ) -> Dict[str, InstructionCharacterization]:
        """Characterize *forms* (default: the whole catalog).

        Returns results keyed by form uid, in stable (sorted) uid order
        regardless of cache state, job count, or worker completion order —
        and therefore identical to a serial
        :meth:`CharacterizationRunner.characterize_all` run over the same
        forms.  Forms that could not be characterized despite retries are
        absent from the result and recorded in :attr:`failures`.
        """
        requested = list(forms if forms is not None else self.database)
        requested.sort(key=lambda form: form.uid)

        before = self._snapshot()
        results: Dict[str, InstructionCharacterization] = {}
        pending = self._resolve_pending(requested, results)

        if pending:
            if self.cache is not None:
                self.statistics.cache_misses += len(pending)
            if self.jobs == 1:
                self._sweep_serial(pending, results, progress)
            else:
                self._sweep_queue(pending, results, progress)
        self._record_manifest(requested)
        self.statistics.merge(self._snapshot() - before)
        self.statistics.forms_failed = len(self.failures)
        return {uid: results[uid] for uid in sorted(results)}

    # ------------------------------------------------------------------

    def _cache_lookup(self, form: InstructionForm):
        """Stored data, ``None`` for a cached skip, or the miss sentinel."""
        if self.cache is None:
            return ResultCache.miss()
        key = self.cache.key_for(
            form.uid, self.uarch.name, self.config
        )
        return self.cache.get(key, self.uarch.name)

    def _cache_store(
        self, uid: str, data, fence: Optional[int] = None
    ) -> None:
        if self.cache is None:
            return
        key = self.cache.key_for(uid, self.uarch.name, self.config)
        self.cache.put(key, uid, self.uarch.name, data, fence=fence)

    # -- incremental re-characterization -------------------------------

    def _fingerprint(self, form: InstructionForm) -> str:
        """This form's input fingerprint (memoized; see
        :func:`~repro.core.cache.form_fingerprint`)."""
        fingerprint = self._fingerprint_memo.get(form.uid)
        if fingerprint is None:
            if self._context_digest is None:
                self._context_digest = catalog_context_digest(
                    self.database, self.uarch
                )
            fingerprint = form_fingerprint(
                form,
                self.uarch,
                self.config,
                salt=self.cache.salt if self.cache is not None else None,
                context=self._context_digest,
            )
            self._fingerprint_memo[form.uid] = fingerprint
        return fingerprint

    def _get_manifest(self) -> SweepManifest:
        if self._manifest is None:
            self._manifest = SweepManifest(
                self.cache.cache_dir, salt=self.cache.salt
            )
        return self._manifest

    def _resolve_pending(
        self,
        requested: List[InstructionForm],
        results: Dict[str, InstructionCharacterization],
    ) -> List[InstructionForm]:
        """Split *requested* into cache-served *results* and the pending
        work list.

        A form is pending when the cache misses — or, in incremental
        mode, when its input fingerprint differs from the one the sweep
        manifest recorded (the cached bytes were produced from different
        inputs and must not be served).  Incremental cache hits whose
        fingerprints match are counted as ``incremental_skips``.
        """
        incremental = self.incremental and self.cache is not None
        prior: Dict[str, Dict[str, str]] = {}
        if incremental:
            prior = self._get_manifest().entries_for(
                self.uarch.name, self.config
            )
        pending: List[InstructionForm] = []
        for form in requested:
            stale = False
            if incremental:
                recorded = prior.get(form.uid)
                stale = (
                    recorded is None
                    or recorded.get("fingerprint")
                    != self._fingerprint(form)
                )
            data = self._cache_lookup(form)
            if ResultCache.is_miss(data) or stale:
                pending.append(form)
                continue
            if data is not None:
                try:
                    outcome = decode_characterization(data)
                except (KeyError, TypeError, ValueError):
                    # A malformed payload that survived the cache's
                    # line-level checks: re-measure rather than crash.
                    self.statistics.corrupt_lines += 1
                    pending.append(form)
                    continue
                results[form.uid] = outcome
                self.statistics.cache_hits += 1
            else:
                self.statistics.cache_hits += 1
                self.statistics.skipped += 1
            if incremental:
                self.statistics.incremental_skips += 1
        return pending

    def _record_manifest(self, requested: List[InstructionForm]) -> None:
        """Record the input fingerprints of every resolved form.

        Runs after *every* cached sweep (not only incremental ones), so
        a plain sweep establishes the baseline the next ``--incremental``
        run diffs against — and the root set ``repro cache gc`` keeps.
        Quarantined forms are excluded: they were not resolved, and the
        next sweep must re-attempt them.
        """
        if self.cache is None:
            return
        entries: Dict[str, Dict[str, str]] = {}
        for form in requested:
            if form.uid in self.failures:
                continue
            entries[form.uid] = {
                "fingerprint": self._fingerprint(form),
                "key": self.cache.key_for(
                    form.uid, self.uarch.name, self.config
                ),
            }
        if entries:
            self._get_manifest().update(
                self.uarch.name, self.config, entries
            )

    def _sweep_serial(
        self,
        pending: List[InstructionForm],
        results: Dict[str, InstructionCharacterization],
        progress: Optional[Callable[[str], None]],
    ) -> None:
        runner = self.runner
        for form in pending:
            outcome = runner.characterize_resilient(form)
            if isinstance(outcome, FormFailure):
                # Quarantined — and deliberately NOT cached, so the next
                # run against this cache re-attempts exactly this form.
                self.failures[form.uid] = outcome
                continue
            if outcome is not None:
                results[form.uid] = outcome
                if progress is not None:
                    progress(outcome.summary())
            self._cache_store(
                form.uid,
                encode_characterization(outcome)
                if outcome is not None else None,
            )

    # ------------------------------------------------------------------
    # Queue mode: shared work queue, lease/steal, external drainers
    # ------------------------------------------------------------------

    def _queue_store(self) -> Tuple[str, Optional[str], bool]:
        """``(store_dir, salt, owns_store)`` — where the work queue and
        the workers' write-through result store live.

        With a cache this is the cache directory itself (so external
        ``--drain`` processes find the same queue and store); without
        one, a temporary directory removed after the sweep.  ``salt``
        is ``None`` for the temporary store (every component defaults
        to the current code-version salt consistently).
        """
        if self.cache is not None:
            return self.cache.cache_dir, self.cache.salt, False
        return (
            tempfile.mkdtemp(prefix="repro-sweep-queue-"), None, True
        )

    def _sweep_queue(
        self,
        pending: List[InstructionForm],
        results: Dict[str, InstructionCharacterization],
        progress: Optional[Callable[[str], None]],
    ) -> None:
        """Queue-mode execution: enqueue, spawn drainers, supervise.

        The parent enqueues one content-keyed unit per pending form and
        spawns up to ``jobs`` drainer processes — then mostly stays out
        of the way: lease expiry and stealing recover lost or stalled
        workers, and external ``repro sweep --drain`` processes may
        join (or even finish) the work.  What remains of supervision:
        progress/statistics plumbing, force-expiring the leases of
        workers the parent *reaped* (so siblings steal immediately
        instead of waiting out the lease window), respawning drainers
        while pending work remains (bounded by ``jobs`` extra spawns),
        and salvaging externally-acked results from the shared store.
        """
        import multiprocessing
        import queue as queue_module

        memo = self.measure_memo
        if memo is not None:
            # Pre-warm the measurements every drainer would otherwise
            # repeat — the blocking-instruction discovery walks the
            # whole catalog (Section 5.1.1) and is identical in all
            # workers.
            _ = self.runner.blocking

        store_dir, salt, owns_store = self._queue_store()
        work = WorkQueue(store_dir, self.uarch.name, salt=salt)
        base_counters = work.counters()
        key_by_uid = {
            form.uid: cache_key(
                form.uid, self.uarch.name, self.config, salt
            )
            for form in pending
        }
        work.enqueue([
            WorkUnit(key=key_by_uid[form.uid], uid=form.uid)
            for form in pending
        ])

        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )
        workers: List[_DrainerState] = []
        #: Skip markers (data=None) reported by our own workers — they
        #: never enter ``results``, but they are resolved and must not
        #: be salvaged (and re-counted) from the store afterwards.
        reported_skips: set = set()

        def spawn(worker_id: int) -> None:
            payload: _DrainPayload = (
                self.uarch.name,
                self.config,
                store_dir,
                salt,
                memo.cache_dir if memo is not None else None,
                memo.salt if memo is not None else None,
                self.fault_spec,
                self.lease_timeout,
                worker_id,
            )
            state = _DrainerState(worker_id, owner="")
            state.queue = context.Queue()
            state.process = context.Process(
                target=_drain_worker, args=(payload, state.queue),
                daemon=True,
            )
            state.process.start()
            # The worker identifies itself by its own pid (matches
            # _drain_worker's owner string).
            state.owner = f"{state.process.pid}.{worker_id}"
            workers.append(state)

        for worker_id in range(max(1, min(self.jobs, len(pending)))):
            spawn(worker_id)
        next_worker_id = len(workers)
        respawns_left = self.jobs

        def handle(state: _DrainerState, message) -> None:
            kind = message[0]
            if kind == "done":
                state.done = True
                self.statistics.merge(message[2])
                state.process.join()
                return
            uid, payload_data = message[2], message[3]
            if kind == "failure":
                self.failures[uid] = message[3]
                return
            if payload_data is None:
                reported_skips.add(uid)
            elif uid not in results:
                outcome = decode_characterization(payload_data)
                results[uid] = outcome
                if progress is not None:
                    progress(outcome.summary())

        def drain(state: _DrainerState) -> int:
            handled = 0
            while not state.done:
                try:
                    message = state.queue.get_nowait()
                except queue_module.Empty:
                    break
                except (EOFError, OSError):
                    break  # torn channel; the health check takes over
                handle(state, message)
                handled += 1
            return handled

        drained_since = None
        while True:
            progressed = 0
            for state in workers:
                progressed += drain(state)
            for state in workers:
                if state.done or state.dead:
                    continue
                if state.process.is_alive():
                    continue
                # Death after the final put: messages may still be in
                # flight — drain before declaring the worker lost.
                drain(state)
                if state.done:
                    continue
                state.process.join()
                state.dead = True
                work.expire_owner(state.owner)
            active = [s for s in workers if not s.done and not s.dead]
            if work.outstanding() == 0:
                if not active:
                    break
                # Live workers exit on their own once they observe the
                # drained queue; bound the wait in case one is wedged
                # in an injected stall on an already-stolen unit.
                if drained_since is None:
                    drained_since = time.monotonic()
                elif (
                    time.monotonic() - drained_since
                    > max(self.lease_timeout, 5.0)
                ):
                    for state in active:
                        state.process.terminate()
                        state.process.join(5)
                        drain(state)
                        state.dead = True
                    break
            else:
                drained_since = None
                if not active:
                    if respawns_left > 0:
                        respawns_left -= 1
                        self.statistics.drainers_respawned += 1
                        spawn(next_worker_id)
                        next_worker_id += 1
                    else:
                        # The fleet died repeatedly with work left;
                        # quarantine the remainder so the sweep (and
                        # any external drainer) terminates.
                        for unit in work.remaining_units():
                            failure = FormFailure(
                                uid=unit.uid,
                                phase="queue",
                                error_type="WorkerLost",
                                message=(
                                    "drainer fleet exhausted its "
                                    f"respawn budget ({self.jobs}); "
                                    "unit abandoned"
                                ),
                                attempts=unit.leases,
                                shard=None,
                            )
                            work.fail(
                                unit.key, "coordinator",
                                failure.as_dict(),
                            )
                        break
            if not progressed:
                time.sleep(self.POLL_INTERVAL)

        for state in workers:
            if state.queue is not None:
                state.queue.close()

        # Quarantines recorded only in the queue: poisoned units, and
        # failures reported by external drainers.
        queue_failures = work.snapshot()["failures"]
        for form in pending:
            if form.uid in results or form.uid in self.failures:
                continue
            record = queue_failures.get(form.uid)
            if record is not None:
                self.failures[form.uid] = FormFailure(**record)

        # Results acked without a message reaching us: units drained by
        # external processes, or a worker lost between its ack and its
        # report.  The shared store has the bytes either way.
        missing = [
            form for form in pending
            if form.uid not in results
            and form.uid not in self.failures
            and form.uid not in reported_skips
        ]
        if missing:
            store = ResultCache(store_dir, salt=salt)
            for form in missing:
                data = store.get(key_by_uid[form.uid], self.uarch.name)
                if ResultCache.is_miss(data):
                    self.failures[form.uid] = FormFailure(
                        uid=form.uid,
                        phase="queue",
                        error_type="ResultMissing",
                        message=(
                            "work unit resolved but no stored "
                            "result was found"
                        ),
                    )
                    continue
                if data is None:
                    self.statistics.skipped += 1
                    continue
                try:
                    outcome = decode_characterization(data)
                except (KeyError, TypeError, ValueError):
                    self.statistics.corrupt_lines += 1
                    self.failures[form.uid] = FormFailure(
                        uid=form.uid,
                        phase="queue",
                        error_type="DecodeError",
                        message="stored result failed to decode",
                    )
                    continue
                results[form.uid] = outcome
                if progress is not None:
                    progress(outcome.summary())

        self.statistics.merge(
            RunStatistics(**work.counters().delta(base_counters))
        )
        self.statistics.merge(work.stats())
        if owns_store:
            shutil.rmtree(store_dir, ignore_errors=True)

    # ------------------------------------------------------------------
    # Distributed entry points: --enqueue-only and --drain
    # ------------------------------------------------------------------

    def enqueue_pending(
        self, forms: Optional[Iterable[InstructionForm]] = None
    ) -> Dict[str, int]:
        """Plan a sweep and enqueue its pending work — without executing.

        The ``repro sweep --enqueue-only`` entry point: computes the
        pending set exactly like :meth:`sweep` (cache misses, plus
        fingerprint-stale forms in incremental mode) and enqueues one
        content-keyed unit per form for ``--drain`` processes to
        execute.  Requires a cache — the queue must live somewhere the
        drainers can find it.  Returns counts for reporting.
        """
        if self.cache is None:
            raise ValueError(
                "enqueue-only needs a persistent cache directory"
            )
        requested = list(forms if forms is not None else self.database)
        requested.sort(key=lambda form: form.uid)
        results: Dict[str, InstructionCharacterization] = {}
        pending = self._resolve_pending(requested, results)
        work = WorkQueue(
            self.cache.cache_dir, self.uarch.name, salt=self.cache.salt
        )
        enqueued = work.enqueue([
            WorkUnit(
                key=self.cache.key_for(
                    form.uid, self.uarch.name, self.config
                ),
                uid=form.uid,
            )
            for form in pending
        ])
        return {
            "requested": len(requested),
            "cached": len(requested) - len(pending),
            "pending": len(pending),
            "enqueued": enqueued,
        }

    def drain(
        self,
        progress: Optional[Callable[[str], None]] = None,
    ) -> Dict[str, InstructionCharacterization]:
        """Drain the shared work queue in-process until it is empty.

        The ``repro sweep --drain`` entry point: attach to the queue
        next to the cache and lease/characterize/ack units until no
        pending or leased work remains — cooperating (and competing)
        with every other drainer of the same cache directory, stealing
        expired leases along the way.  Returns the results *this*
        process produced, keyed by uid; quarantines land in
        :attr:`failures` and the lease/steal/ack counters in
        :attr:`statistics`.
        """
        if self.cache is None:
            raise ValueError("drain needs a persistent cache directory")
        before = self._snapshot()
        runner = self.runner
        work = WorkQueue(
            self.cache.cache_dir, self.uarch.name, salt=self.cache.salt
        )
        plan = (
            FaultPlan.parse(self.fault_spec) if self.fault_spec else None
        )
        owner = f"{os.getpid()}.drain"
        results: Dict[str, InstructionCharacterization] = {}
        heartbeat = LeaseHeartbeat(
            work, owner, lease_seconds=self.lease_timeout
        ).start()
        try:
            while True:
                units = work.lease(
                    owner, limit=1, lease_seconds=self.lease_timeout
                )
                if not units:
                    if work.drained:
                        break
                    time.sleep(self.POLL_INTERVAL)
                    continue
                for unit in units:
                    self.statistics.units_leased += 1
                    if unit.stolen_now:
                        self.statistics.units_stolen += 1
                        self.statistics.lease_expirations += 1
                    heartbeat.watch(unit)
                    try:
                        respawned = unit.leases > 1
                        if plan is not None:
                            stall = plan.stall_seconds(
                                unit.uid, respawned
                            )
                            if stall:
                                time.sleep(stall)
                            if plan.should_kill(unit.uid, respawned):
                                os._exit(KILL_EXIT_CODE)
                        outcome = runner.characterize_resilient(
                            self.database.by_uid(unit.uid)
                        )
                        if isinstance(outcome, FormFailure):
                            self.failures[unit.uid] = outcome
                            work.fail(unit.key, owner, outcome.as_dict())
                            continue
                        data = (
                            encode_characterization(outcome)
                            if outcome is not None else None
                        )
                        uid = unit.uid
                        fence = unit.fence
                        verdict = work.deposit(
                            unit.key, owner, fence,
                            lambda: self._cache_store(
                                uid, data, fence=fence
                            ),
                        )
                        if verdict == "fenced":
                            self.statistics.zombie_writes += 1
                            continue
                        if verdict == "acked":
                            self.statistics.units_acked += 1
                        if outcome is not None:
                            results[unit.uid] = outcome
                            if progress is not None:
                                progress(outcome.summary())
                    finally:
                        heartbeat.unwatch(unit.key)
        finally:
            heartbeat.stop()
        self.statistics.leases_renewed += heartbeat.renewed
        self.statistics.merge(self._snapshot() - before)
        self.statistics.merge(work.stats())
        self.statistics.forms_failed = len(self.failures)
        return {uid: results[uid] for uid in sorted(results)}
