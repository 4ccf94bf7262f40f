"""Parallel characterization sweeps: cached, pooled, incremental.

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
* **pool** (``jobs>1``): ``jobs`` worker processes on this host, one
  pipe each.  The parent hands the next pending form, in sorted-uid
  order, to whichever worker is idle, and is the only process that
  writes the result cache and the manifest.  A worker that dies
  charges one attempt to the one form it held; that form goes back to
  the front of the line and a fresh worker replaces the dead one.  A
  form that has killed :data:`MAX_FORM_ATTEMPTS` workers is quarantined
  as ``WorkerLost``.  Workers exit on end-of-file of their pipe, so
  none outlives a killed parent.

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

import collections
import contextlib
import os
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.core.cache import (
    MeasurementMemo,
    ResultCache,
    SweepManifest,
    catalog_context_digest,
    catalog_context_key,
    form_fingerprint,
)
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

#: Workers a form may kill before it is quarantined as ``WorkerLost``.
MAX_FORM_ATTEMPTS = 3


#: Pool-worker payload: (uarch name, measurement config, memo directory
#: or None, memo salt, fault spec or None).
_WorkerPayload = Tuple[
    str, MeasurementConfig, Optional[str], Optional[str], Optional[str],
]


def _total(parts: Iterable[RunStatistics]) -> RunStatistics:
    """The field-wise sum of counter records."""
    total = RunStatistics()
    for part in parts:
        total.merge(part)
    return total


def _form_scope(memo: Optional[MeasurementMemo]):
    """The scope one form is characterized in: its new memo lines go
    out in one append when it ends (see
    :meth:`~repro.core.cache.MeasurementMemo.deferred`)."""
    return memo.deferred() if memo is not None else contextlib.nullcontext()


def _pool_worker(payload: _WorkerPayload, conn, inherited=()) -> None:
    """Characterize the forms the parent sends over *conn*.

    The worker announces ``("ready",)``, then answers each
    ``(uid, attempts)`` with ``("result", uid, data, counters)`` or
    ``("failure", uid, FormFailure, counters)``, where *counters* is
    the :class:`RunStatistics` of the work since its previous answer —
    so the work of a worker that dies later is still counted.  A
    ``None`` is the last order: it answers ``("done",)`` and returns.
    End of file on the pipe (the parent died) ends it too.  *inherited*
    are the parent's ends of sibling pipes a forked worker must close,
    or those siblings would never see end of file.

    A ``kill``/``kill_once`` fault fires before the form is measured;
    ``kill_once`` spares a form that already cost a worker.
    """
    for other in inherited:
        other.close()
    uarch_name, config, memo_dir, memo_salt, fault_spec = payload
    plan = FaultPlan.parse(fault_spec) if fault_spec else None
    database = load_default_database()
    memo = (
        MeasurementMemo(memo_dir, salt=memo_salt)
        if memo_dir is not None else None
    )
    backend = maybe_faulty(
        HardwareBackend(get_uarch(uarch_name), config, memo=memo),
        fault_spec,
    )
    runner = CharacterizationRunner(backend, database)
    # The parent counted the memo's damage and invalidations when it
    # read it; this worker reports only what it adds after its own read.
    stores = [memo] if memo is not None else []
    for store in stores:
        store.load(uarch_name)
    reported = _total(store.stats() for store in stores)
    try:
        conn.send(("ready",))
        while True:
            order = conn.recv()
            if order is None:
                break
            uid, attempts = order
            if plan is not None and plan.should_kill(uid, attempts > 0):
                os._exit(KILL_EXIT_CODE)
            with _form_scope(memo):
                outcome = runner.characterize_resilient(
                    database.by_uid(uid)
                )
            totals = _total([
                runner.statistics,
                backend.snapshot(),
                runner.executor.snapshot(),
                *(store.stats() for store in stores),
            ])
            if isinstance(outcome, FormFailure):
                answer = ("failure", uid, outcome)
            else:
                answer = (
                    "result", uid,
                    encode_characterization(outcome)
                    if outcome is not None else None,
                )
            conn.send(answer + (totals - reported,))
            reported = totals
        conn.send(("done",))
    except (EOFError, OSError):
        pass  # the parent is gone: nobody is left to report to


class _Worker:
    """The parent's view of one pool worker."""

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn
        #: The uid this worker was handed and has not answered, if any.
        self.form: Optional[str] = None


class SweepEngine:
    """Distributed, cached, fault-tolerant characterization of many forms.

    ``failures`` maps quarantined form uids to their
    :class:`~repro.core.runner.FormFailure` records after a sweep; a
    fully healthy run leaves it empty.

    ``jobs=1`` characterizes in-process; ``jobs > 1`` runs a pool of
    ``jobs`` worker processes fed by this one.
    """

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
        #: ``{key, digest}`` of a context digest computed by this engine
        #: and not yet recorded in the manifest.
        self._context_record: Optional[Dict[str, str]] = None

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
                self._sweep_pool(pending, results, progress)
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

    def _cache_store(self, uid: str, data) -> None:
        if self.cache is None:
            return
        key = self.cache.key_for(uid, self.uarch.name, self.config)
        self.cache.put(key, uid, self.uarch.name, data)

    # -- incremental re-characterization -------------------------------

    def _fingerprint(self, form: InstructionForm) -> str:
        """This form's input fingerprint (memoized; see
        :func:`~repro.core.cache.form_fingerprint`)."""
        fingerprint = self._fingerprint_memo.get(form.uid)
        if fingerprint is None:
            if self._context_digest is None:
                self._context_digest = self._catalog_context()
            fingerprint = form_fingerprint(
                form,
                self.uarch,
                self.config,
                salt=self.cache.salt,
                context=self._context_digest,
            )
            self._fingerprint_memo[form.uid] = fingerprint
        return fingerprint

    def _catalog_context(self) -> str:
        """The catalog context digest, served from the manifest while
        the cheap :func:`~repro.core.cache.catalog_context_key` of its
        inputs is unchanged; otherwise recomputed and left in
        :attr:`_context_record` for :meth:`_record_manifest`."""
        key = catalog_context_key(self.database, self.uarch, self.cache.salt)
        digest = self._get_manifest().context_digest(self.uarch.name, key)
        if digest is None:
            digest = catalog_context_digest(self.database, self.uarch)
            self._context_record = {"key": key, "digest": digest}
        return digest

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
                self.uarch.name, self.config, entries,
                context=self._context_record,
            )
            self._context_record = None

    def _sweep_serial(
        self,
        pending: List[InstructionForm],
        results: Dict[str, InstructionCharacterization],
        progress: Optional[Callable[[str], None]],
    ) -> None:
        runner = self.runner
        for form in pending:
            # Blocking discovery runs inside the first form's scope, so
            # its lines join that form's one append.
            with _form_scope(self.measure_memo):
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
    # Pool mode: jobs worker processes fed by this one
    # ------------------------------------------------------------------

    def _sweep_pool(
        self,
        pending: List[InstructionForm],
        results: Dict[str, InstructionCharacterization],
        progress: Optional[Callable[[str], None]],
    ) -> None:
        """Pool-mode execution: hand forms out, collect, replace losses.

        The parent waits on every worker's pipe and process sentinel,
        gives the next pending form to whichever worker is idle, and
        writes each result through the cache itself.  A worker that
        dies holding a form charges that form one attempt and is
        replaced; one that dies holding nothing (before it was ready,
        or after its last form) is replaced only while the fleet's
        budget of ``jobs`` such respawns lasts.  When the whole pool is
        gone with that budget spent, the remaining forms are
        quarantined so the sweep terminates.
        """
        import multiprocessing
        from multiprocessing.connection import wait

        memo = self.measure_memo
        if memo is not None:
            # Pre-warm the measurements every worker would otherwise
            # repeat — the blocking-instruction discovery walks the
            # whole catalog (Section 5.1.1) and is identical in all
            # workers.  Outside any form scope, so it appends once per
            # measurement: the parent's memo crash sites keep firing at
            # every hit count.
            _ = self.runner.blocking

        forked = "fork" in multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context("fork" if forked else None)
        payload: _WorkerPayload = (
            self.uarch.name,
            self.config,
            memo.cache_dir if memo is not None else None,
            memo.salt if memo is not None else None,
            self.fault_spec,
        )
        line = collections.deque(form.uid for form in pending)
        attempts: Dict[str, int] = {}
        workers: List[_Worker] = []
        respawns_left = self.jobs

        def spawn() -> None:
            parent_end, child_end = context.Pipe()
            inherited = (
                tuple(worker.conn for worker in workers) + (parent_end,)
                if forked else ()
            )
            process = context.Process(
                target=_pool_worker,
                args=(payload, child_end, inherited),
                daemon=True,
            )
            process.start()
            child_end.close()
            workers.append(_Worker(process, parent_end))

        def hand_out(worker: _Worker) -> None:
            worker.form = line.popleft() if line else None
            order = (
                (worker.form, attempts.get(worker.form, 0))
                if worker.form is not None else None
            )
            try:
                worker.conn.send(order)
            except OSError:
                pass  # it died; the wait loop reads its end of file

        def handle(worker: _Worker, message) -> None:
            kind = message[0]
            if kind == "done":
                retire(worker)
                return
            if kind != "ready":
                self.statistics.merge(message[3])
            if kind == "failure":
                self.failures[message[1]] = message[2]
            elif kind == "result":
                uid, data = message[1], message[2]
                if data is not None:
                    outcome = decode_characterization(data)
                    results[uid] = outcome
                    if progress is not None:
                        progress(outcome.summary())
                self._cache_store(uid, data)
            hand_out(worker)

        def retire(worker: _Worker) -> None:
            workers.remove(worker)
            worker.conn.close()
            worker.process.join()

        def quarantine(uid: str, message: str) -> None:
            self.failures[uid] = FormFailure(
                uid=uid,
                phase="pool",
                error_type="WorkerLost",
                message=message,
                attempts=attempts.get(uid, 0),
            )

        def lost(worker: _Worker) -> None:
            nonlocal respawns_left
            retire(worker)
            uid = worker.form
            if uid is not None:
                attempts[uid] = attempts.get(uid, 0) + 1
                if attempts[uid] >= MAX_FORM_ATTEMPTS:
                    quarantine(uid, (
                        f"{attempts[uid]} pool workers died "
                        "characterizing this form"
                    ))
                else:
                    line.appendleft(uid)
            elif line and respawns_left:
                respawns_left -= 1
            else:
                return
            self.statistics.drainers_respawned += 1
            spawn()

        try:
            for _ in range(min(self.jobs, len(line))):
                spawn()
            while workers:
                ready = set(wait(
                    [worker.conn for worker in workers]
                    + [worker.process.sentinel for worker in workers]
                ))
                for worker in list(workers):
                    exited = worker.process.sentinel in ready
                    if not exited and worker.conn not in ready:
                        continue
                    try:
                        # An exited worker's pipe holds what it sent
                        # before dying, then end of file.
                        while worker in workers and (
                            exited or worker.conn.poll()
                        ):
                            handle(worker, worker.conn.recv())
                    except (EOFError, OSError):
                        lost(worker)
                if not workers and line:
                    # Every worker died with the respawn budget spent.
                    for uid in line:
                        quarantine(uid, (
                            "the pool exhausted its respawn budget "
                            f"({self.jobs})"
                        ))
                    line.clear()
        finally:
            for worker in workers:
                worker.process.terminate()
                worker.conn.close()
                worker.process.join()
