"""The batch executor between planning and interpretation.

:class:`ExperimentExecutor` sits between the inference algorithms' plans
(:mod:`repro.core.experiment`) and a measurement backend.  It owns the
third caching layer of the stack (after the persistent result cache and
the cross-process measurement memo): a content-addressed dedup memo over
:class:`~repro.core.experiment.Experiment` identity, so an identical
``(code, init)`` pair planned by two algorithms — or by two forms of the
same sweep shard — is dispatched to the backend once.

Dispatch goes through the optional ``measure_many`` protocol when the
backend provides it (both :class:`~repro.measure.backend.HardwareBackend`
and :class:`~repro.iaca.analyzer.IacaBackend` do), falling back to a loop
over ``measure()``.  Per-experiment exceptions are captured as
:class:`~repro.core.experiment.ExperimentFailure` and re-raised only when
an interpreter reads the failed experiment, so batched execution keeps
the inline path's exception semantics.

``ExperimentExecutor(mode="inline")`` disables deduplication: every
planned experiment is dispatched in plan order, replaying the seed
algorithms' exact measure-call sequence.  This is the
differential-testing baseline (see tests/test_experiment_executor.py)
and the dedup benchmark's reference; sweeps always run batched.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import time
from typing import Any, Dict, List, Optional, Sequence

from repro.core.experiment import (
    Experiment,
    ExperimentBatch,
    ExperimentFailure,
    Plan,
    ResultMap,
)
from repro.stats import RunStatistics

#: Execution modes (see the module docstring).
EXECUTOR_BATCHED = "batched"
EXECUTOR_INLINE = "inline"

#: Environment variable overriding the retry policy:
#: ``REPRO_RETRY=attempts[:base_delay[:max_delay]]``.
RETRY_ENV = "REPRO_RETRY"


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """Retry budget for transient backend failures.

    A failed experiment whose error is a
    :class:`~repro.measure.TransientBackendError` is re-dispatched up to
    ``max_attempts`` times in total, sleeping
    ``min(max_delay, base_delay * 2**(attempt-1))`` — plus a
    deterministic jitter fraction derived from the experiment contents,
    so concurrent shards retrying the same flaky measurement do not
    thunder in lock-step — between rounds.  Permanent failures and
    unclassified exceptions are never retried.
    """

    max_attempts: int = 3
    base_delay: float = 0.02
    max_delay: float = 1.0
    jitter: float = 0.25

    def delay_for(self, attempt: int, salt: str) -> float:
        """Backoff before retry round *attempt* (1-based)."""
        base = min(
            self.max_delay, self.base_delay * (2 ** (attempt - 1))
        )
        digest = hashlib.sha256(
            f"{attempt}:{salt}".encode("utf-8")
        ).digest()
        fraction = int.from_bytes(digest[:4], "big") / 2**32
        return base * (1.0 + self.jitter * fraction)

    @classmethod
    def from_env(cls) -> "RetryPolicy":
        spec = os.environ.get(RETRY_ENV)
        if not spec:
            return cls()
        parts = spec.split(":")
        try:
            kwargs: Dict[str, Any] = {"max_attempts": int(parts[0])}
            if len(parts) > 1:
                kwargs["base_delay"] = float(parts[1])
            if len(parts) > 2:
                kwargs["max_delay"] = float(parts[2])
        except ValueError as error:
            raise ValueError(
                f"bad {RETRY_ENV} spec {spec!r} "
                f"(expected attempts[:base_delay[:max_delay]])"
            ) from error
        return cls(**kwargs)


def executor_mode(explicit: Optional[str] = None) -> str:
    """Resolve the executor-mode selection.

    ``inline`` forces one backend dispatch per planned experiment in
    plan order (the seed behaviour, and the baseline the differential
    tests compare against); the default is the deduplicating batched
    mode.
    """
    mode = explicit or EXECUTOR_BATCHED
    if mode not in (EXECUTOR_BATCHED, EXECUTOR_INLINE):
        raise ValueError(
            f"unknown executor mode {mode!r} "
            f"(expected {EXECUTOR_BATCHED!r} or {EXECUTOR_INLINE!r})"
        )
    return mode


class ExperimentExecutor:
    """Deduplicating dispatcher of experiment batches to one backend.

    The dedup memo spans the executor's lifetime, which is what makes
    sharing an executor across a whole sweep shard (see
    :class:`~repro.core.sweep.SweepEngine`) collapse repeated chain,
    isolation, and blocking sub-measurements across forms — the inline
    algorithms could only ever reuse them per call site.
    """

    def __init__(
        self,
        backend,
        mode: Optional[str] = None,
        retry: Optional[RetryPolicy] = None,
    ):
        self.backend = backend
        self.mode = executor_mode(mode)
        self.dedup = self.mode == EXECUTOR_BATCHED
        self.retry = retry if retry is not None else RetryPolicy.from_env()
        #: Lifetime outcome memo, keyed by experiment content.
        self._memo: Dict[Experiment, Any] = {}
        self.experiments_planned = 0
        self.experiments_deduped = 0
        self.experiments_measured = 0
        self.batches_dispatched = 0
        self.plan_seconds = 0.0
        self.execute_seconds = 0.0
        self.retries = 0
        self.experiments_gave_up = 0

    def snapshot(self) -> RunStatistics:
        """This executor's counters so far (fold deltas of two of them)."""
        return RunStatistics(
            experiments_planned=self.experiments_planned,
            experiments_deduped=self.experiments_deduped,
            experiments_measured=self.experiments_measured,
            batches_dispatched=self.batches_dispatched,
            plan_seconds=self.plan_seconds,
            execute_seconds=self.execute_seconds,
            retries=self.retries,
            experiments_gave_up=self.experiments_gave_up,
        )

    def execute(self, batch: ExperimentBatch) -> ResultMap:
        """Measure one batch, deduped against everything seen so far."""
        self.experiments_planned += len(batch)
        if self.dedup:
            pending: List[Experiment] = []
            seen = set()
            for experiment in batch:
                if experiment in self._memo or experiment in seen:
                    self.experiments_deduped += 1
                else:
                    seen.add(experiment)
                    pending.append(experiment)
        else:
            pending = list(batch)
        if pending:
            started = time.perf_counter()
            outcomes = self._dispatch_with_retry(pending)
            self.execute_seconds += time.perf_counter() - started
            self.batches_dispatched += 1
            self.experiments_measured += len(pending)
            for experiment, outcome in zip(pending, outcomes):
                self._memo[experiment] = outcome
        results = ResultMap()
        for experiment in batch:
            results.put(experiment, self._memo[experiment])
        return results

    def _dispatch_with_retry(
        self, pending: Sequence[Experiment]
    ) -> List[Any]:
        """Dispatch a batch, re-dispatching transient failures with
        capped exponential backoff until the retry budget is spent."""
        from repro.measure import TransientBackendError

        outcomes = self._dispatch(pending)
        for attempt in range(1, self.retry.max_attempts):
            failed = [
                index
                for index, outcome in enumerate(outcomes)
                if isinstance(outcome, ExperimentFailure)
                and isinstance(outcome.error, TransientBackendError)
            ]
            if not failed:
                break
            salt = pending[failed[0]].content_key()
            time.sleep(self.retry.delay_for(attempt, salt))
            self.retries += len(failed)
            retried = self._dispatch([pending[i] for i in failed])
            for index, outcome in zip(failed, retried):
                if isinstance(outcome, ExperimentFailure):
                    outcome = dataclasses.replace(
                        outcome, attempts=attempt + 1
                    )
                outcomes[index] = outcome
        for index, outcome in enumerate(outcomes):
            if isinstance(outcome, ExperimentFailure) and isinstance(
                outcome.error, TransientBackendError
            ):
                self.experiments_gave_up += 1
        return outcomes

    def _dispatch(self, pending: Sequence[Experiment]) -> List[Any]:
        measure_many = getattr(self.backend, "measure_many", None)
        if measure_many is not None:
            return list(measure_many(pending))
        outcomes: List[Any] = []
        for experiment in pending:
            try:
                outcomes.append(
                    self.backend.measure(
                        list(experiment.code), experiment.init_dict()
                    )
                )
            except Exception as error:
                outcomes.append(
                    ExperimentFailure(
                        error,
                        key=experiment.content_key(),
                        tag=experiment.tag,
                    )
                )
        return outcomes

    def drive(self, plan: Plan) -> Any:
        """Run a plan to completion: execute every batch it yields and
        feed the results back, returning the plan's interpretation."""
        results: Optional[ResultMap] = None
        while True:
            started = time.perf_counter()
            try:
                if results is None:
                    batch = next(plan)
                else:
                    batch = plan.send(results)
            except StopIteration as stop:
                self.plan_seconds += time.perf_counter() - started
                return stop.value
            self.plan_seconds += time.perf_counter() - started
            results = self.execute(batch)
