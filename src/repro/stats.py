"""The run's counters: one record that every layer fills, folds and prints.

:class:`RunStatistics` is the only counter type of the measurement
stack.  Producers report in it — the measurement ladder
(:func:`~repro.measure.extrapolate.unrolled_counters`), the backend and
the executor (``snapshot()``), and the persistent stores (``stats()``)
— and consumers fold it with arithmetic: a stretch of work contributes
``merge(after - before)``.  A producer naming a counter that does not
exist fails with ``TypeError`` on construction, and the CLI's stderr
summary iterates the fields, so no counter can go unfolded or
unprinted.

Each field declares its stderr row (``cache``, ``memo``, ``simulation``,
``executor``, ``faults``, ``sweep``) in its ``dataclasses.field``
metadata; rows print in order of first declaration.  This module is a
leaf: it imports nothing from :mod:`repro`, so :mod:`repro.measure` and
:mod:`repro.core` can both use it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict


def _counter(row: str, default=0):
    return field(default=default, metadata={"row": row})


@dataclass
class RunStatistics:
    """Bookkeeping for a characterization run (cf. Section 7.1).

    ``seconds`` is *measurement* time only: it accumulates solely while a
    form is actually being characterized on a backend.  Forms that are
    skipped (unmeasurable) or served from the sweep engine's persistent
    cache contribute nothing to it, so cached re-runs report near-zero
    measured time even when the wall clock is dominated by I/O.
    """

    characterized: int = _counter("cache")
    skipped: int = _counter("cache")
    seconds: float = _counter("cache", 0.0)
    #: Persistent-cache counters (filled by the sweep engine; a serial
    #: :class:`~repro.core.runner.CharacterizationRunner` never touches
    #: the cache).
    cache_hits: int = _counter("cache")
    cache_misses: int = _counter("cache")
    cache_invalidations: int = _counter("cache")
    #: Measurement-memo counters (persistent raw-measurement memo shared
    #: across pool workers; see :class:`~repro.core.cache.MeasurementMemo`).
    memo_hits: int = _counter("memo")
    memo_misses: int = _counter("memo")
    #: Timing-kernel work split: cycles of the full-length runs the core
    #: timed (the full rung, or every run of the reference kernel), and
    #: the closed-form targets served beyond their scheduled stream by
    #: its proved timing period, with the cycles that extrapolation
    #: covered.
    cycles_simulated: int = _counter("simulation")
    cycles_extrapolated: int = _counter("simulation")
    runs_extrapolated: int = _counter("simulation")
    #: Measurement-ladder rungs: unroll targets served in closed form
    #: (with the cycles they cover), and targets run at full length —
    #: every target of a body the closed form declined.  Every unroll
    #: target is served by exactly one of ``runs_analytic`` and
    #: ``runs_full``.
    runs_analytic: int = _counter("simulation")
    cycles_analytic: int = _counter("simulation")
    runs_full: int = _counter("simulation")
    #: Bodies the closed form declined, one counter per reason: memory
    #: addresses that move between copies, the fusion or decoder
    #: front-end extension, and no rename-state period within the
    #: snapshot budget.  Each declined body simulates every target in
    #: full.
    declined_moving_addresses: int = _counter("simulation")
    declined_front_end: int = _counter("simulation")
    declined_no_period: int = _counter("simulation")
    #: Divider bodies the closed form declined because a younger
    #: divider µop could take the divider first; like the other
    #: declines, each target ran at full length.
    divider_reorders: int = _counter("simulation")
    #: Closed-form passes that ran (memo hits replay none of this):
    #: the copies they scheduled, and the streams whose timing period
    #: they proved before the longest target.
    copies_scheduled: int = _counter("simulation")
    periods_proved: int = _counter("simulation")
    #: Experiment-executor counters: how many experiments the plans
    #: emitted, how many were deduplicated away before reaching the
    #: backend, how many were actually dispatched, and the time split
    #: between the planning/interpreting and executing phases.
    experiments_planned: int = _counter("executor")
    experiments_deduped: int = _counter("executor")
    experiments_measured: int = _counter("executor")
    batches_dispatched: int = _counter("executor")
    plan_seconds: float = _counter("executor", 0.0)
    execute_seconds: float = _counter("executor", 0.0)
    #: Entries evicted from the backend's bounded in-process caches (see
    #: ``MeasurementConfig.max_cached_measurements``).
    cache_evictions: int = _counter("executor")
    #: Fault-tolerance counters: transient-failure re-dispatches, the
    #: experiments that exhausted the retry budget, forms quarantined
    #: instead of characterized, and pool workers started to replace dead
    #: ones.
    retries: int = _counter("faults")
    experiments_gave_up: int = _counter("faults")
    forms_failed: int = _counter("faults")
    drainers_respawned: int = _counter("faults")
    #: Store-integrity counters (see :mod:`repro.core.journal`): mid-file
    #: lines that failed to decode, torn tails truncated-and-recovered on
    #: load (a writer died mid-append), bounded flock waits that gave up,
    #: and flock attempts that had to back off and retry first.
    corrupt_lines: int = _counter("faults")
    torn_tails: int = _counter("faults")
    lock_timeouts: int = _counter("faults")
    lock_retries: int = _counter("faults")
    #: Forms served from cache because their input fingerprints were
    #: unchanged (``--incremental``), and cache lines dropped by
    #: ``repro cache gc``.
    incremental_skips: int = _counter("sweep")
    gc_keys_dropped: int = _counter("sweep")

    def merge(self, other: "RunStatistics") -> None:
        """Fold in the counters of another stretch of work."""
        for name in _NAMES:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def __sub__(self, other: "RunStatistics") -> "RunStatistics":
        """Field-wise difference: the work done between two snapshots."""
        return RunStatistics(**{
            name: getattr(self, name) - getattr(other, name)
            for name in _NAMES
        })

    def as_dict(self) -> Dict[str, float]:
        """All counters, JSON-serializable (for ``--stats-json``)."""
        return {name: getattr(self, name) for name in _NAMES}


_NAMES = tuple(spec.name for spec in fields(RunStatistics))
