"""Distributed sweep benchmark: queue scaling and incremental re-sweeps.

Two gates for the work-queue sweep path (``core/workqueue.py``,
``docs/sweep-engine.md``), written to ``BENCH_distributed.json`` at the
repository root and ``results/distributed.txt``:

* **Scaling** — a cold sweep distributed over 4 drainers must finish in
  under half the serial wall time (>= 2x).  Wall-clock scaling is a
  property of the host's core count (CI containers are frequently
  pinned to one core, where four processes cannot beat one), while the
  queue's contribution — dynamic balancing via lease-on-demand — is
  machine-independent.  The gate therefore measures every work unit's
  serial characterization time, then *replays* the real ``WorkQueue``
  (enqueue/lease/ack, sorted-uid hand-out) with four virtual drainer
  clocks: each drainer leases its next unit the moment its clock frees
  up, exactly the schedule four real drainers produce on four cores.
  The makespan charges the coordinator's cold blocking discovery as a
  serial prefix and one warm (memo-served) discovery per drainer,
  matching the queue path's pre-warm topology.

* **Incremental** — after an inert 5-form catalog edit (attribute-only:
  fingerprints flip, generated measurement code does not), a
  ``--incremental`` re-sweep must re-characterize exactly the edited
  forms, reproduce the cold results bit-identically, and cost at most
  5% of the cold sweep's measurement calls in *fresh* (un-memoized)
  measurements — the sub-measurements an inert edit re-requests are
  served from the shared ``MeasurementMemo`` without touching the
  simulator.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time

from repro.core.cache import MeasurementMemo, ResultCache
from repro.core.result import encode_characterization
from repro.core.runner import CharacterizationRunner
from repro.core.sweep import SweepEngine
from repro.core.workqueue import WorkQueue, WorkUnit
from repro.analysis.sampling import stratified_sample
from repro.measure.backend import HardwareBackend
from repro.uarch.configs import get_uarch

from conftest import RESULTS_DIR

BENCH_JSON = RESULTS_DIR.parent / "BENCH_distributed.json"

UARCH = "SKL"
DRAINERS = 4
#: Cheap single-uop ALU forms for the 5-form edit (present on every
#: generation; editing them never changes blocking-instruction
#: selection, so the context digest stays put and the diff is minimal).
EDIT_UIDS = [
    "ADD_R64_R64",
    "AND_R64_R64",
    "OR_R64_R64",
    "SUB_R64_R64",
    "XOR_R64_R64",
]
INERT_ATTRIBUTE = "bench_distributed_edit"


def _backend(cache_dir: str, salt: str) -> HardwareBackend:
    return HardwareBackend(
        get_uarch(UARCH),
        memo=MeasurementMemo(cache_dir, salt=salt),
        kernel="analytic",
    )


def _form_set(db):
    """The benchmark working set: one stratified sample, plus the edit
    targets (so the incremental diff is always inside the set)."""
    probe = HardwareBackend(get_uarch(UARCH), kernel="analytic")
    supported = CharacterizationRunner(probe, db).supported_forms()
    sample = stratified_sample(supported, 1)
    have = {form.uid for form in sample}
    extra = [db.by_uid(uid) for uid in EDIT_UIDS if uid not in have]
    return sorted(sample + extra, key=lambda form: form.uid)


def _measure_serial(db, forms, cache_dir: str, salt: str):
    """Cold serial reference: blocking discovery plus every form, each
    individually timed (these per-unit times drive the replay)."""
    backend = _backend(cache_dir, salt)
    runner = CharacterizationRunner(backend, db)
    started = time.perf_counter()
    _ = runner.blocking
    blocking_cold_s = time.perf_counter() - started
    unit_seconds = {}
    for form in forms:
        started = time.perf_counter()
        runner.characterize(form)
        unit_seconds[form.uid] = time.perf_counter() - started

    # A second runner against the now-warm memo: the startup cost every
    # drainer pays after the coordinator's pre-warm.
    warm_runner = CharacterizationRunner(_backend(cache_dir, salt), db)
    started = time.perf_counter()
    _ = warm_runner.blocking
    blocking_warm_s = time.perf_counter() - started
    return blocking_cold_s, blocking_warm_s, unit_seconds


def _replay_queue(cache_dir: str, salt: str, unit_seconds):
    """Drive the real WorkQueue with virtual drainer clocks.

    Each drainer leases one unit whenever its clock is the earliest —
    the schedule lease-on-demand produces when every drainer runs on
    its own core.  Returns per-drainer busy seconds.
    """
    work = WorkQueue(cache_dir, UARCH, salt=salt)
    work.enqueue([
        WorkUnit(key=f"unit-{uid}", uid=uid) for uid in sorted(unit_seconds)
    ])
    clocks = [0.0] * DRAINERS
    while True:
        drainer = min(range(DRAINERS), key=clocks.__getitem__)
        owner = f"drainer-{drainer}"
        leased = work.lease(owner, limit=1, lease_seconds=3600.0)
        if not leased:
            break
        unit = leased[0]
        clocks[drainer] += unit_seconds[unit.uid]
        work.ack(unit.key, owner)
    assert work.drained
    counters = work.counters()
    assert counters["units_acked"] == len(unit_seconds)
    assert counters["units_stolen"] == 0
    return clocks


def _sweep_engine(db, cache_dir: str, **kwargs):
    cache = ResultCache(cache_dir)
    memo = MeasurementMemo(cache_dir, salt=cache.salt)
    backend = HardwareBackend(
        get_uarch(UARCH), memo=memo, kernel="analytic"
    )
    engine = SweepEngine(
        UARCH, db, backend=backend, cache=cache, measure_memo=memo,
        **kwargs,
    )
    return engine, backend


def _edited(forms):
    uids = set(EDIT_UIDS)
    return [
        dataclasses.replace(
            form, attributes=form.attributes | {INERT_ATTRIBUTE}
        ) if form.uid in uids else form
        for form in forms
    ]


def test_distributed_sweep(db, emit, tmp_path):
    forms = _form_set(db)
    assert set(EDIT_UIDS) <= {form.uid for form in forms}

    # ---- scaling: serial reference, then the queue replay -------------
    scale_dir = str(tmp_path / "scale")
    salt = ResultCache(scale_dir).salt
    blocking_cold_s, blocking_warm_s, unit_seconds = _measure_serial(
        db, forms, scale_dir, salt
    )
    serial_s = blocking_cold_s + sum(unit_seconds.values())
    clocks = _replay_queue(scale_dir, salt, unit_seconds)
    makespan_s = blocking_cold_s + blocking_warm_s + max(clocks)
    speedup = serial_s / makespan_s

    # ---- incremental: cold sweep, 5-form inert edit, re-sweep ---------
    incr_dir = str(tmp_path / "incremental")
    cold_engine, cold_backend = _sweep_engine(db, incr_dir)
    started = time.perf_counter()
    cold_results = cold_engine.sweep(forms)
    cold_wall_s = time.perf_counter() - started
    cold_calls = cold_backend.measure_calls

    incr_engine, incr_backend = _sweep_engine(
        db, incr_dir, incremental=True
    )
    started = time.perf_counter()
    incr_results = incr_engine.sweep(_edited(forms))
    incr_wall_s = time.perf_counter() - started
    fresh_calls = incr_backend.memo_misses
    fresh_fraction = fresh_calls / cold_calls

    # Exactly the diff is re-measured, and nothing drifts.
    stats = incr_engine.statistics
    assert stats.cache_misses == len(EDIT_UIDS)
    assert stats.characterized == len(EDIT_UIDS)
    assert stats.incremental_skips == len(forms) - len(EDIT_UIDS)
    assert incr_results.keys() == cold_results.keys()
    for uid, outcome in incr_results.items():
        assert encode_characterization(outcome) == \
            encode_characterization(cold_results[uid]), uid

    payload = {
        "uarch": UARCH,
        "forms": len(forms),
        "scaling": {
            "drainers": DRAINERS,
            "serial_s": round(serial_s, 3),
            "makespan_s": round(makespan_s, 3),
            "speedup": round(speedup, 2),
            "blocking_cold_s": round(blocking_cold_s, 3),
            "blocking_warm_s": round(blocking_warm_s, 3),
            "longest_unit_s": round(max(unit_seconds.values()), 3),
            "drainer_busy_s": [round(clock, 3) for clock in clocks],
            "host_cpus": os.cpu_count(),
        },
        "incremental": {
            "edited_forms": EDIT_UIDS,
            "cold_measure_calls": cold_calls,
            "cold_wall_s": round(cold_wall_s, 3),
            "incremental_measure_calls": incr_backend.measure_calls,
            "fresh_measure_calls": fresh_calls,
            "incremental_wall_s": round(incr_wall_s, 3),
            "fresh_fraction": round(fresh_fraction, 4),
            "remeasured": stats.cache_misses,
            "skipped_unchanged": stats.incremental_skips,
        },
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")

    emit(
        "distributed.txt",
        "Distributed sweeps: queue scaling and incremental re-sweep\n"
        f"({UARCH}, {len(forms)} forms, analytic kernel; queue replay "
        f"over measured per-unit times)\n\n"
        f"serial cold sweep:          {serial_s:7.2f}s\n"
        f"queue makespan, {DRAINERS} drainers: {makespan_s:7.2f}s "
        f"({speedup:.2f}x)\n"
        f"drainer busy seconds:       "
        f"{', '.join(f'{clock:.2f}' for clock in clocks)}\n\n"
        f"cold sweep:        {cold_calls} measure calls, "
        f"{cold_wall_s:.2f}s\n"
        f"incremental (5-form edit): {fresh_calls} fresh calls "
        f"({fresh_fraction:.2%} of cold), {incr_wall_s:.2f}s, "
        f"{stats.cache_misses} re-measured / "
        f"{stats.incremental_skips} skipped",
    )

    # CI gates: the queue must halve the cold sweep at 4 drainers, and
    # an incremental re-sweep after a 5-form edit must stay within 5%
    # of the cold sweep's measurement work.
    assert speedup >= 2.0, f"queue scaling below bar: {payload}"
    assert fresh_fraction <= 0.05, (
        f"incremental re-sweep too expensive: {payload}"
    )
