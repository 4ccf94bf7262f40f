"""Simulation-kernel benchmark: event-driven vs. reference cycle loop.

Measures a cold characterization sweep (blocking-instruction discovery
plus a small form set) under the paper's measurement configuration
(``unroll 10/110, 3 repeats``, Section 6.2) on both timing kernels, and
a memo-warm pass that replays the same measurements from the persistent
measurement memo.  Results are written to ``BENCH_sim_kernel.json`` at
the repository root (the CI smoke artifact) and ``results/sim_kernel.txt``.

This is also the performance gate for the PR's tentpole claim: the
event-driven kernel with steady-state extrapolation must be at least 5x
faster than the seed loop on a cold sweep, while producing bit-identical
characterizations (the identity is asserted here too; the exhaustive
equality suite is tests/test_sim_differential.py).
"""

from __future__ import annotations

import json
import time

from repro.core.cache import MeasurementMemo
from repro.core.result import encode_characterization
from repro.core.runner import CharacterizationRunner
from repro.measure.backend import HardwareBackend, MeasurementConfig
from repro.uarch.configs import get_uarch

from conftest import RESULTS_DIR

BENCH_JSON = RESULTS_DIR.parent / "BENCH_sim_kernel.json"

UARCH = "SKL"
FORM_UIDS = [
    "ADD_R64_R64",
    "IMUL_R64_R64",
    "ADDPS_XMM_XMM",
    "MOV_R64_M64",
    "SHLD_R64_R64_I8",
    "XOR_R64_R64",
]


def _cold_sweep(db, kernel: str, memo=None):
    """One cold characterization sweep; returns (outcomes, stats dict)."""
    backend = HardwareBackend(
        get_uarch(UARCH), MeasurementConfig.paper(), memo=memo,
        kernel=kernel,
    )
    runner = CharacterizationRunner(backend, db)
    started = time.perf_counter()
    _ = runner.blocking  # the per-worker cost every sweep shard pays
    outcomes = {
        uid: runner.characterize(db.by_uid(uid)) for uid in FORM_UIDS
    }
    wall = time.perf_counter() - started
    stats = backend.snapshot()
    return outcomes, {
        "wall_s": round(wall, 3),
        "measure_calls": backend.measure_calls,
        "cycles_simulated": stats.cycles_simulated,
        "cycles_extrapolated": stats.cycles_extrapolated,
        "runs_extrapolated": stats.runs_extrapolated,
        "memo_hits": stats.memo_hits,
        "memo_misses": stats.memo_misses,
    }


def test_kernel_speedup(db, tmp_path, emit):
    event_outcomes, event = _cold_sweep(db, "event")
    reference_outcomes, reference = _cold_sweep(db, "reference")

    # Bit-identical characterizations, not just faster ones.
    for uid in FORM_UIDS:
        assert encode_characterization(event_outcomes[uid]) == \
            encode_characterization(reference_outcomes[uid]), uid

    # Memo phases: a cold writer populates the shared memo, a second
    # backend (what a sweep worker sees after the parent pre-warm)
    # replays everything from it.
    memo_dir = str(tmp_path / "memo")
    _cold_sweep(db, "event", memo=MeasurementMemo(memo_dir))
    warm_outcomes, warm = _cold_sweep(
        db, "event", memo=MeasurementMemo(memo_dir)
    )
    for uid in FORM_UIDS:
        assert encode_characterization(warm_outcomes[uid]) == \
            encode_characterization(event_outcomes[uid]), uid
    lookups = warm["memo_hits"] + warm["memo_misses"]
    hit_rate = warm["memo_hits"] / lookups if lookups else 0.0

    speedup = reference["wall_s"] / max(event["wall_s"], 1e-9)
    payload = {
        "uarch": UARCH,
        "config": "paper (unroll 10/110, repeats 3)",
        "forms": FORM_UIDS,
        "event": event,
        "reference": reference,
        "memo_warm": {**warm, "hit_rate": round(hit_rate, 4)},
        "speedup": round(speedup, 2),
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")

    emit(
        "sim_kernel.txt",
        "Simulation kernel: event-driven + extrapolation vs. seed loop\n"
        f"(cold sweep: blocking discovery + {len(FORM_UIDS)} forms, "
        f"{UARCH}, paper config)\n\n"
        f"{'kernel':12s} {'wall':>8s} {'simulated':>12s} "
        f"{'extrapolated':>13s}\n"
        f"{'reference':12s} {reference['wall_s']:7.2f}s "
        f"{reference['cycles_simulated']:12d} {0:13d}\n"
        f"{'event':12s} {event['wall_s']:7.2f}s "
        f"{event['cycles_simulated']:12d} "
        f"{event['cycles_extrapolated']:13d}\n"
        f"{'memo-warm':12s} {warm['wall_s']:7.2f}s "
        f"{warm['cycles_simulated']:12d} "
        f"{warm['cycles_extrapolated']:13d}\n\n"
        f"speedup (event vs reference): {speedup:.1f}x\n"
        f"memo hit rate (warm worker):  {hit_rate:.1%}",
    )

    # CI gate: the optimized kernel must never be slower than the seed;
    # the tentpole acceptance bar is >= 5x on this cold sweep.
    assert event["wall_s"] < reference["wall_s"], (
        f"event kernel slower than reference: {payload}"
    )
    assert speedup >= 5.0, f"cold-sweep speedup below bar: {payload}"
    assert hit_rate > 0.95, f"memo barely hit: {payload}"
