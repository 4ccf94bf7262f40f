"""Simulation-kernel benchmark: the default ladder vs. the reference loop.

Measures a cold characterization sweep (blocking-instruction discovery
plus a small form set) under the paper's measurement configuration
(``unroll 10/110, 3 repeats``, Section 6.2) on the default measurement
ladder (closed form, the event kernel only on divider reorders, full
simulation of declined bodies) and on the seed per-cycle reference
loop, plus a
memo-warm pass that replays the same measurements from the persistent
measurement memo.  Results are written to ``BENCH_sim_kernel.json`` at
the repository root (the CI smoke artifact) and ``results/sim_kernel.txt``.

This is the simulation layer's one kernel gate: the default ladder must
be at least 5x faster than the seed loop on a cold sweep, while
producing bit-identical characterizations (the identity is asserted
here too; the exhaustive equality suites are
tests/test_sim_differential.py and tests/test_sim_fuzz.py).
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


def _cold_sweep(db, kernel=None, memo=None):
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
        "cycles_analytic": stats.cycles_analytic,
        "runs_analytic": stats.runs_analytic,
        # Closed-form targets served beyond their scheduled stream.
        "cycles_extrapolated": stats.cycles_extrapolated,
        "runs_extrapolated": stats.runs_extrapolated,
        "runs_full": stats.runs_full,
        "divider_reorders": stats.divider_reorders,
        "memo_hits": stats.memo_hits,
        "memo_misses": stats.memo_misses,
    }


def test_kernel_speedup(db, tmp_path, emit):
    default_outcomes, default = _cold_sweep(db)
    reference_outcomes, reference = _cold_sweep(db, "reference")

    # Bit-identical characterizations, not just faster ones.
    for uid in FORM_UIDS:
        assert encode_characterization(default_outcomes[uid]) == \
            encode_characterization(reference_outcomes[uid]), uid
    # The closed form must carry the sweep, not coast on fallbacks.
    assert default["runs_analytic"] > 0
    assert default["cycles_simulated"] < reference["cycles_simulated"]

    # Memo phases: a cold writer populates the shared memo, a second
    # backend (what a sweep worker sees after the parent pre-warm)
    # replays everything from it.
    memo_dir = str(tmp_path / "memo")
    _cold_sweep(db, memo=MeasurementMemo(memo_dir))
    warm_outcomes, warm = _cold_sweep(db, memo=MeasurementMemo(memo_dir))
    for uid in FORM_UIDS:
        assert encode_characterization(warm_outcomes[uid]) == \
            encode_characterization(default_outcomes[uid]), uid
    lookups = warm["memo_hits"] + warm["memo_misses"]
    hit_rate = warm["memo_hits"] / lookups if lookups else 0.0

    speedup = reference["wall_s"] / max(default["wall_s"], 1e-9)
    payload = {
        "uarch": UARCH,
        "config": "paper (unroll 10/110, repeats 3)",
        "forms": FORM_UIDS,
        "default": default,
        "reference": reference,
        "memo_warm": {**warm, "hit_rate": round(hit_rate, 4)},
        "speedup": round(speedup, 2),
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")

    emit(
        "sim_kernel.txt",
        "Simulation kernel: default measurement ladder vs. seed loop\n"
        f"(cold sweep: blocking discovery + {len(FORM_UIDS)} forms, "
        f"{UARCH}, paper config)\n\n"
        f"{'kernel':12s} {'wall':>8s} {'simulated':>12s} "
        f"{'analytic':>12s}\n"
        f"{'reference':12s} {reference['wall_s']:7.2f}s "
        f"{reference['cycles_simulated']:12d} {0:12d}\n"
        f"{'default':12s} {default['wall_s']:7.2f}s "
        f"{default['cycles_simulated']:12d} "
        f"{default['cycles_analytic']:12d}\n"
        f"{'memo-warm':12s} {warm['wall_s']:7.2f}s "
        f"{warm['cycles_simulated']:12d} "
        f"{warm['cycles_analytic']:12d}\n\n"
        f"speedup (default vs reference): {speedup:.1f}x\n"
        f"memo hit rate (warm worker):    {hit_rate:.1%}",
    )

    # CI gate: the default ladder must never be slower than the seed
    # loop, and must clear >= 5x on this cold sweep.
    assert default["wall_s"] < reference["wall_s"], (
        f"default ladder slower than reference: {payload}"
    )
    assert speedup >= 5.0, f"cold-sweep speedup below bar: {payload}"
    assert hit_rate > 0.95, f"memo barely hit: {payload}"
