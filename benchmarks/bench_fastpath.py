"""Analytic fast-path benchmark: closed-form tier vs. the event kernel.

Measures the paper-config NHM cold characterization sweep (blocking
discovery plus the standard small form set — the same shape as
``bench_sim_kernel.py``'s SKL gate) on the analytic tier and on the
event kernel it falls back to, in the same process and interleaved
best-of-2, so machine noise largely cancels out of the ratio.  Results
go to ``BENCH_fastpath.json`` at the repository root (the CI smoke
artifact) and ``results/fastpath.txt``.

This is the performance gate for the analytic tier: >= 5x over the
event-kernel cold sweep (the PR-2 baseline path, recorded in
``BENCH_sim_kernel.json``/``BENCH_executor_dedup.json``), while
producing bit-identical characterizations — the exhaustive equality
evidence is tests/test_sim_differential.py and tests/test_sim_fuzz.py.
"""

from __future__ import annotations

import json
import time

from repro.core.result import encode_characterization
from repro.core.runner import CharacterizationRunner
from repro.measure.backend import HardwareBackend, MeasurementConfig
from repro.uarch.configs import get_uarch

from conftest import RESULTS_DIR

BENCH_JSON = RESULTS_DIR.parent / "BENCH_fastpath.json"

UARCH = "NHM"
FORM_UIDS = [
    "ADD_R64_R64",
    "IMUL_R64_R64",
    "ADDPS_XMM_XMM",
    "MOV_R64_M64",
    "SHLD_R64_R64_I8",
    "XOR_R64_R64",
]


def _cold_sweep(db, kernel: str):
    """One cold characterization sweep; returns (outcomes, stats dict)."""
    backend = HardwareBackend(
        get_uarch(UARCH), MeasurementConfig.paper(), kernel=kernel
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
        "cycles_analytic": stats.cycles_analytic,
        "runs_analytic": stats.runs_analytic,
    }


def test_fastpath_speedup(db, emit):
    # Interleaved best-of-2: each tier's wall time is its fastest pass,
    # taken alternately so load spikes hit both tiers alike.
    runs = {"analytic": [], "event": []}
    outcomes = {}
    for _ in range(2):
        for kernel in ("analytic", "event"):
            outcome, stats = _cold_sweep(db, kernel)
            outcomes[kernel] = outcome
            runs[kernel].append(stats)
    analytic = min(runs["analytic"], key=lambda s: s["wall_s"])
    event = min(runs["event"], key=lambda s: s["wall_s"])

    # Bit-identical characterizations, not just faster ones.
    for uid in FORM_UIDS:
        assert encode_characterization(outcomes["analytic"][uid]) == \
            encode_characterization(outcomes["event"][uid]), uid

    # The closed form must carry the sweep, not coast on fallbacks.
    assert analytic["runs_analytic"] > 0
    assert analytic["cycles_analytic"] > 0
    assert analytic["cycles_simulated"] < event["cycles_simulated"]

    speedup = event["wall_s"] / max(analytic["wall_s"], 1e-9)
    payload = {
        "uarch": UARCH,
        "config": "paper (unroll 10/110, repeats 3)",
        "forms": FORM_UIDS,
        "analytic": analytic,
        "event": event,
        "speedup": round(speedup, 2),
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")

    emit(
        "fastpath.txt",
        "Analytic fast path: closed-form tier vs. event kernel\n"
        f"(cold sweep: blocking discovery + {len(FORM_UIDS)} forms, "
        f"{UARCH}, paper config, best of 2)\n\n"
        f"{'kernel':10s} {'wall':>8s} {'simulated':>11s} "
        f"{'extrapolated':>13s} {'analytic':>10s}\n"
        f"{'event':10s} {event['wall_s']:7.2f}s "
        f"{event['cycles_simulated']:11d} "
        f"{event['cycles_extrapolated']:13d} {event['cycles_analytic']:10d}\n"
        f"{'analytic':10s} {analytic['wall_s']:7.2f}s "
        f"{analytic['cycles_simulated']:11d} "
        f"{analytic['cycles_extrapolated']:13d} "
        f"{analytic['cycles_analytic']:10d}\n\n"
        f"speedup (analytic vs event): {speedup:.1f}x\n"
        f"closed-form runs:            {analytic['runs_analytic']}",
    )

    # CI gate: the analytic tier must clear the acceptance bar on the
    # cold sweep the event kernel was itself gated on.
    assert analytic["wall_s"] < event["wall_s"], (
        f"analytic tier slower than event kernel: {payload}"
    )
    assert speedup >= 5.0, f"fast-path speedup below bar: {payload}"
