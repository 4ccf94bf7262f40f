"""Section 7.1: total tool runtime.

The paper reports 50 minutes (Coffee Lake) to 110 minutes (Broadwell) for
a full characterization run on real hardware.  This benchmark measures the
per-variant characterization cost on the simulator for a sample and
extrapolates a full-run estimate per generation, checking that the cost is
dominated by the same components (latency chains and Algorithm 1
measurements) and stays within a practical envelope.
"""

import json
import time


from repro.analysis.sampling import stratified_sample
from repro.core.cache import ResultCache
from repro.core.result import encode_characterization
from repro.core.runner import CharacterizationRunner
from repro.core.sweep import SweepEngine
from repro.measure.backend import HardwareBackend, MeasurementConfig
from repro.measure.executor import (
    EXECUTOR_BATCHED,
    EXECUTOR_INLINE,
    ExperimentExecutor,
)
from repro.uarch.configs import get_uarch

from conftest import RESULTS_DIR, hardware_backend

GENERATIONS = ("NHM", "SKL")
SAMPLE = 12

#: Stratified sample size for the executor-dedup sweep.  The dedup rate
#: grows with the number of forms sharing calibration/blocking
#: experiments; ~500 forms is where the paper-config NHM sweep crosses
#: the 20% mark this benchmark gates on.
DEDUP_SAMPLE = 500
DEDUP_JSON = RESULTS_DIR.parent / "BENCH_executor_dedup.json"


def test_runtime_per_variant(db, benchmark, emit):
    def run():
        rows = []
        for name in GENERATIONS:
            backend = hardware_backend(name)
            runner = CharacterizationRunner(backend, db)
            _ = runner.blocking  # paid once per backend, like the paper
            supported = runner.supported_forms()
            sample = stratified_sample(supported, SAMPLE)
            started = time.perf_counter()
            for form in sample:
                runner.characterize(form)
            elapsed = time.perf_counter() - started
            per_variant = elapsed / len(sample)
            estimate_minutes = per_variant * len(supported) / 60.0
            rows.append(
                (name, len(supported), per_variant, estimate_minutes)
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [
        "Tool runtime (Section 7.1; paper: 50-110 minutes on hardware):",
        "",
        f"{'arch':5s} {'#variants':>9s} {'s/variant':>10s} "
        f"{'full-run estimate':>18s}",
    ]
    for name, n, per_variant, estimate in rows:
        lines.append(
            f"{name:5s} {n:9d} {per_variant:10.2f} {estimate:15.1f} min"
        )
    emit("runtime.txt", "\n".join(lines))
    for name, _n, per_variant, _est in rows:
        # A variant must characterize in seconds, not minutes.
        assert per_variant < 30.0, name


def test_cached_sweep_speedup(db, tmp_path, benchmark, emit):
    """The persistent result cache makes repeat sweeps near-free.

    A cold sweep measures every sampled variant; the warm sweep over the
    same sample must hit the cache for all of them, perform zero backend
    measurements, and finish at least 10x faster.
    """
    backend = hardware_backend("SKL")
    engine = SweepEngine(
        "SKL", db, backend=backend, cache=ResultCache(str(tmp_path))
    )
    sample = stratified_sample(engine.supported_forms(), SAMPLE)[:40]

    def cold():
        started = time.perf_counter()
        results = engine.sweep(sample)
        return results, time.perf_counter() - started

    results_cold, cold_s = benchmark.pedantic(cold, rounds=1,
                                              iterations=1)

    warm_engine = SweepEngine("SKL", db, cache=ResultCache(str(tmp_path)))
    calls_before = backend.measure_calls
    started = time.perf_counter()
    results_warm = warm_engine.sweep(sample)
    warm_s = time.perf_counter() - started

    assert results_warm == results_cold
    assert warm_engine.statistics.cache_hits == len(sample)
    assert warm_engine.statistics.seconds == 0.0
    # No backend was even constructed for the warm sweep, and the cold
    # engine's backend was not consulted again.
    assert warm_engine._backend is None
    assert backend.measure_calls == calls_before
    assert warm_s < cold_s / 10.0

    emit(
        "cached_sweep.txt",
        "Cached sweep speedup (persistent result cache):\n\n"
        f"variants:   {len(sample)}\n"
        f"cold sweep: {cold_s:8.2f} s\n"
        f"warm sweep: {warm_s:8.2f} s\n"
        f"speedup:    {cold_s / max(warm_s, 1e-9):8.1f}x",
    )


def test_cold_sweep_kernel_speedup(db, benchmark, emit):
    """The default measurement ladder accelerates cold sweeps end to end.

    Unlike the result cache (which only helps *repeat* sweeps), the
    closed-form ladder speeds up the first, cold sweep: both engines
    below measure everything from scratch, on the default measurement
    configuration, differing only in the timing kernel.
    bench_sim_kernel.py benchmarks the paper configuration, where the
    gap is far larger.
    """

    def sweep_with(kernel):
        backend = HardwareBackend(get_uarch("SKL"), kernel=kernel)
        engine = SweepEngine("SKL", db, backend=backend)
        sample = stratified_sample(engine.supported_forms(), SAMPLE)
        started = time.perf_counter()
        results = engine.sweep(sample)
        return results, time.perf_counter() - started, backend

    def run():
        results_default, default_s, default_backend = sweep_with(None)
        results_seed, seed_s, _ = sweep_with("reference")
        assert results_default == results_seed
        return default_s, seed_s, default_backend

    default_s, seed_s, default_backend = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    default_stats = default_backend.snapshot()
    emit(
        "kernel_sweep.txt",
        "Cold sweep: default ladder vs reference loop (SKL, default "
        "config):\n\n"
        f"reference kernel: {seed_s:8.2f} s\n"
        f"default ladder:   {default_s:8.2f} s\n"
        f"speedup:          {seed_s / max(default_s, 1e-9):8.1f}x\n"
        f"cycles simulated: {default_stats.cycles_simulated}\n"
        f"cycles analytic:  {default_stats.cycles_analytic}",
    )
    assert default_s < seed_s


def test_cold_sweep_executor_dedup(db, benchmark, emit):
    """The batched executor performs fewer backend dispatches than the
    inline path on a cold sweep.

    The executor's memo is the one in-process cache of finished
    measurements: it keeps duplicated experiments (latency
    calibrations, blocking sequences, isolation runs shared across
    forms) from reaching the backend at all, while the inline side
    sends every planned experiment to ``measure()`` (the backend keeps
    no cache of its own, so each duplicate is measured again).  Both
    sweeps below run the
    paper measurement configuration cold on NHM; the batched side must
    cut ``HardwareBackend.measure_calls`` by at least 20% while staying
    bit-identical, and the dedup rate lands in the benchmark JSON.
    """

    def cold_sweep(mode):
        backend = HardwareBackend(
            get_uarch("NHM"), MeasurementConfig.paper()
        )
        executor = ExperimentExecutor(backend, mode=mode)
        runner = CharacterizationRunner(backend, db, executor=executor)
        sample = stratified_sample(runner.supported_forms(), DEDUP_SAMPLE)
        started = time.perf_counter()
        outcomes = {
            form.uid: runner.characterize(form) for form in sample
        }
        wall = time.perf_counter() - started
        return outcomes, backend, executor, wall

    def run():
        return cold_sweep(EXECUTOR_BATCHED), cold_sweep(EXECUTOR_INLINE)

    batched_run, inline_run = benchmark.pedantic(run, rounds=1,
                                                 iterations=1)
    b_out, b_backend, b_exec, b_wall = batched_run
    i_out, i_backend, i_exec, i_wall = inline_run

    # Dedup is a pure optimization: bit-identical characterizations.
    assert set(b_out) == set(i_out)
    for uid, outcome in b_out.items():
        expected = i_out[uid]
        if outcome is None or expected is None:
            assert outcome is expected, uid
            continue
        assert encode_characterization(outcome) == \
            encode_characterization(expected), uid

    assert b_exec.experiments_planned == i_exec.experiments_planned
    assert i_backend.measure_calls == i_exec.experiments_planned
    assert b_backend.measure_calls < i_backend.measure_calls
    reduction = 1.0 - b_backend.measure_calls / i_backend.measure_calls
    dedup_rate = b_exec.experiments_deduped / b_exec.experiments_planned
    assert reduction >= 0.20, f"measure_calls reduction {reduction:.3f}"

    payload = {
        "uarch": "NHM",
        "config": "paper",
        "forms": len(b_out),
        "experiments_planned": b_exec.experiments_planned,
        "experiments_deduped": b_exec.experiments_deduped,
        "experiments_measured": b_exec.experiments_measured,
        "batches_dispatched": b_exec.batches_dispatched,
        "dedup_rate": round(dedup_rate, 4),
        "measure_calls_batched": b_backend.measure_calls,
        "measure_calls_inline": i_backend.measure_calls,
        "measure_calls_reduction": round(reduction, 4),
        "wall_s_batched": round(b_wall, 2),
        "wall_s_inline": round(i_wall, 2),
    }
    DEDUP_JSON.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    emit(
        "executor_dedup.txt",
        "Cold sweep: batched executor vs inline dispatch (NHM, paper "
        "config):\n\n"
        f"forms:                {len(b_out)}\n"
        f"experiments planned:  {b_exec.experiments_planned}\n"
        f"experiments deduped:  {b_exec.experiments_deduped} "
        f"({100.0 * dedup_rate:.1f}%)\n"
        f"measure calls:        {b_backend.measure_calls} batched vs "
        f"{i_backend.measure_calls} inline "
        f"(-{100.0 * reduction:.1f}%)\n"
        f"wall time:            {b_wall:8.2f} s batched vs "
        f"{i_wall:8.2f} s inline",
    )
