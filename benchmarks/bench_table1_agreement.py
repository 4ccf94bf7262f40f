"""Table 1: tested microarchitectures, number of instruction variants, and
hardware-vs-IACA agreement.

Paper values for reference:

    Arch  Processor        #Instr  IACA      µops     Ports
    NHM   Core i5-750      1836    2.1-2.2   91.43%   95.27%
    WSM   Core i5-650      1848    2.1-2.2   91.36%   94.61%
    SNB   Core i7-2600     2538    2.1-2.3   93.25%   98.24%
    IVB   Core i5-3470     2549    2.1-2.3   91.36%   97.39%
    HSW   Xeon E3-1225 v3  3107    2.1-3.0   93.10%   96.45%
    BDW   Core i5-5200U    3118    2.2-3.0   92.83%   92.64%
    SKL   Core i7-6500U    3119    2.3-3.0   92.29%   91.04%
    KBL   Core i7-7700     3119    -         -        -
    CFL   Core i7-8700K    3119    -         -        -

The absolute variant counts differ (our catalog is smaller than the full
x86 ISA) but the shape must hold: counts grow monotonically with newer
generations, µop agreement lands around 90%, port agreement in the low-to-
high 90s, and Kaby/Coffee Lake have no IACA support at all.
"""

import os


from repro.analysis.compare import compute_agreement
from repro.analysis.sampling import stratified_sample
from repro.core.cache import ResultCache
from repro.core.runner import CharacterizationRunner
from repro.core.sweep import SweepEngine
from repro.uarch.configs import ALL_UARCHES

from conftest import full_run_requested, hardware_backend

#: Forms compared per generation in the default (sampled) run.
SAMPLE_TARGET = int(os.environ.get("REPRO_TABLE1_SAMPLE", "45"))


def _cache_from_env():
    """Opt-in persistent cache: REPRO_CACHE_DIR=... makes the hardware
    side of repeated Table-1 regenerations come from cached sweeps."""
    cache_dir = os.environ.get("REPRO_CACHE_DIR")
    return ResultCache(cache_dir) if cache_dir else None


def _table1() -> str:
    lines = [
        "Table 1: microarchitectures, instruction variants, and "
        "IACA agreement",
        "",
        f"{'Arch':4s} {'Processor':18s} {'#Instr':>6s}  "
        f"{'IACA':8s} {'µops':>8s} {'Ports':>8s}",
    ]
    cache = _cache_from_env()
    rows = []
    for uarch in ALL_UARCHES:
        backend = hardware_backend(uarch.name)
        runner = CharacterizationRunner(backend)
        supported = runner.supported_forms()
        if full_run_requested():
            sample = supported
        else:
            sample = stratified_sample(supported, SAMPLE_TARGET)
        hw_results = None
        if cache is not None and uarch.iaca_versions:
            engine = SweepEngine(
                uarch, runner.database, backend=backend, cache=cache
            )
            hw_results = engine.sweep(sample)
        row = compute_agreement(
            uarch,
            runner.database,
            sample,
            backend,
            n_variants=len(supported),
            hw_results=hw_results,
        )
        rows.append(row)
        lines.append(row.format())
    lines.append("")
    if not full_run_requested():
        lines.append(
            f"(sampled: ~{SAMPLE_TARGET} variants per generation; "
            "set REPRO_FULL=1 for the full catalog)"
        )
    return "\n".join(lines), rows


def test_table1(benchmark, emit):
    report, rows = benchmark.pedantic(_table1, rounds=1, iterations=1)
    emit("table1_agreement.txt", report)

    by_name = {r.uarch_name: r for r in rows}
    counts = [r.n_variants for r in rows]
    # Variant counts grow monotonically across generations.
    assert counts == sorted(counts)
    assert by_name["NHM"].n_variants >= 1000
    assert by_name["SKL"].n_variants > by_name["NHM"].n_variants

    # Kaby Lake and Coffee Lake: no IACA support (dashes in Table 1).
    assert by_name["KBL"].iaca_versions == ()
    assert by_name["CFL"].iaca_versions == ()

    # Agreement bands: the paper reports 91.4-93.3% (µops) and
    # 91.0-98.2% (ports); allow sampling slack around those bands.
    for row in rows:
        if not row.iaca_versions:
            continue
        assert 84.0 <= row.uops_percentage <= 99.5, row.format()
        assert 84.0 <= row.ports_percentage <= 100.0, row.format()

    # The relative ordering signature of Table 1's port column: Sandy
    # Bridge is the best-agreeing generation, Skylake among the worst.
    assert by_name["SNB"].ports_percentage >= \
        by_name["SKL"].ports_percentage
