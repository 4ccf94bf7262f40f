"""Tests of the end-to-end benchmark itself.

    PYTHONPATH=src python -m pytest benchmarks/e2e

The smoke and CLI-parity tests launch real sweeps (about a minute and
two minutes); ``-m "not slow"`` skips them.
"""

from __future__ import annotations

import filecmp
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import oracle
import run
import trace
import workloads

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


# -- percentiles ---------------------------------------------------------


@pytest.mark.parametrize("n, expected", [
    (40, 75), (99, 75), (100, 90), (109, 90), (128, 90), (200, 95),
    (1000, 99), (20, 50), (19, None),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert trace.tail_percentile(n) == expected


def test_percentile_interpolates():
    assert trace.percentile([4, 1, 3, 2], 50) == 2.5
    assert trace.percentile([1, 2, 3, 4, 5], 75) == 4
    assert trace.percentile([7], 90) == 7


def test_forms_per_launch_leave_ten_beyond_p75():
    assert trace.tail_percentile(workloads.FORMS_PER_LAUNCH) >= 75


# -- self time -----------------------------------------------------------


def _span(name, start, end, parent, uid=None):
    return [name, start, end, parent, uid]


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("sweep.sweep", 0, 100, -1),
        _span("runner.characterize", 10, 40, 0, "A"),
        _span("rename.rename_block", 15, 25, 1, "A"),
        _span("runner.characterize", 50, 90, 0, "B"),
    ]
    assert trace.self_times(spans) == [30, 20, 10, 40]
    assert sum(trace.self_times(spans)) == 100


def test_fold_sums_layers_across_processes():
    main = {"role": "main", "pid": 1, "started": 0, "ended": 100,
            "counters": {"rename.uops": 5},
            "spans": [_span("sweep.sweep", 0, 100, -1),
                      _span("runner.characterize", 0, 60, 0, "A")]}
    drainer = {"role": "drainer", "pid": 2, "started": 0, "ended": 50,
               "counters": {"rename.uops": 7},
               "spans": [_span("runner.characterize", 0, 30, -1, "B"),
                         _span("rename.rename_block", 5, 25, 0, "B")]}
    self_ns, calls, counters, forms = trace.fold([main, drainer])
    assert self_ns == {"sweep.sweep": 40, "runner.characterize": 70,
                       "rename.rename_block": 20}
    assert calls["runner.characterize"] == 2
    assert counters["rename.uops"] == 12
    assert forms == {"A": 60, "B": 30}


def test_child_spans_inherit_the_form_uid():
    tracer = trace.Tracer("unused")
    outer = tracer.open("runner.characterize", "ADD_R64_R64")
    inner = tracer.open("rename.rename_block")
    tracer.close(inner)
    tracer.close(outer)
    assert [span[4] for span in tracer.spans] == ["ADD_R64_R64"] * 2
    assert tracer.spans[1][3] == outer


# -- rung attribution ----------------------------------------------------


def test_rung_attribution_on_the_real_ladder(tmp_path):
    from repro import get_uarch
    from repro.core.codegen import instantiate
    from repro.isa.database import load_default_database
    from repro.measure import extrapolate
    from repro.pipeline.core import Core

    database = load_default_database()
    uarch = get_uarch("SKL")
    add = instantiate(database.by_uid("ADD_R64_R64"))
    div = instantiate(database.by_uid("DIV_R32"))
    tracer = trace.install(str(tmp_path))
    try:
        extrapolate.unrolled_counters(Core(uarch), [add], None, (5, 25))
        extrapolate.unrolled_counters(Core(uarch), [div], None, (5, 25))
        extrapolate.unrolled_counters(
            Core(uarch, kernel="analytic"), [add], None, (5, 25)
        )
    finally:
        tracer.uninstall()
    counters = tracer.counters
    assert counters["extrapolate.calls"] == 3
    assert counters["extrapolate.rung_probe"] == 1
    assert counters["extrapolate.rung_full"] == 1
    assert counters["extrapolate.rung_analytic"] == 1
    assert counters["extrapolate.probe_copies"] >= extrapolate.MIN_PROBE
    assert counters["timing.cycles_simulated"] > 0
    assert counters["rename.evaluate_calls"] > 0
    assert not tracer.missing
    assert extrapolate.unrolled_counters.__name__ == "unrolled_counters"
    assert not hasattr(extrapolate.unrolled_counters, "__wrapped__")


# -- metric names --------------------------------------------------------


def _layer_metric_names():
    empty = {"role": "main", "pid": 1, "started": 0, "ended": 1,
             "spans": [], "counters": {}}
    marks = {"launched": 0.0, "imported": 0.5, "done": 1.0}
    return list(trace.summarize([empty], {}, marks)) + [
        "trace.overhead_frac"
    ]


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = [metric["name"] for metric in spec["end_to_end"]]
    per_layer = [metric["name"] for metric in spec["per_layer"]]
    assert end_to_end == list(run.END_TO_END_UNITS)
    assert per_layer == _layer_metric_names()
    for metric in spec["end_to_end"]:
        assert metric["unit"] == run.END_TO_END_UNITS[metric["name"]]
    for metric in spec["per_layer"]:
        assert metric["unit"] == run.layer_unit(metric["name"])
    for name in end_to_end + per_layer:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


# -- sampler and oracle --------------------------------------------------


@pytest.fixture(scope="module", params=["SKL", "NHM"])
def supported(request):
    from repro import get_uarch
    from repro.core.sweep import SweepEngine

    engine = SweepEngine(get_uarch(request.param))
    return engine.supported_forms(), engine.uarch


def test_seeds_are_deterministic_subsets_of_the_population(supported):
    forms, uarch = supported
    population = {form.uid for form in workloads.population(forms, uarch)}
    for seed in (0, 1, 7):
        picks = workloads.seeded_forms(forms, uarch, seed)
        assert picks == workloads.seeded_forms(forms, uarch, seed)
        assert len({form.uid for form in picks}) == workloads.FORMS_PER_LAUNCH
        assert {form.uid for form in picks} <= population
        small = workloads.seeded_forms(forms, uarch, seed, size=6)
        assert set(small) <= set(picks)


def test_seed_zero_of_the_full_sample_is_the_cli_sample(supported):
    from repro.analysis.sampling import stratified_sample

    forms, uarch = supported
    assert workloads.seeded_forms(forms, uarch, 0, size=0) == sorted(
        stratified_sample(forms, workloads.SAMPLE_TARGET),
        key=lambda form: form.uid,
    )


def test_references_cover_the_population(supported):
    forms, uarch = supported
    config = {"SKL": "default", "NHM": "paper"}[uarch.name]
    text = oracle.reference_path(uarch.name, config).read_text()
    reference = oracle.Reference(text)
    uids = [form.uid for form in workloads.population(forms, uarch)]
    assert sorted(reference.blocks) == uids
    assert reference.expected(uids) == text


def test_mismatches_name_the_differing_form():
    text = oracle.reference_path("SKL", "default").read_text()
    reference = oracle.Reference(text)
    uids = sorted(reference.blocks)[:3]
    good = reference.expected(uids)
    assert reference.mismatches(good, uids) == []
    bad = good.replace(reference.blocks[uids[1]], "")
    assert reference.mismatches(bad, uids) == [uids[1]]


def test_reference_agrees_with_ground_truth():
    from repro import get_uarch

    for uarch, config in (("SKL", "default"), ("NHM", "paper")):
        text = oracle.reference_path(uarch, config).read_text()
        counts, ports, latency = oracle.exact_fractions(
            text, get_uarch(uarch)
        )
        assert counts["ports"] > 100 and counts["latency"] > 20
        assert ports > 0.95 and latency > 0.95, (uarch, counts)


# -- launches ------------------------------------------------------------


def _run(*args, timeout=600):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=timeout,
    )


@pytest.mark.slow
def test_smoke_every_workload_prints_every_metric():
    done = _run("--forms", "6", "--seconds", "1")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    expected = {
        f"{workload}/{name}"
        for workload in workloads.WORKLOADS
        for name in run.END_TO_END_UNITS
    }
    assert set(result["metrics"]) == expected
    for key, metric in result["metrics"].items():
        assert f"{key} " in done.stdout
        assert metric["unit"] == run.END_TO_END_UNITS[key.split("/")[1]]
        assert metric["value"] > 0, key


@pytest.mark.slow
def test_smoke_trace_covers_drainers():
    done = _run("--workload", "skl-default-queue2", "--forms", "6",
                "--seconds", "1", "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    metrics = {key: m["value"] for key, m in result["metrics"].items()}
    assert set(metrics) == set(_layer_metric_names())
    assert metrics["workqueue.leases"] >= 6
    assert 0 < metrics["workqueue.drainer_busy_frac"] <= 1
    assert metrics["rename.calls"] > 0
    report = _run("--report")
    assert "skl-default-queue2" in report.stdout
    assert "slowest of 6 forms" in report.stdout


@pytest.mark.slow
def test_launch_runs_the_cli_path(tmp_path):
    """Seed 0 of the whole sample is byte-identical to ``repro sweep``."""
    launch_xml = tmp_path / "launch.xml"
    spec = {
        "src": str(ROOT / "src"), "uarch": "SKL", "config": "default",
        "jobs": 1, "seed": 0, "size": 0,
        "cache_dir": str(tmp_path / "launch-cache"),
        "output": str(launch_xml), "result": str(tmp_path / "result.json"),
    }
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    subprocess.run([sys.executable, str(HERE / "launch.py"),
                    json.dumps(spec)], check=True, env=env, timeout=600)
    cli_xml = tmp_path / "cli.xml"
    env["PYTHONPATH"] = str(ROOT / "src")
    subprocess.run(
        [sys.executable, "-m", "repro", "sweep", "SKL",
         "--sample", str(workloads.SAMPLE_TARGET),
         "--cache-dir", str(tmp_path / "cli-cache"),
         "--output", str(cli_xml)],
        check=True, env=env, timeout=600, capture_output=True,
    )
    assert filecmp.cmp(launch_xml, cli_xml, shallow=False)


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    bench = tmp_path / "benchmarks" / "e2e"
    bench.mkdir(parents=True)
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    done = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload",
         "skl-default-cold", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert done.returncode != 0
    assert done.stdout == ""
