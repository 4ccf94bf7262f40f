#!/usr/bin/env python3
"""End-to-end benchmark of ``repro sweep``: four workloads, per-layer trace.

Run from the repository root (see README.md for the metric catalog)::

    python benchmarks/e2e/run.py --workload skl-default-cold --seed 0 \\
        --seconds 10 --trace 0
    python benchmarks/e2e/run.py [--seed S] [--trace]   # every workload
    python benchmarks/e2e/run.py --report               # saved traces
    python benchmarks/e2e/run.py --write-references

Each measurement is a *launch*: a fresh ``launch.py`` process doing what
``repro sweep`` does, on an empty cache directory of its own (warm
launches share one cache, filled before timing starts).  A run repeats
launches one after another — a closed loop with a single client — while
the next one still fits in ``--seconds`` (at least one), and reports
medians over them.  ``--trace 1`` alternates untraced and traced
launches and reports the per-layer metrics of :mod:`trace`.

Every metric is printed as ``name value unit``; the last line is the
JSON result ``{"correct", "attempted", "failed", "metrics"}``.  Without
the program (``src/repro``) next to the benchmark, or when a launch
fails, the run exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
import trace
from workloads import FORMS_PER_LAUNCH, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
LAUNCHER = HERE / "launch.py"
#: Scratch space (launch directories, saved traces); git-ignored.
WORK = ROOT / ".bench_e2e"

#: Set-up times per run: short of this many launches, set-up-only
#: launches make up the rest.
MIN_SETUP_SAMPLES = 3
#: Every launch of a run ends within this many seconds of its start.
RUN_DEADLINE = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "forms_per_s": "forms/s",
    "peak_rss_mb": "MB",
    "port_usage_exact_frac": "fraction",
    "latency_exact_frac": "fraction",
    "forms_ok_frac": "fraction",
}


class LaunchError(RuntimeError):
    pass


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_frac", "_ratio")):
        return "fraction"
    if name.endswith("ns_per_cycle"):
        return "ns"
    return "count"


def child_env(tmp: Path):
    """The launch environment: no ``REPRO_*`` overrides, and temporary
    files inside the checkout."""
    env = {
        key: value for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    env["TMPDIR"] = str(tmp)
    return env


class Session:
    """The launch directories of one run; removed when it ends."""

    def __init__(self, name: str, deadline: float = RUN_DEADLINE):
        self.dir = WORK / f"{name}-{os.getpid()}"
        self.deadline = deadline
        shutil.rmtree(self.dir, ignore_errors=True)
        (self.dir / "tmp").mkdir(parents=True)
        self.env = child_env(self.dir / "tmp")
        self.started = time.monotonic()
        self.count = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        shutil.rmtree(self.dir, ignore_errors=True)

    def fresh_dir(self, stem: str) -> Path:
        self.count += 1
        path = self.dir / f"{stem}-{self.count}"
        path.mkdir()
        return path

    def launch(self, spec, trace: bool = False):
        """Run one launch process; returns its result with ``wall``
        (seconds), ``xml`` (text) and the ``launched`` mark added."""
        out = self.fresh_dir("launch")
        spec = dict(
            spec, output=str(out / "out.xml"), result=str(out / "result.json")
        )
        if trace:
            spec["trace_dir"] = str(out / "trace")
        timeout = self.deadline - (time.monotonic() - self.started)
        launched = time.monotonic()
        # A session of its own, so a timeout can stop the drainer
        # processes a queue-mode launch forks, too.
        process = subprocess.Popen(
            [sys.executable, str(LAUNCHER), json.dumps(spec)],
            cwd=ROOT, env=self.env, start_new_session=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            _, stderr = process.communicate(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            raise LaunchError(
                f"launch exceeded the run's {self.deadline:.0f} s"
            ) from None
        finally:
            wall = time.monotonic() - launched
            _stop_group(process)
        if process.returncode != 0:
            raise LaunchError(
                f"launch exited {process.returncode}:\n{stderr[-2000:]}"
            )
        with open(spec["result"], encoding="utf-8") as handle:
            result = json.load(handle)
        result["wall"] = wall
        result["marks"]["launched"] = launched
        result["dir"] = out
        if not spec.get("setup_only"):
            result["xml"] = (out / "out.xml").read_text(encoding="utf-8")
        return result


def _stop_group(process) -> None:
    """Kill whatever is left of a launch's process group and reap it."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass  # the launch and every drainer already exited
    process.wait()


def _check(launch, warm: bool, reference, problems):
    """Failed forms of one launch; run-level problems are appended."""
    forms = launch["forms"]
    failed = set(reference.mismatches(launch["xml"], forms))
    failed.update(record["uid"] for record in launch["stats"]["failures"])
    if warm:
        problems.extend(oracle.warm_violations(launch["stats"]))
    elif sorted(launch["delivered"]) != forms:
        problems.append(
            f"progress reported {len(launch['delivered'])} results for "
            f"{len(forms)} forms"
        )
    return failed


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 size: int):
    """One run of one workload: ``(correct, attempted, failed, metrics,
    problems)`` with metrics as ``{name: value}``."""
    workload = WORKLOADS[name]
    reference = oracle.Reference.load(workload.uarch, workload.config)
    base = {
        "src": str(SRC), "uarch": workload.uarch, "config": workload.config,
        "jobs": workload.jobs, "seed": seed, "size": size,
    }
    problems = []
    with Session(name) as session:
        # Byte-compile once, untimed: users do not pay it on every run.
        compileall.compile_dir(str(SRC), quiet=1)
        compileall.compile_dir(str(HERE), quiet=1, maxlevels=0)
        warm_cache = None
        if workload.warm:
            # Untimed: the cold sweep a user runs before the warm ones.
            warm_cache = session.fresh_dir("cache")
            fill = session.launch(
                dict(base, jobs=2, cache_dir=str(warm_cache))
            )
            if _check(fill, False, reference, problems):
                problems.append("the warm cache fill does not match the "
                                "reference")
        launches, traced_launches = [], []
        attempted = 0
        failed = 0
        started = time.monotonic()
        while True:
            tracing = traced and len(launches) > len(traced_launches)
            cache = warm_cache or session.fresh_dir("cache")
            launch = session.launch(dict(base, cache_dir=str(cache)),
                                    trace=tracing)
            if warm_cache is None:
                shutil.rmtree(cache, ignore_errors=True)
            (traced_launches if tracing else launches).append(launch)
            attempted += len(launch["forms"])
            failed += len(_check(launch, workload.warm, reference, problems))
            elapsed = time.monotonic() - started
            if traced and not traced_launches:
                continue
            if elapsed + launch["wall"] > seconds:
                break
        probes = [] if traced else [
            session.launch(dict(base, setup_only=True,
                                cache_dir=str(session.fresh_dir("cache"))))
            for _ in range(MIN_SETUP_SAMPLES - len(launches))
        ]
        if len({launch["xml"] for launch in launches + traced_launches}) > 1:
            problems.append("launches of one run wrote different XML")
        if traced:
            metrics = layer_metrics(name, launches, traced_launches)
        else:
            metrics = end_to_end_metrics(
                workload, launches, probes, attempted, failed
            )
    correct = not problems and failed == 0
    return correct, attempted, failed, metrics, problems


def _setup_s(launch) -> float:
    return launch["marks"]["ready"] - launch["marks"]["launched"]


def end_to_end_metrics(workload, launches, probes, attempted, failed):
    from repro import get_uarch

    _, ports, latency = oracle.exact_fractions(
        launches[0]["xml"], get_uarch(workload.uarch)
    )
    return {
        "setup_s": statistics.median(map(_setup_s, launches + probes)),
        "wall_s": statistics.median(launch["wall"] for launch in launches),
        # The sweep's own rate: engine ready → XML written, inside the
        # launch, so interpreter start and exit do not dilute it.
        "forms_per_s": statistics.median(
            len(launch["forms"])
            / (launch["marks"]["done"] - launch["marks"]["ready"])
            for launch in launches
        ),
        "peak_rss_mb": max(launch["rss_kb"] for launch in launches) / 1024,
        "port_usage_exact_frac": ports,
        "latency_exact_frac": latency,
        "forms_ok_frac": 1 - failed / attempted,
    }


def layer_metrics(name, launches, traced_launches):
    """Medians of the per-layer metrics over the traced launches; the
    last traced launch's spans are kept for ``--report``."""
    per_launch = [
        trace.summarize(
            trace.load(launch["dir"] / "trace"),
            launch["stats"], launch["marks"],
        )
        for launch in traced_launches
    ]
    metrics = {
        key: statistics.median(values[key] for values in per_launch)
        for key in per_launch[0]
    }
    untraced = statistics.median(launch["wall"] for launch in launches)
    traced_wall = statistics.median(
        launch["wall"] for launch in traced_launches
    )
    metrics["trace.overhead_frac"] = traced_wall / untraced - 1
    saved = WORK / "traces" / name
    shutil.rmtree(saved, ignore_errors=True)
    shutil.copytree(traced_launches[-1]["dir"] / "trace", saved)
    return metrics


def _unit(key: str) -> str:
    name = key.rsplit("/", 1)[-1]  # all-workloads keys: workload/metric
    return END_TO_END_UNITS.get(name) or layer_unit(name)


def emit(correct, attempted, failed, metrics) -> None:
    for key, value in metrics.items():
        print(f"{key} {value:.6g} {_unit(key)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key: {"value": value, "unit": _unit(key)}
            for key, value in metrics.items()
        },
    }))


def write_references() -> None:
    """Sweep each workload config's whole seed population serially and
    store the XML the oracle compares every later launch against."""
    seen = set()
    for name, workload in WORKLOADS.items():
        key = (workload.uarch, workload.config)
        if key in seen:
            continue
        seen.add(key)
        with Session(f"reference-{name}", deadline=900) as session:
            result = session.launch({
                "src": str(SRC), "uarch": workload.uarch,
                "config": workload.config, "jobs": 1, "seed": 0, "size": 0,
                "population": True,
                "cache_dir": str(session.fresh_dir("cache")),
            })
        path = oracle.reference_path(*key)
        path.parent.mkdir(exist_ok=True)
        path.write_text(result["xml"], encoding="utf-8")
        print(f"wrote {len(result['forms'])} forms to {path}")


def print_report(trace_dir: Path) -> int:
    directories = sorted(
        path for path in trace_dir.glob("*") if path.is_dir()
    )
    if not directories:
        print(f"run.py: no saved traces under {trace_dir} (run a workload "
              "with --trace 1 first)", file=sys.stderr)
        return 1
    for directory in directories:
        print(f"== {directory.name}")
        print(trace.report(str(directory)))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--forms", type=int, default=FORMS_PER_LAUNCH,
                        help="forms per launch (1..%(default)s; fewer "
                             "for a smoke test)")
    parser.add_argument("--report", nargs="?", const=str(WORK / "traces"),
                        metavar="DIR",
                        help="print the per-layer tables of saved traces")
    parser.add_argument("--write-references", action="store_true")
    args = parser.parse_args(argv)
    if args.report:
        return print_report(Path(args.report))
    if args.write_references:
        write_references()
        return 0
    if not 1 <= args.forms <= FORMS_PER_LAUNCH:
        parser.error(f"--forms must lie in 1..{FORMS_PER_LAUNCH}")
    names = [args.workload] if args.workload else list(WORKLOADS)
    total = [True, 0, 0, {}]
    for name in names:
        correct, attempted, failed, metrics, problems = run_workload(
            name, args.seed, args.seconds, bool(args.trace), args.forms
        )
        for problem in problems:
            print(f"{name}: {problem}", file=sys.stderr)
        if args.workload:
            emit(correct, attempted, failed, metrics)
            return 0
        total[0] &= correct
        total[1] += attempted
        total[2] += failed
        total[3].update(
            {f"{name}/{key}": value for key, value in metrics.items()}
        )
    emit(*total)
    return 0


if __name__ == "__main__":
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no program to benchmark: {SRC / 'repro'} is missing",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    # Launches run in sessions of their own; turning SIGTERM into an
    # exit lets the cleanup in Session.launch stop them too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        raise SystemExit(main())
    except LaunchError as error:
        print(f"run.py: {error}", file=sys.stderr)
        raise SystemExit(1)
