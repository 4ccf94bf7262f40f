"""Outside-in tracer for the end-to-end sweep benchmark.

The program under test is never edited: :func:`install` wraps public
functions and methods of :mod:`repro` in place — a module-level function
is replaced in *every* loaded module that holds it (``from x import f``
copies included), a method or property on its class — so each call opens
a span ``(name, start, end, parent, form uid)``.  The span name's prefix
is the layer (``rename``, ``timing``, ``extrapolate``, ...).  Per-call
work that is too fine-grained for spans (``pipeline.core.evaluate``, two
million calls on a cold sweep) is timed into aggregate counters instead.

Spans stay in memory and are written as one JSON file per process when
it ends: the launching process calls :meth:`Tracer.dump`, and queue-mode
drainer processes forked from it flush through a
``multiprocessing.util`` after-fork hook that resets the inherited
buffer and registers an exit finalizer.  Only the thread that installed
the tracer (or the forked child's main thread) records; calls from other
threads, such as a drainer's lease heartbeat, pass through untraced.

:func:`summarize` folds the files of one launch into per-layer metrics:
a span's *self time* is its duration minus the time its child spans
cover, and a layer's self time is the sum over its spans, across
processes.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import sys
import threading
import time
from collections import defaultdict
from multiprocessing import util as mp_util

#: Wrapped callables: ``(span name, module, attribute path)``.  An
#: attribute path ``Class.method`` wraps a method (or property getter).
SPANS = (
    ("setup.database", "repro.isa.database", "load_default_database"),
    ("setup.supported_forms", "repro.core.sweep",
     "SweepEngine.supported_forms"),
    ("sweep.sweep", "repro.core.sweep", "SweepEngine.sweep"),
    ("runner.characterize", "repro.core.runner",
     "CharacterizationRunner.characterize"),
    ("runner.blocking", "repro.core.runner",
     "CharacterizationRunner.blocking"),
    ("executor.drive", "repro.measure.executor",
     "ExperimentExecutor.drive"),
    ("executor.execute", "repro.measure.executor",
     "ExperimentExecutor.execute"),
    ("backend.measure", "repro.measure.backend", "HardwareBackend.measure"),
    ("backend.measure_many", "repro.measure.backend",
     "HardwareBackend.measure_many"),
    ("extrapolate.unrolled_counters", "repro.measure.extrapolate",
     "unrolled_counters"),
    ("core.run", "repro.pipeline.core", "Core.run"),
    ("core.run_instrumented", "repro.pipeline.core",
     "Core.run_instrumented"),
    ("rename.rename_block", "repro.pipeline.core", "Core.rename_block"),
    ("timing.event", "repro.pipeline.event_kernel", "timing_event"),
    ("timing.event", "repro.pipeline.event_kernel", "timing_event_arrays"),
    ("timing.analytic", "repro.pipeline.analytic", "schedule_analytic"),
    ("timing.analytic", "repro.pipeline.analytic", "schedule_arrays"),
    ("cache.result_get", "repro.core.cache", "ResultCache.get"),
    ("cache.result_put", "repro.core.cache", "ResultCache.put"),
    ("cache.memo_get", "repro.core.cache", "MeasurementMemo.get"),
    ("cache.memo_put", "repro.core.cache", "MeasurementMemo.put"),
    ("journal.append", "repro.core.journal", "append_entry"),
    ("journal.scan", "repro.core.journal", "scan_journal"),
    ("journal.publish", "repro.core.journal", "publish_blob"),
    ("manifest.update", "repro.core.cache", "SweepManifest.update"),
    ("manifest.fingerprint", "repro.core.cache", "form_fingerprint"),
    ("manifest.fingerprint", "repro.core.cache", "catalog_context_digest"),
    ("workqueue.enqueue", "repro.core.workqueue", "WorkQueue.enqueue"),
    ("workqueue.lease", "repro.core.workqueue", "WorkQueue.lease"),
    ("workqueue.deposit", "repro.core.workqueue", "WorkQueue.deposit"),
    ("workqueue.fail", "repro.core.workqueue", "WorkQueue.fail"),
    ("workqueue.poll", "repro.core.workqueue", "WorkQueue.outstanding"),
    ("workqueue.poll", "repro.core.workqueue", "WorkQueue.counters"),
    ("workqueue.poll", "repro.core.workqueue", "WorkQueue.snapshot"),
    ("workqueue.expire", "repro.core.workqueue", "WorkQueue.expire_owner"),
    ("output.results_to_xml", "repro.core.xml_output", "results_to_xml"),
    ("output.write_xml", "repro.core.xml_output", "write_xml"),
)

#: Per-instruction functions timed into ``<name>_calls`` / ``<name>_ns``
#: counters without spans.
COUNTED = (
    ("rename.evaluate", "repro.pipeline.semantics", "evaluate"),
)

_now = time.monotonic_ns


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Span buffer of one process (see the module docstring)."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self._patches = []
        #: ``id(function) -> (function, wrapper)`` awaiting
        #: :meth:`replace_functions`.
        self._functions = {}
        #: Wrap targets the program does not define.
        self.missing = []
        self._reset("main")

    def _reset(self, role: str) -> None:
        self.role = role
        self.pid = os.getpid()
        self.thread = threading.get_ident()
        self.started = _now()
        #: ``[name, start_ns, end_ns, parent index, form uid]`` per span.
        self.spans = []
        self.stack = []
        self.counters = defaultdict(int)
        #: Open :func:`unrolled_counters` calls: ``[probe copies, full
        #: simulations]`` seen among their children.
        self.rungs = []

    # -- recording -----------------------------------------------------

    def open(self, name: str, uid=None) -> int:
        parent = self.stack[-1] if self.stack else -1
        if uid is None and parent >= 0:
            uid = self.spans[parent][4]
        index = len(self.spans)
        self.spans.append([name, _now(), 0, parent, uid])
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = _now()
        self.stack.pop()

    def inside(self, prefix: str) -> bool:
        """Whether the innermost open span belongs to *prefix*."""
        return bool(self.stack) and self.spans[self.stack[-1]][0].startswith(
            prefix
        )

    def dump(self) -> None:
        """Write this process's spans and counters."""
        os.makedirs(self.out_dir, exist_ok=True)
        payload = {
            "pid": self.pid,
            "role": self.role,
            "started": self.started,
            "ended": _now(),
            "spans": self.spans,
            "counters": dict(self.counters),
            "missing": self.missing,
        }
        path = os.path.join(self.out_dir, f"trace.{self.pid}.json")
        with open(path + ".tmp", "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        os.replace(path + ".tmp", path)

    def _after_fork(self) -> None:
        self._reset("drainer")
        mp_util.Finalize(None, self.dump, exitpriority=100)

    # -- wrapping ------------------------------------------------------

    def span_wrapper(self, fn, name, uid_of=None, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != tracer.thread:
                return fn(*args, **kwargs)
            state = before(tracer, args, kwargs) if before else None
            index = tracer.open(name, uid_of(args) if uid_of else None)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer.close(index)
                if after is not None:
                    # Also on an exception (result None), so the hook's
                    # bookkeeping — the rung stack — stays balanced.
                    after(tracer, args, kwargs, result, state)

        return wrapper

    def counted_wrapper(self, fn, name):
        tracer = self
        calls, total = f"{name}_calls", f"{name}_ns"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                counters = tracer.counters  # replaced in forked drainers
                counters[calls] += 1
                counters[total] += _now() - started

        return wrapper

    def patch(self, module_name: str, path: str, make) -> None:
        """Replace the callable at *module_name*.*path* by ``make(fn)``.

        A target the program no longer has is listed in ``missing``
        (its layer then reads zero) instead of failing the launch.
        """
        try:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = (
                owner.__dict__[attr] if outer else getattr(owner, attr)
            )
        except (ImportError, AttributeError, KeyError):
            self.missing.append(f"{module_name}.{path}")
            return
        if isinstance(original, property):
            replacement = property(make(original.fget))
            self._set(owner, attr, replacement)
            return
        if outer:
            self._set(owner, attr, make(original))
            return
        self._functions[id(original)] = (original, make(original))

    def replace_functions(self) -> None:
        """Swap the functions :meth:`patch` wrapped in every loaded
        module holding them, in one pass over all namespaces."""
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not namespace:
                continue
            for key, value in list(namespace.items()):
                entry = self._functions.get(id(value))
                if entry is not None and entry[0] is value:
                    self._set(module, key, entry[1])

    def _set(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


# -- per-span hooks ------------------------------------------------------


def _form_uid(args):
    return getattr(args[1], "uid", None)


def _rename_before(tracer, args, kwargs):
    return len(args[2].uops)


def _rename_after(tracer, args, kwargs, result, before):
    tracer.counters["rename.uops"] += len(args[2].uops) - before


def _timing_after(kind):
    def after(tracer, args, kwargs, result, state):
        # timing_event calls timing_event_arrays: count the outer span.
        if result is not None and not tracer.inside("timing."):
            tracer.counters[f"timing.cycles_{kind}"] += int(result[0])

    return after


def _rung_before(tracer, args, kwargs):
    tracer.rungs.append([0, 0])


def _rung_after(tracer, args, kwargs, result, state):
    probe_copies, full = tracer.rungs.pop()
    counters = tracer.counters
    counters["extrapolate.calls"] += 1
    counters["extrapolate.probe_copies"] += probe_copies
    if full:
        counters["extrapolate.rung_full"] += 1
    elif probe_copies:
        counters["extrapolate.rung_probe"] += 1
    else:
        counters["extrapolate.rung_analytic"] += 1


def _run_after(tracer, args, kwargs, result, state):
    if tracer.rungs:
        tracer.rungs[-1][1] += 1


def _probe_after(tracer, args, kwargs, result, state):
    if tracer.rungs:
        tracer.rungs[-1][0] += args[2] if len(args) > 2 else kwargs["copies"]


def _measure_many_after(tracer, args, kwargs, result, state):
    tracer.counters["backend.measure_calls"] += len(args[1])


def _measure_after(tracer, args, kwargs, result, state):
    tracer.counters["backend.measure_calls"] += 1


def _lease_after(tracer, args, kwargs, result, state):
    tracer.counters["workqueue.leases"] += len(result or ())
    if not result:
        tracer.counters["workqueue.empty_leases"] += 1


def _flock_after(tracer, args, kwargs, result, state):
    if kwargs.get("name") == "queue":
        tracer.counters["workqueue.lock_retries"] += result[1]


_HOOKS = {
    "runner.characterize": {"uid_of": _form_uid},
    "rename.rename_block": {"before": _rename_before,
                            "after": _rename_after},
    "timing.event": {"after": _timing_after("simulated")},
    "timing.analytic": {"after": _timing_after("analytic")},
    "extrapolate.unrolled_counters": {"before": _rung_before,
                                      "after": _rung_after},
    "core.run": {"after": _run_after},
    "core.run_instrumented": {"after": _probe_after},
    "backend.measure": {"after": _measure_after},
    "backend.measure_many": {"after": _measure_many_after},
    "workqueue.lease": {"after": _lease_after},
}

def install(out_dir: str) -> Tracer:
    """Wrap every callable in :data:`SPANS` and :data:`COUNTED`.

    The tracer records from the calling thread of this process and of
    every process forked later; keep it referenced, since the after-fork
    registry holds it weakly.
    """
    tracer = Tracer(out_dir)
    for name, module, path in SPANS:
        hooks = _HOOKS.get(name, {})
        tracer.patch(
            module, path,
            lambda fn, name=name, hooks=hooks: tracer.span_wrapper(
                fn, name, **hooks
            ),
        )
    for name, module, path in COUNTED:
        tracer.patch(
            module, path,
            lambda fn, name=name: tracer.counted_wrapper(fn, name),
        )
    # Lock retries only: no span, so the lock wait stays in its caller.
    tracer.patch(
        "repro.core.journal", "flock_bounded",
        lambda fn: _observer(tracer, fn, _flock_after),
    )
    tracer.replace_functions()
    mp_util.register_after_fork(tracer, Tracer._after_fork)
    return tracer


def _observer(tracer, fn, after):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        if threading.get_ident() == tracer.thread:
            after(tracer, args, kwargs, result, None)
        return result

    return wrapper


# -- folding -------------------------------------------------------------


def self_times(spans):
    """Self time (ns) of every span: duration minus its children's."""
    covered = [0] * len(spans)
    for _name, start, end, parent, _uid in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [
        (end - start) - covered[i]
        for i, (_name, start, end, _parent, _uid) in enumerate(spans)
    ]


def load(trace_dir: str):
    """Every process's trace file in *trace_dir*, main process first."""
    traces = []
    for entry in sorted(os.listdir(trace_dir)):
        if entry.startswith("trace.") and entry.endswith(".json"):
            with open(os.path.join(trace_dir, entry), encoding="utf-8") as f:
                traces.append(json.load(f))
    traces.sort(key=lambda t: (t["role"] != "main", t["pid"]))
    if not traces or traces[0]["role"] != "main":
        raise ValueError(f"no main-process trace in {trace_dir}")
    return traces


def fold(traces):
    """Per-span-name self time and call count, and summed counters."""
    self_ns = defaultdict(int)
    calls = defaultdict(int)
    counters = defaultdict(int)
    forms = defaultdict(int)
    for trace in traces:
        spans = trace["spans"]
        for span, own in zip(spans, self_times(spans)):
            self_ns[span[0]] += own
            calls[span[0]] += 1
            if span[0] == "runner.characterize":
                forms[span[4]] += span[2] - span[1]
        for key, value in trace["counters"].items():
            counters[key] += value
    return self_ns, calls, counters, forms


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile (``p`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = (len(ordered) - 1) * p / 100
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(n: int, candidates=(99.9, 99, 95, 90, 75, 50)):
    """The highest candidate percentile with at least ten of *n*
    samples beyond it (``None`` when even the median has fewer)."""
    for p in candidates:
        if n * (100 - p) / 100 >= 10:
            return p
    return None


def _first_duration(spans, name) -> float:
    for span in spans:
        if span[0] == name:
            return (span[2] - span[1]) / 1e9
    return 0.0


def _layer_seconds(self_ns, layer: str) -> float:
    return sum(
        ns for name, ns in self_ns.items() if layer_of(name) == layer
    ) / 1e9


def summarize(traces, stats, marks):
    """Per-layer metrics of one traced launch.

    *stats* is the launch's ``--stats-json`` payload (the engine's
    counters), *marks* the launch's monotonic time marks (seconds).
    """
    self_ns, calls, counters, forms = fold(traces)
    form_ms = [ns / 1e6 for ns in forms.values()] or [0.0]
    main = traces[0]
    layer = functools.partial(_layer_seconds, self_ns)

    def seconds(name):
        return self_ns.get(name, 0) / 1e9

    planned = stats.get("experiments_planned", 0)
    memo_lookups = stats.get("memo_hits", 0) + stats.get("memo_misses", 0)
    cycles = counters.get("timing.cycles_simulated", 0)
    event_s = seconds("timing.event")
    drainers = [t for t in traces if t["role"] == "drainer"]
    drainer_life = sum(t["ended"] - t["started"] for t in drainers)
    drainer_busy = sum(
        span[2] - span[1]
        for t in drainers
        for span in t["spans"]
        if span[0] == "runner.characterize"
    )
    return {
        "setup.import_s": marks["imported"] - marks["launched"],
        "setup.database_s": _first_duration(main["spans"], "setup.database"),
        "setup.supported_forms_s": _first_duration(
            main["spans"], "setup.supported_forms"
        ),
        "sweep.self_s": layer("sweep"),
        "runner.blocking_s": _first_duration(
            main["spans"], "runner.blocking"
        ),
        "runner.self_s": layer("runner"),
        # Per-form characterization latency; the first form also pays
        # the blocking-instruction discovery.
        "runner.form_p50_ms": percentile(form_ms, 50),
        "runner.form_p75_ms": percentile(form_ms, 75),
        "executor.plan_self_s": seconds("executor.drive"),
        "executor.dedup_ratio": (
            stats.get("experiments_deduped", 0) / planned if planned else 0.0
        ),
        "executor.experiments_measured": stats.get("experiments_measured", 0),
        "backend.self_s": layer("backend"),
        "backend.measure_calls": counters.get("backend.measure_calls", 0),
        "backend.memo_hit_ratio": (
            stats.get("memo_hits", 0) / memo_lookups if memo_lookups else 0.0
        ),
        "extrapolate.self_s": layer("extrapolate"),
        "extrapolate.calls": counters.get("extrapolate.calls", 0),
        "extrapolate.rung_analytic": counters.get(
            "extrapolate.rung_analytic", 0
        ),
        "extrapolate.rung_probe": counters.get("extrapolate.rung_probe", 0),
        "extrapolate.rung_full": counters.get("extrapolate.rung_full", 0),
        "extrapolate.probe_copies": counters.get(
            "extrapolate.probe_copies", 0
        ),
        "extrapolate.runs_extrapolated": stats.get("runs_extrapolated", 0),
        "core.self_s": layer("core"),
        "rename.self_s": layer("rename"),
        "rename.calls": calls.get("rename.rename_block", 0),
        "rename.uops": counters.get("rename.uops", 0),
        "rename.evaluate_calls": counters.get("rename.evaluate_calls", 0),
        "rename.evaluate_s": counters.get("rename.evaluate_ns", 0) / 1e9,
        "timing.event_s": event_s,
        "timing.analytic_s": seconds("timing.analytic"),
        "timing.cycles_simulated": cycles,
        "timing.cycles_analytic": counters.get("timing.cycles_analytic", 0),
        "timing.ns_per_cycle": event_s * 1e9 / cycles if cycles else 0.0,
        "cache.self_s": layer("cache"),
        "cache.hits": stats.get("cache_hits", 0),
        "cache.misses": stats.get("cache_misses", 0),
        "journal.self_s": layer("journal"),
        "journal.appends": calls.get("journal.append", 0),
        "journal.scans": calls.get("journal.scan", 0),
        "manifest.self_s": layer("manifest"),
        "workqueue.self_s": layer("workqueue"),
        "workqueue.leases": counters.get("workqueue.leases", 0),
        "workqueue.empty_leases": counters.get("workqueue.empty_leases", 0),
        "workqueue.lock_retries": counters.get("workqueue.lock_retries", 0),
        "workqueue.drainer_busy_frac": (
            drainer_busy / drainer_life if drainer_life else 0.0
        ),
        "output.self_s": layer("output"),
        "trace.unattributed_frac": unattributed_frac(main, marks),
    }


def unattributed_frac(main, marks) -> float:
    """Share of the main process's traced time (import done → exit
    mark) that no span covers: launch glue the layers do not see."""
    total = marks["done"] - marks["imported"]
    covered = sum(self_times(main["spans"])) / 1e9
    return (total - covered) / total if total > 0 else 0.0


def report(trace_dir: str, slowest: int = 10) -> str:
    """The per-layer self-time table and the slowest forms of a trace."""
    traces = load(trace_dir)
    self_ns, calls, counters, forms = fold(traces)
    total = sum(self_ns.values()) or 1
    layers = defaultdict(int)
    for name, ns in self_ns.items():
        layers[layer_of(name)] += ns
    lines = [
        f"{len(traces)} process(es); self time by layer "
        f"(total {total / 1e9:.2f} s):",
    ]
    if traces[0]["missing"]:
        lines.insert(0, "not traced, absent from the program: "
                     + ", ".join(traces[0]["missing"]))
    for name, ns in sorted(layers.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {name:12s} {ns / 1e9:9.3f} s  {100 * ns / total:5.1f}%")
    lines.append("self time by span:")
    for name, ns in sorted(self_ns.items(), key=lambda kv: -kv[1]):
        lines.append(
            f"  {name:32s} {ns / 1e9:9.3f} s  {calls[name]:9d} calls"
        )
    evaluate = counters.get("rename.evaluate_ns", 0)
    lines.append(
        f"  (rename.evaluate, inside rename: {evaluate / 1e9:.3f} s over "
        f"{counters.get('rename.evaluate_calls', 0)} calls)"
    )
    lines.append(
        "ladder rungs: "
        + ", ".join(
            f"{rung} {counters.get(f'extrapolate.rung_{rung}', 0)}"
            for rung in ("analytic", "probe", "full")
        )
        + f"; {counters.get('extrapolate.probe_copies', 0)} probe copies"
    )
    ranked = sorted(forms.items(), key=lambda kv: -kv[1])[:slowest]
    if ranked:
        form_ms = [ns / 1e6 for ns in forms.values()]
        tail = tail_percentile(len(form_ms))
        spread = (
            f", p{tail:g} {percentile(form_ms, tail):.1f} ms" if tail else ""
        )
        lines.append(
            f"{len(ranked)} slowest of {len(forms)} forms (median "
            f"{statistics.median(form_ms):.1f} ms{spread}):"
        )
        for uid, ns in ranked:
            lines.append(f"  {uid:40s} {ns / 1e6:9.1f} ms")
    return "\n".join(lines)
