"""One launch of the end-to-end benchmark: a ``repro sweep`` as a user runs it.

    python benchmarks/e2e/launch.py '<spec as JSON>'

The launch makes the same public-API calls as ``repro.cli._cmd_sweep``:
``load_default_database``, ``SweepEngine(...)``, ``supported_forms``,
``engine.sweep(forms, progress=...)``, then ``results_to_xml`` and
``write_xml``.  Only two things differ from the CLI: the measurement
config may be ``MeasurementConfig.paper()``, and the form list is the
seeded one of :mod:`workloads`.

Spec keys: ``src`` (the checkout's ``src`` directory), ``uarch``,
``config``, ``jobs``, ``seed``, ``size``, ``cache_dir``, ``output`` (the
XML path), ``result`` (where this launch's timing marks and statistics
go), and optionally ``trace_dir`` (install :mod:`trace` and write spans
there), ``setup_only`` (stop once the engine is ready) and
``population`` (sweep every form a seed can pick, to write the
reference XML).  Marks are ``time.monotonic()`` seconds, a system-wide
clock on Linux, so the launching process can subtract the time it
started this one.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def main(spec) -> None:
    marks = {}
    sys.path.insert(0, spec["src"])
    from repro import get_uarch
    from repro.core import xml_output
    from repro.core.cache import ResultCache
    from repro.core.sweep import SweepEngine
    from repro.isa import database as isa_database
    from repro.measure.backend import MeasurementConfig

    import workloads

    marks["imported"] = time.monotonic()
    tracer = None
    if spec.get("trace_dir"):
        import trace

        tracer = trace.install(spec["trace_dir"])

    database = isa_database.load_default_database()
    config = (
        MeasurementConfig.paper() if spec["config"] == "paper"
        else MeasurementConfig()
    )
    engine = SweepEngine(
        get_uarch(spec["uarch"]),
        database,
        config=config,
        jobs=spec["jobs"],
        cache=ResultCache(spec["cache_dir"]),
    )
    supported = engine.supported_forms()
    if spec.get("population"):
        forms = workloads.population(supported, engine.uarch)
    else:
        forms = workloads.seeded_forms(
            supported, engine.uarch, spec["seed"], size=spec["size"]
        )
    marks["ready"] = time.monotonic()

    delivered = []
    stats = {}
    if not spec.get("setup_only"):
        # Progress lines start with the form uid.
        results = engine.sweep(
            forms, progress=lambda line: delivered.append(line.split()[0])
        )
        failures = (
            {engine.uarch.name: engine.failures} if engine.failures else None
        )
        root = xml_output.results_to_xml(
            {engine.uarch.name: results}, database, failures=failures
        )
        xml_output.write_xml(root, spec["output"])
        # The payload `repro sweep --stats-json` writes.
        stats = engine.statistics.as_dict()
        stats["failures"] = [
            engine.failures[uid].as_dict() for uid in sorted(engine.failures)
        ]
    marks["done"] = time.monotonic()

    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    with open(spec["result"], "w", encoding="utf-8") as handle:
        json.dump(
            {
                "marks": marks,
                "delivered": delivered,
                "forms": [form.uid for form in forms],
                "stats": stats,
                "rss_kb": rss_kb,
            },
            handle,
        )
    if tracer is not None:
        tracer.dump()


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
