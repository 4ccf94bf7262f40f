"""Command-line interface: ``python -m repro <command> ...``.

Commands mirror the workflows of the paper:

* ``characterize FORM [UARCH]``    — one variant, full report,
* ``sweep [UARCH] [--sample N] [--jobs N] [--cache-dir D | --no-cache]``
  — many variants → XML (Section 6.4), parallelized through a shared
  work queue of content-keyed units next to the persistent result
  cache; ``--enqueue-only`` / ``--drain`` split the coordinator and
  worker roles across processes (or machines sharing the cache
  directory), and ``--incremental`` re-measures only forms whose input
  fingerprints changed since the last recorded sweep,
* ``table1 [--sample N]``          — regenerate Table 1 (same flags),
* ``cache gc``                     — compact the cache stores: drop
  orphaned/stale/superseded entries and drained work queues (refuses
  under live drainer leases; ``--force`` overrides),
* ``doctor [--repair]``            — scan every persistent store for
  crash damage (torn tails, CRC failures, orphaned leases, stale
  locks, manifest/cache disagreement) and optionally repair it,
* ``case-studies``                 — all Section 7.3 case studies,
* ``list [MNEMONIC]``              — catalog queries,
* ``analyze FILE [UARCH]``         — predict a loop kernel's performance,
* ``lint [PATHS]``                 — the repo's own invariant checker
  (:mod:`repro.lint`): one serial pass of AST code-contract rules.

Exit codes are uniform: 0 on success, 1 on findings or user errors
(including a consumer closing our stdout mid-print), 2 on internal
errors.  ``sweep --strict`` adds exit 3: the sweep itself succeeded
but some forms were quarantined — distinct from both "clean" and
"broken invocation" so CI cannot silently pass on a partial sweep.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional


def _cmd_characterize(args) -> int:
    from repro import characterize

    result = characterize(args.form, args.uarch)
    print(result.summary())
    if result.latency is not None:
        for (src, dst), value in sorted(result.latency.pairs.items()):
            chain = f" (chain: {value.chain})" if value.chain else ""
            print(f"  lat({src} -> {dst}) = {value}{chain}")
        for (src, dst), value in sorted(
            result.latency.same_register.items()
        ):
            print(f"  lat({src} -> {dst}) [same register] = {value}")
        for (src, dst), value in sorted(
            result.latency.fast_values.items()
        ):
            print(f"  lat({src} -> {dst}) [fast values] = {value}")
    if result.throughput is not None:
        throughput = result.throughput
        print(f"  throughput (measured) = {throughput.measured:.2f}")
        if throughput.computed_from_ports is not None:
            print(
                "  throughput (from port usage) = "
                f"{throughput.computed_from_ports:.2f}"
            )
    return 0


def _make_cache(args):
    """A ResultCache from --cache-dir/--no-cache flags, or None."""
    if getattr(args, "no_cache", False):
        return None
    from repro.core.cache import ResultCache

    try:
        return ResultCache(args.cache_dir)
    except NotADirectoryError as exc:
        raise SystemExit(f"error: {exc}")


def _print_cache_stats(statistics) -> None:
    """The stderr summary, generated from the counter record: one line
    per row its fields declare, ``name value`` pairs in declaration
    order, floats to one decimal."""
    from dataclasses import fields

    rows = {}
    for spec in fields(statistics):
        value = getattr(statistics, spec.name)
        text = f"{value:.1f}" if isinstance(value, float) else value
        rows.setdefault(spec.metadata["row"], []).append(
            f"{spec.name} {text}"
        )
    for row, pairs in rows.items():
        print(f"{row}: {', '.join(pairs)}", file=sys.stderr)


def _write_stats_json(statistics, path: Optional[str],
                      failures=None) -> None:
    """Dump one or many :class:`RunStatistics` to *path* as JSON.

    *statistics* is either a single statistics object (``sweep``) or a
    dict of them keyed by microarchitecture name (``table1``).
    *failures* is an optional ``{uid: FormFailure}`` of quarantined
    forms, serialized under a ``"failures"`` key (``sweep`` only).
    """
    if not path:
        return
    import json

    if isinstance(statistics, dict):
        payload = {
            name: stats.as_dict() for name, stats in statistics.items()
        }
    else:
        payload = statistics.as_dict()
        if failures:
            payload["failures"] = [
                failures[uid].as_dict() for uid in sorted(failures)
            ]
    try:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    except OSError as exc:
        raise SystemExit(f"error: cannot write --stats-json: {exc}")


def _report_quarantine(failures) -> None:
    """One stderr line per quarantined form (``{uid: FormFailure}``)."""
    for uid in sorted(failures):
        print(f"quarantined: {failures[uid].summary()}", file=sys.stderr)


def _cmd_sweep(args) -> int:
    from repro import get_uarch
    from repro.analysis.sampling import stratified_sample
    from repro.core.sweep import SweepEngine
    from repro.core.xml_output import results_to_xml, write_xml
    from repro.isa.database import load_default_database

    for flag in ("resume", "drain", "enqueue_only", "incremental"):
        if getattr(args, flag) and args.no_cache:
            raise SystemExit(
                f"error: --{flag.replace('_', '-')} needs the "
                "persistent cache (incompatible with --no-cache)"
            )
    if args.drain and args.enqueue_only:
        raise SystemExit(
            "error: --drain and --enqueue-only are mutually exclusive"
        )
    database = load_default_database()
    engine = SweepEngine(
        get_uarch(args.uarch),
        database,
        jobs=args.jobs,
        cache=_make_cache(args),
        fault_spec=args.fault_spec,
        lease_timeout=args.lease_timeout,
        incremental=args.incremental,
    )
    if args.drain:
        # Worker role: execute queued units until the shared queue is
        # drained.  No XML — the coordinating (or a final, warm) sweep
        # collects the full result set from the cache.
        results = engine.drain(
            progress=(lambda line: print(line, file=sys.stderr))
            if args.verbose else None,
        )
        _report_quarantine(engine.failures)
        _print_cache_stats(engine.statistics)
        _write_stats_json(
            engine.statistics, args.stats_json, engine.failures
        )
        print(
            f"drained {len(results)} characterization(s) into "
            f"{engine.cache.cache_dir}"
        )
        if args.strict and engine.failures:
            print(
                f"strict: {len(engine.failures)} form(s) quarantined",
                file=sys.stderr,
            )
            return 3
        return 0
    supported = engine.supported_forms()
    forms = (
        supported if args.sample == 0
        else stratified_sample(supported, args.sample)
    )
    if args.enqueue_only:
        counts = engine.enqueue_pending(forms)
        print(
            f"enqueued {counts['enqueued']} unit(s) for "
            f"{engine.uarch.name}: {counts['pending']} pending of "
            f"{counts['requested']} requested "
            f"({counts['cached']} already cached)"
        )
        return 0
    print(f"characterizing {len(forms)} of {len(supported)} variants on "
          f"{engine.uarch.full_name} ({args.jobs} jobs)", file=sys.stderr)
    results = engine.sweep(
        forms,
        progress=(lambda line: print(line, file=sys.stderr))
        if args.verbose else None,
    )
    if args.resume:
        print(
            f"resume: {engine.statistics.cache_hits} form(s) from "
            f"cache, {engine.statistics.characterized} re-measured",
            file=sys.stderr,
        )
    _report_quarantine(engine.failures)
    _print_cache_stats(engine.statistics)
    _write_stats_json(engine.statistics, args.stats_json, engine.failures)
    failures_by_uarch = (
        {engine.uarch.name: engine.failures} if engine.failures else None
    )
    root = results_to_xml(
        {engine.uarch.name: results}, database,
        failures=failures_by_uarch,
    )
    write_xml(root, args.output)
    print(f"wrote {len(results)} characterizations to {args.output}")
    if args.html:
        from repro.core.html_output import write_html

        write_html(
            {engine.uarch.name: results}, args.html, database,
            failures=failures_by_uarch,
        )
        print(f"wrote HTML report to {args.html}")
    if args.llvm:
        from repro.core.llvm_export import write_tablegen

        write_tablegen(results, engine.uarch, args.llvm)
        print(f"wrote LLVM-style scheduling model to {args.llvm}")
    if args.strict and engine.failures:
        print(
            f"strict: {len(engine.failures)} form(s) quarantined",
            file=sys.stderr,
        )
        return 3
    return 0


def _cmd_table1(args) -> int:
    from repro.analysis.compare import compute_agreement
    from repro.analysis.sampling import stratified_sample
    from repro.core.sweep import SweepEngine
    from repro.uarch.configs import ALL_UARCHES

    cache = _make_cache(args)
    stats_by_uarch = {}
    print(f"{'Arch':4s} {'Processor':18s} {'#Instr':>6s}  "
          f"{'IACA':8s} {'µops':>8s} {'Ports':>8s}")
    for uarch in ALL_UARCHES:
        engine = SweepEngine(
            uarch, jobs=args.jobs, cache=cache,
            fault_spec=args.fault_spec,
            lease_timeout=args.lease_timeout,
        )
        supported = engine.supported_forms()
        sample = (
            supported if args.sample == 0
            else stratified_sample(supported, args.sample)
        )
        # The engine characterizes (or cache-loads) the hardware side
        # once; compute_agreement then only measures the IACA side.
        hw_results = engine.sweep(sample) if uarch.iaca_versions else {}
        row = compute_agreement(
            uarch, engine.database, sample, engine.backend,
            n_variants=len(supported),
            hw_results=hw_results,
        )
        print(row.format())
        stats_by_uarch[uarch.name] = engine.statistics
        if cache is not None and uarch.iaca_versions:
            _print_cache_stats(engine.statistics)
    _write_stats_json(stats_by_uarch, args.stats_json)
    return 0


def _cmd_case_studies(args) -> int:
    from repro.analysis.casestudies import (
        aes_latency_study,
        movq2dq_port_study,
        multi_latency_study,
        shld_latency_study,
        zero_idiom_study,
    )

    failed = 0
    for study in (aes_latency_study, shld_latency_study,
                  movq2dq_port_study, multi_latency_study,
                  zero_idiom_study):
        result = study()
        print(result.render())
        print()
        failed += 0 if result.passed else 1
    return 1 if failed else 0


def _cmd_list(args) -> int:
    from repro.isa.database import load_default_database

    database = load_default_database()
    if args.mnemonic:
        forms = database.forms_for_mnemonic(args.mnemonic)
        if not forms:
            print(f"no forms for mnemonic {args.mnemonic!r}",
                  file=sys.stderr)
            return 1
        for form in forms:
            print(f"{form.uid:40s} {form.extension:10s} {form.category}")
    else:
        print(f"{len(database)} instruction variants, "
              f"{len(database.mnemonics())} mnemonics, extensions: "
              f"{', '.join(database.extensions())}")
    return 0


def _cmd_analyze(args) -> int:
    from repro import CharacterizationRunner, HardwareBackend, get_uarch
    from repro.isa.assembler import parse_sequence
    from repro.isa.database import load_default_database
    from repro.predictor import LoopAnalyzer

    database = load_default_database()
    if args.file == "-":
        text = sys.stdin.read()
    else:
        with open(args.file) as handle:
            text = handle.read()
    code = parse_sequence(text, database)
    uarch = get_uarch(args.uarch)
    if args.model:
        from repro.core.xml_input import load_results

        results = load_results(args.model).get(uarch.name, {})
        missing = [
            instr.form.uid for instr in code
            if instr.form.uid not in results
        ]
        if missing:
            print(
                f"model file lacks characterizations for: "
                f"{', '.join(sorted(set(missing)))}",
                file=sys.stderr,
            )
            return 1
    else:
        backend = HardwareBackend(uarch)
        runner = CharacterizationRunner(backend, database)
        results = runner.characterize_all(
            dict.fromkeys(instr.form for instr in code)
        )
    analyzer = LoopAnalyzer(results, uarch)
    analysis = analyzer.analyze(code)
    print(f"loop body: {len(code)} instructions on {uarch.full_name}")
    print(analysis.render())
    return 0


def _cmd_cache_gc(args) -> int:
    """Compact the persistent cache stores (``repro cache gc``)."""
    from repro.core.cache import LiveLeaseError, collect_garbage
    from repro.stats import RunStatistics

    try:
        stats = collect_garbage(args.cache_dir, force=args.force)
    except LiveLeaseError as exc:
        print(f"gc: refusing to compact: {exc}", file=sys.stderr)
        print(
            "gc: drainers appear to be live; wait for them to finish "
            "(or pass --force if they are known dead)",
            file=sys.stderr,
        )
        return 1
    summary = stats.as_dict()
    print(
        f"gc: kept {summary['result_kept']} result(s) and "
        f"{summary['memo_kept']} memo line(s); dropped "
        f"{summary['result_dropped_orphan']} orphaned, "
        f"{summary['result_dropped_stale']} stale, "
        f"{summary['result_dropped_superseded']} superseded, "
        f"{summary['memo_dropped']} memo, "
        f"{summary['corrupt_dropped']} corrupt line(s); "
        f"removed {summary['queues_removed']} drained queue(s); "
        f"{summary['bytes_before']} -> {summary['bytes_after']} bytes"
    )
    if args.stats_json:
        _write_stats_json(
            RunStatistics(gc_keys_dropped=stats.keys_dropped),
            args.stats_json,
        )
    return 0


def _emit_json(payload) -> None:
    """The one JSON emitter of the CLI: every ``--json`` mode (doctor,
    lint) prints through here, so the rendering (two-space indent,
    sorted keys, trailing newline from ``print``) cannot drift apart
    between subcommands."""
    import json

    print(json.dumps(payload, indent=2, sort_keys=True))


def _cmd_doctor(args) -> int:
    """Scan (and optionally repair) the persistent stores.

    Exit 0 when every store is healthy (after repair, if requested),
    1 when findings remain, 2 on an internal error.
    """
    from repro.core.cache import LiveLeaseError
    from repro.core.doctor import diagnose, repair

    try:
        if args.repair:
            report = repair(args.cache_dir, force=args.force)
        else:
            report = diagnose(args.cache_dir)
    except LiveLeaseError as exc:
        print(f"doctor: refusing to repair: {exc}", file=sys.stderr)
        print(
            "doctor: drainers appear to be live; wait for them to "
            "finish (or pass --force if they are known dead)",
            file=sys.stderr,
        )
        return 1
    except (BrokenPipeError, SystemExit, KeyboardInterrupt):
        raise
    except Exception as exc:
        print(f"repro doctor: internal error: {exc!r}", file=sys.stderr)
        return 2
    if args.json:
        _emit_json(report.to_json())
    else:
        print(report.render_text())
    return 0 if report.healthy else 1


def _cmd_lint(args) -> int:
    """Run :mod:`repro.lint`.  0 = clean, 1 = findings, 2 = lint crash
    or usage error (a broken gate, distinct from a failing one)."""
    from repro.lint import LintUsageError, all_rules, run_lint

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.code}  {rule.name} [{rule.severity}] — "
                  f"{rule.summary}")
        return 0
    try:
        report = run_lint(args.paths or None)
    except (BrokenPipeError, SystemExit, KeyboardInterrupt):
        raise
    except LintUsageError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # A crash of the linter itself must be distinguishable from
        # "the tree has findings" (exit 1), so CI can tell a broken
        # gate from a failing one.
        print(f"repro lint: internal error: {exc!r}", file=sys.stderr)
        return 2
    if args.json:
        _emit_json(report.to_payload())
    else:
        print(report.render_text())
    return 1 if report.violations else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="uops.info reproduction: characterize x86 "
        "instructions on simulated Intel Core generations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("characterize", help="characterize one variant")
    p.add_argument("form", help="form uid, e.g. ADD_R64_R64")
    p.add_argument("uarch", nargs="?", default="SKL")
    p.set_defaults(func=_cmd_characterize)

    def add_sweep_options(p) -> None:
        p.add_argument("--jobs", type=int, default=1,
                       help="worker processes for the work-queue sweep")
        p.add_argument("--cache-dir", default=None,
                       help="persistent result cache directory "
                            "(default: ~/.cache/repro)")
        p.add_argument("--no-cache", action="store_true",
                       help="measure everything, ignore the cache")
        p.add_argument("--stats-json", default=None, metavar="PATH",
                       help="write the full run statistics as JSON "
                            "(table1: one object per generation)")
        p.add_argument("--fault-spec", default=None, metavar="SPEC",
                       help="inject deterministic faults for chaos "
                            "testing, e.g. 'seed=7,transient=0.1' "
                            "(same syntax as $REPRO_FAULTS)")
        p.add_argument("--lease-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="queue mode: how long a leased work unit "
                            "is protected from being stolen by "
                            "another drainer (default: 60)")

    p = sub.add_parser("sweep", help="characterize many variants -> XML")
    p.add_argument("uarch", nargs="?", default="SKL")
    p.add_argument("--sample", type=int, default=60,
                   help="stratified sample size (0 = full catalog)")
    p.add_argument("--output", default="characterization.xml")
    p.add_argument("--html", default=None,
                   help="also write an HTML report (uops.info-style)")
    p.add_argument("--llvm", default=None,
                   help="also write an LLVM-style scheduling model (.td)")
    p.add_argument("--resume", action="store_true",
                   help="re-run only forms missing from the persistent "
                        "cache (e.g. quarantined by a faulty run) and "
                        "report the resumed/re-measured split")
    p.add_argument("--incremental", action="store_true",
                   help="diff per-form input fingerprints against the "
                        "sweep manifest and re-measure only forms "
                        "whose inputs (catalog entry, µop tables, "
                        "uarch knobs, protocol) changed")
    p.add_argument("--drain", action="store_true",
                   help="worker role: execute units from the shared "
                        "work queue in the cache directory until it "
                        "is drained (no XML output; any number of "
                        "drainers may share one cache directory)")
    p.add_argument("--enqueue-only", action="store_true",
                   help="coordinator role: enqueue the pending work "
                        "units for --drain processes instead of "
                        "executing them")
    p.add_argument("--strict", action="store_true",
                   help="exit 3 when any form was quarantined or "
                        "failed, so CI cannot silently pass on a "
                        "partial sweep")
    p.add_argument("--verbose", action="store_true")
    add_sweep_options(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("table1", help="regenerate Table 1")
    p.add_argument("--sample", type=int, default=45)
    add_sweep_options(p)
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("case-studies",
                       help="run all Section 7.3 case studies")
    p.set_defaults(func=_cmd_case_studies)

    p = sub.add_parser("list", help="query the instruction catalog")
    p.add_argument("mnemonic", nargs="?")
    p.set_defaults(func=_cmd_list)

    p = sub.add_parser("analyze",
                       help="predict a loop kernel's performance")
    p.add_argument("file", help="assembly file ('-' for stdin)")
    p.add_argument("uarch", nargs="?", default="SKL")
    p.add_argument("--model", default=None,
                   help="use characterizations from a results XML "
                        "instead of measuring")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("cache",
                       help="manage the persistent result cache")
    cache_sub = p.add_subparsers(dest="cache_command", required=True)
    g = cache_sub.add_parser(
        "gc",
        help="compact the cache stores: drop orphaned, stale, "
             "superseded, and corrupt entries; remove drained work "
             "queues",
    )
    g.add_argument("--cache-dir", default=None,
                   help="cache directory (default: ~/.cache/repro)")
    g.add_argument("--stats-json", default=None, metavar="PATH",
                   help="write the run statistics (gc_keys_dropped) "
                        "as JSON")
    g.add_argument("--force", action="store_true",
                   help="compact even when work queues hold unexpired "
                        "leases (only when the drainers are known "
                        "dead)")
    g.set_defaults(func=_cmd_cache_gc)

    p = sub.add_parser(
        "doctor",
        help="scan the persistent stores for crash damage (torn "
             "tails, CRC failures, orphaned leases, stale locks, "
             "manifest/cache disagreement) and optionally repair it",
    )
    p.add_argument("--cache-dir", default=None,
                   help="cache directory (default: ~/.cache/repro)")
    p.add_argument("--repair", action="store_true",
                   help="apply the repair plan (truncate torn tails, "
                        "quarantine corrupt lines, release orphaned "
                        "leases, re-enqueue missing results)")
    p.add_argument("--force", action="store_true",
                   help="repair even when work queues hold unexpired "
                        "leases (only when the drainers are known "
                        "dead)")
    p.add_argument("--json", action="store_true",
                   help="emit the report as JSON on stdout")
    p.set_defaults(func=_cmd_doctor)

    p = sub.add_parser("lint", help="run the repo's invariant checker")
    p.add_argument("paths", nargs="*",
                   help="files/directories to lint (default: the "
                        "installed repro package)")
    p.add_argument("--json", action="store_true",
                   help="emit the report as JSON on stdout")
    p.add_argument("--list-rules", action="store_true",
                   help="print the rule catalog and exit")
    p.set_defaults(func=_cmd_lint)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # The stdout consumer went away (`repro lint | head`).  Point
        # the real stdout at devnull so interpreter shutdown does not
        # raise a second time, and fail cleanly without a traceback.
        # When stdout is already redirected (tests, embedding), there
        # is nothing to protect.
        try:
            fd = sys.stdout.fileno()
        except (OSError, ValueError):
            fd = None
        if fd == 1:
            os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
