"""Tests for the persistence layer's lock discipline and the lint CLI.

Three layers:

* the invariants :mod:`repro.core.journal` enforces at runtime, one
  test per shape a static analysis would have to flag — a blob
  published outside its lock scope, a nesting against the lock order,
  a lock class nested in itself, a writer handed a kind it does not
  own — plus the kind table and the crash-site registry derived from
  it, and RPR150 keeping store writes inside the journal;
* the **dynamic oracle**: a ``jobs=2`` pool sweep (plus GC, doctor
  repair, and a serial sweep) run under ``REPRO_LOCK_TRACE``, whose
  observed lock orders and write locksets are validated against the
  journal's lock table *in both directions* — an edge the trace
  realizes that the table forbids fails, and a table edge or store
  kind the trace never witnesses fails too (a stale table is as wrong
  as an unsound one);
* the lint CLI's edge cases (empty and missing paths, a broken pipe)
  and the ``--json`` emitter it shares with ``repro doctor``.
"""

import json
import os
import textwrap

import pytest

from repro import cli
from repro.core import journal
from repro.core.cache import (
    MeasurementMemo,
    ResultCache,
    collect_garbage,
)
from repro.core.doctor import repair
from repro.core.journal import (
    LOCK_TRACE_ENV,
    LockOrderError,
    append_entry,
    lock_scope,
    publish_blob,
    quarantine_lines,
    rewrite_store,
)
from repro.core.sweep import SweepEngine
from repro.lint import LintUsageError, run_lint
from repro.lint.framework import collect_files
from repro.measure.faults import CRASH_SITES


def lint_snippets(root, sources):
    """Write ``{relpath: source}`` under *root* and lint the tree."""
    for relpath, source in sources.items():
        path = os.path.join(root, relpath)
        os.makedirs(os.path.dirname(path) or root, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(textwrap.dedent(source))
    return run_lint([root])


def codes(report):
    return [violation.code for violation in report.violations]


def lock_file(tmp_path, name):
    """An open ``a+`` lock-file handle under *tmp_path*."""
    return open(str(tmp_path / f"{name}.lock"), "a+", encoding="utf-8")


STATE = {"salt": "s", "configs": {}}


# ---------------------------------------------------------------------------
# Lockset: a store changes only under its lock class
# ---------------------------------------------------------------------------


class TestLocksetRule:
    def test_naked_manifest_publish_is_flagged(self, tmp_path):
        with pytest.raises(LockOrderError, match="'manifest' lock scope"):
            publish_blob(str(tmp_path / "m.json"), STATE, kind="manifest")
        assert not os.path.exists(str(tmp_path / "m.json"))

    def test_publish_outside_persistence_layer_is_flagged(
        self, tmp_path
    ):
        """Any caller outside the manifest's own scope — including one
        that holds an unrelated lock — cannot publish a manifest."""
        path = str(tmp_path / "m.json")
        with pytest.raises(LockOrderError, match="'manifest' lock scope"):
            publish_blob(path, STATE, kind="manifest")
        with lock_file(tmp_path, "s") as lock, lock_scope(lock, "store"):
            with pytest.raises(LockOrderError):
                publish_blob(path, STATE, kind="manifest")
        assert not os.path.exists(path)

    def test_raw_write_outside_flock_is_flagged(self, tmp_path):
        """An in-place rewrite outside the journal bypasses the lock
        scope: RPR150 flags the ``r+`` open."""
        report = lint_snippets(str(tmp_path), {
            "core/cache.py": """\
            def scribble(path, payload):
                with open(path, "r+b") as handle:
                    handle.write(payload)
            """,
        })
        assert codes(report) == ["RPR150"]
        assert "rewrite_store" in report.violations[0].message

    def test_truncating_open_in_persistence_module_is_flagged(
        self, tmp_path
    ):
        """A ``w``/``x`` open replaces store bytes outside the journal
        in the persistence modules; elsewhere it is an ordinary write."""
        body = """\
            def clobber(path, payload):
                with open(path, "wb") as handle:
                    handle.write(payload)
                with open(path + ".new", mode="x") as handle:
                    handle.write("")
            """
        report = lint_snippets(str(tmp_path), {
            "core/doctor.py": body,
            "analysis/report.py": body,
        })
        assert codes(report) == ["RPR150", "RPR150"]
        assert all(
            v.path.endswith("core/doctor.py") for v in report.violations
        )

    def test_publish_under_lock_is_clean(self, tmp_path):
        path = str(tmp_path / "m.json")
        with lock_file(tmp_path, "m") as lock, lock_scope(lock, "manifest"):
            publish_blob(path, STATE, kind="manifest")
        assert os.path.exists(path)
        assert journal._held_locks() == []

    def test_helper_covered_by_every_caller_is_clean(self, tmp_path):
        """The manifest's read-modify-write shape: the publish helper
        holds nothing itself, but its caller does."""
        path = str(tmp_path / "m.json")

        def write_state(state):
            publish_blob(path, state, kind="manifest")

        with lock_file(tmp_path, "m") as lock, lock_scope(lock, "manifest"):
            write_state(STATE)
        assert os.path.exists(path)

    def test_journal_module_is_exempt(self, tmp_path):
        report = lint_snippets(str(tmp_path), {
            "core/journal.py": """\
            def publisher(path, blob):
                with open(path, "r+b") as handle:
                    handle.write(blob)
            """,
        })
        assert codes(report) == []

    def test_suppression_is_honored(self, tmp_path):
        report = lint_snippets(str(tmp_path), {
            "core/doctor.py": """\
            def patch(path, blob):
                with open(path, "r+b") as handle:  # repro-lint: disable=RPR150 (fixture: scratch file, never recovered)
                    handle.write(blob)
            """,
        })
        assert codes(report) == []
        assert report.suppressed == 1


# ---------------------------------------------------------------------------
# Lock order: nesting only along the table's edges
# ---------------------------------------------------------------------------


class TestLockOrderRule:
    def test_opposite_order_acquisitions_are_a_cycle(self, tmp_path):
        """``store`` then ``quarantine`` is doctor's repair order; the
        reverse raises before the second flock is even tried."""
        with lock_file(tmp_path, "s") as store, lock_file(
            tmp_path, "x"
        ) as quarantine:
            with lock_scope(store, "store"), lock_scope(
                quarantine, "quarantine"
            ):
                pass
            with lock_scope(quarantine, "quarantine"):
                with pytest.raises(
                    LockOrderError, match="holding 'quarantine'"
                ):
                    with lock_scope(store, "store"):
                        pass
        assert journal._held_locks() == []

    def test_cross_module_call_edge_closes_a_cycle(self, tmp_path):
        """Call depth does not hide an edge: a store append reached
        while the quarantine lock is held raises inside the writer."""
        with lock_file(tmp_path, "x") as lock, lock_scope(
            lock, "quarantine"
        ):
            with pytest.raises(LockOrderError, match="'store' lock"):
                append_entry(
                    str(tmp_path / "s.jsonl"), {"key": "k", "data": {}}
                )
        assert journal._held_locks() == []

    def test_unsorted_multi_acquisition_is_flagged(self, tmp_path):
        """No class nests in itself, in any path order."""
        with lock_file(tmp_path, "a") as first, lock_file(
            tmp_path, "b"
        ) as second:
            for outer, inner in ((second, first), (first, second)):
                with lock_scope(outer, "store"):
                    with pytest.raises(
                        LockOrderError, match="holding 'store'"
                    ):
                        with lock_scope(inner, "store"):
                            pass
            # Re-entering the same lock is a self-nesting too.
            with lock_scope(first, "store"):
                with pytest.raises(LockOrderError):
                    with lock_scope(first, "store"):
                        pass
        assert journal._held_locks() == []

    def test_consistent_order_across_modules_is_clean(self, tmp_path):
        """Doctor's store→quarantine, through the real writers."""
        store = str(tmp_path / "s.jsonl")
        append_entry(store, {"key": "k", "data": {}})

        def mend(blob):
            quarantine_lines(store + ".quarantine", [b"damaged"])
            return None

        rewrite_store(store, mend, kind="repair")
        with open(store + ".quarantine", "rb") as handle:
            assert handle.read() == b"damaged\n"

    def test_timed_out_scope_still_proceeds_and_pops(
        self, tmp_path, monkeypatch
    ):
        """A lock that times out enters the body unlocked, counted as a
        timeout, and the held stack still mirrors the nesting."""
        fcntl = pytest.importorskip("fcntl")
        real_flock = journal.flock_bounded
        monkeypatch.setattr(
            journal, "flock_bounded",
            lambda handle, **kwargs: real_flock(
                handle, timeout=0.05, **kwargs
            ),
        )

        class Counters:
            lock_retries = 0
            lock_timeouts = 0

        counters = Counters()
        path = str(tmp_path / "s.lock")
        with open(path, "a+") as holder, open(path, "a+") as waiter:
            fcntl.flock(holder.fileno(), fcntl.LOCK_EX)
            with lock_scope(waiter, "store", stats=counters):
                assert [n for n, _ in journal._held_locks()] == ["store"]
        assert counters.lock_timeouts == 1
        assert counters.lock_retries >= 1
        assert journal._held_locks() == []


# ---------------------------------------------------------------------------
# Crash sites: derived from the writers' declarations and the kind table
# ---------------------------------------------------------------------------


class TestCrashSiteCoverageRule:
    def test_unregistered_kind_is_flagged_at_the_call(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        for write in (
            lambda: append_entry(path, {"key": "k", "data": {}},
                                 kind="ledger"),
            lambda: publish_blob(path, STATE, kind="ledger"),
            lambda: rewrite_store(path, lambda blob: blob, kind="ledger"),
            # A known kind handed to a writer that does not own it.
            lambda: append_entry(path, {"key": "k", "data": {}},
                                 kind="manifest"),
        ):
            with pytest.raises(ValueError, match="'(ledger|manifest)'"):
                write()
        assert os.listdir(str(tmp_path)) == []

    def test_stale_registry_entry_is_flagged(self):
        """Every registered site names a table kind and a suffix its
        writer declares: no entry can outlive its writer."""
        for site in CRASH_SITES:
            kind, _, suffix = site.partition(".")
            _, writer = journal.STORE_KINDS[kind]
            assert suffix in journal.WRITER_SITES[writer], site

    def test_durable_writer_without_crash_points_is_flagged(
        self, tmp_path, monkeypatch
    ):
        """Every site the writers actually reach is registered, and
        every registered site is reached: the registry is exactly what
        the write paths do."""
        reached = []
        monkeypatch.setattr(journal, "maybe_crash", reached.append)
        monkeypatch.setattr(
            journal, "_crash_armed",
            lambda site: reached.append(site) or False,
        )
        store = str(tmp_path / "s.jsonl")
        for kind in ("cache", "memo"):
            append_entry(store, {"key": "k", "data": {}}, kind=kind)
        quarantine_lines(store + ".quarantine", [b"damaged"])
        with lock_file(tmp_path, "m") as lock, lock_scope(lock, "manifest"):
            publish_blob(str(tmp_path / "m.json"), STATE, kind="manifest")
        for kind in ("compact", "repair"):
            rewrite_store(store, lambda blob: blob, kind=kind)
        assert set(reached) == set(CRASH_SITES)

    def test_matching_registry_is_clean(self):
        assert CRASH_SITES == (
            "cache.pre-append",
            "cache.mid-append",
            "cache.pre-fsync",
            "cache.post-append",
            "memo.pre-append",
            "memo.mid-append",
            "memo.pre-fsync",
            "memo.post-append",
            "quarantine.pre-append",
            "quarantine.post-append",
            "manifest.pre-rename",
            "manifest.post-rename",
        )
        assert CRASH_SITES is journal.CRASH_SITES


# ---------------------------------------------------------------------------
# The lock table of the real tree
# ---------------------------------------------------------------------------


class TestStaticLockModel:
    def test_current_tree_has_no_concurrency_findings(self):
        """No module outside the journal opens a store for appending or
        in-place rewriting."""
        report = run_lint()
        assert [
            v.render() for v in report.violations if v.code == "RPR150"
        ] == []

    def test_model_matches_the_documented_invariants(self):
        assert journal.LOCK_ORDER == {("store", "quarantine")}
        assert {
            kind: lock for kind, (lock, _) in journal.STORE_KINDS.items()
        } == {
            "cache": "store",
            "compact": "store",
            "manifest": "manifest",
            "memo": "store",
            "quarantine": "quarantine",
            "repair": "store",
        }
        assert journal.LOCK_CLASSES == ("manifest", "quarantine", "store")

    def test_model_graph_is_acyclic(self):
        adjacency = {}
        for held, acquired in journal.LOCK_ORDER:
            adjacency.setdefault(held, []).append(acquired)

        def reaches(start, goal, seen):
            for target in adjacency.get(start, ()):
                if target == goal:
                    return True
                if target not in seen:
                    seen.add(target)
                    if reaches(target, goal, seen):
                        return True
            return False

        for held, acquired in journal.LOCK_ORDER:
            assert not reaches(acquired, held, {acquired}), (
                f"cycle through {held} -> {acquired}"
            )

# ---------------------------------------------------------------------------
# The dynamic oracle: REPRO_LOCK_TRACE vs. the journal's lock table
# ---------------------------------------------------------------------------


UIDS = ("ADD_R64_R64", "NOP", "SUB_R64_R64", "XOR_R64_R64")


@pytest.mark.slow
class TestDynamicOracle:
    def _exercise(self, base, db):
        """Drive every store kind and lock class of the real layer:
        a ``jobs=2`` pool sweep, a GC compaction, a doctor repair of a
        corrupted store, and a serial (manifest-updating) sweep — all
        with the trace recorder armed."""
        forms = [db.by_uid(uid) for uid in UIDS]

        # A pool sweep: workers append to the memo, the parent to the
        # result cache and the manifest.
        pool_root = os.path.join(base, "pool")
        os.makedirs(pool_root)
        engine = SweepEngine(
            "SKL", db, jobs=2,
            cache=ResultCache(pool_root),
            measure_memo=MeasurementMemo(pool_root),
        )
        engine.sweep(forms)
        assert engine.failures == {}

        # GC: a compaction (superseded cache line).
        cache = ResultCache(pool_root)
        key = "c" * 64
        cache.put(key, "NOP", "SKL", {"i": 1})
        cache.put(key, "NOP", "SKL", {"i": 2})
        collect_garbage(pool_root)

        # Doctor repair: a corrupt *mid-file* line (garbage followed
        # by a valid append) gets quarantined under the
        # store-then-quarantine lock pair; a trailing one would only
        # be truncated as a torn tail.
        repair_root = os.path.join(base, "repair")
        os.makedirs(repair_root)
        repair_cache = ResultCache(repair_root)
        repair_cache.put("d" * 64, "NOP", "SKL", {"i": 1})
        with open(
            os.path.join(repair_root, "SKL.jsonl"), "ab"
        ) as handle:
            handle.write(b"definitely not a journal record\n")
        repair_cache.put("e" * 64, "NOP", "SKL", {"i": 2})
        assert repair(repair_root).healthy

        # Serial sweep: the in-process path that publishes the
        # manifest.
        serial_root = os.path.join(base, "serial")
        os.makedirs(serial_root)
        serial = SweepEngine(
            "SKL", db,
            cache=ResultCache(serial_root),
            measure_memo=MeasurementMemo(serial_root),
        )
        serial.sweep(forms)

    def test_trace_and_static_model_agree_both_ways(
        self, tmp_path, db, monkeypatch
    ):
        trace = str(tmp_path / "lock-trace.jsonl")
        monkeypatch.setenv(LOCK_TRACE_ENV, trace)
        self._exercise(str(tmp_path), db)

        with open(trace, "r", encoding="utf-8") as handle:
            records = [
                json.loads(line) for line in handle if line.strip()
            ]
        acquires = [r for r in records if r["event"] == "acquire"]
        writes = [r for r in records if r["event"] == "write"]
        assert acquires and writes

        model_edges = set(journal.LOCK_ORDER)

        observed_edges = set()
        for record in acquires:
            for held in record["held"]:
                observed_edges.add((held, record["lock"]))

        # Dynamic ⊆ table: every realized ordering must be allowed.
        unmodeled = observed_edges - model_edges
        assert not unmodeled, (
            f"trace realized lock orders the lock table forbids: "
            f"{sorted(unmodeled)}"
        )
        # Table ⊆ dynamic: every allowed ordering must be realized —
        # a table edge the trace never witnesses is stale.
        unrealized = model_edges - observed_edges
        assert not unrealized, (
            f"lock table allows orders the trace never "
            f"realized: {sorted(unrealized)}"
        )

        # Locksets: every durable write happened under the lock class
        # the table requires, and every table kind was witnessed.
        required = {
            kind: lock for kind, (lock, _) in journal.STORE_KINDS.items()
        }
        for record in writes:
            assert record["store"] in required, record
            assert required[record["store"]] in record["held"], record
        assert {r["store"] for r in writes} == set(required)

        # Lock classes: exactly the table's, no unknown names.
        assert {r["lock"] for r in acquires} == set(journal.LOCK_CLASSES)

        # The pool's workers wrote the memo from their own processes.
        memo_writers = {
            r["pid"] for r in writes if r["store"] == "memo"
        }
        assert memo_writers - {os.getpid()}


# ---------------------------------------------------------------------------
# CLI edges and the shared JSON emitter
# ---------------------------------------------------------------------------


CLEAN_SNIPPET = """\
def double(value):
    return value * 2
"""


class TestCliEdgeCases:
    def test_empty_path_list_is_a_clean_run(self):
        report = run_lint([])
        assert report.files == 0
        assert report.violations == []

    def test_nonexistent_path_exits_two(self, tmp_path, capsys):
        assert cli.main(
            ["lint", str(tmp_path / "no-such-dir")]
        ) == 2
        err = capsys.readouterr().err
        assert "no such file or directory" in err

    def test_broken_pipe_during_json_exits_one(
        self, tmp_path, monkeypatch
    ):
        root = str(tmp_path / "tree")
        lint_snippets(root, {"mod.py": CLEAN_SNIPPET})

        class DeadPipe:
            def write(self, _text):
                raise BrokenPipeError()

            def flush(self):
                raise BrokenPipeError()

            def fileno(self):
                return 2  # not the real stdout: no fd surgery

        import sys as _sys

        monkeypatch.setattr(_sys, "stdout", DeadPipe())
        assert cli.main(["lint", root, "--json"]) == 1


class TestSharedJsonEmitter:
    def test_doctor_and_lint_emit_through_one_helper(
        self, tmp_path, monkeypatch, capsys
    ):
        emitted = []
        real = cli._emit_json

        def recording(payload):
            emitted.append(payload)
            real(payload)

        monkeypatch.setattr(cli, "_emit_json", recording)
        root = str(tmp_path / "tree")
        lint_snippets(root, {"mod.py": CLEAN_SNIPPET})
        assert cli.main(["lint", root, "--json"]) == 0
        lint_out = capsys.readouterr().out
        cache_dir = str(tmp_path / "stores")
        os.makedirs(cache_dir)
        ResultCache(cache_dir).put("k" * 64, "NOP", "SKL", {})
        assert cli.main(
            ["doctor", "--cache-dir", cache_dir, "--json"]
        ) == 0
        doctor_out = capsys.readouterr().out
        assert len(emitted) == 2
        # Both render identically: the helper's formatting is the one
        # JSON shape of the CLI.
        assert lint_out == json.dumps(
            emitted[0], indent=2, sort_keys=True
        ) + "\n"
        assert doctor_out == json.dumps(
            emitted[1], indent=2, sort_keys=True
        ) + "\n"


class TestFrameworkHousekeeping:
    def test_collect_files_rejects_missing_paths(self, tmp_path):
        with pytest.raises(LintUsageError):
            collect_files([str(tmp_path / "missing")])
