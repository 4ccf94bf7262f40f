"""Tests for :mod:`repro.lint` — the repo's own invariant checker.

Four layers:

* per-rule fixture snippets (violating + clean + suppressed variants),
  including a minimized reproduction of the historical bug the rule set
  was designed around (the PR-2 dead-list iteration in ``_next_event``);
* the catalog literals of the source: every string literal handed to
  ``by_uid``/``forms_for_mnemonic``/``get_uarch`` in ``src/repro``
  resolves through those same functions, and a registered override for
  an unknown generation or form is caught;
* the ``repro lint`` CLI: exit codes (0 clean / 1 findings / 2 crash,
  broken-pipe safe), ``--json`` round-tripping, ``--list-rules``, and a
  hypothesis property that reports are stable under file-order
  shuffling.

Finally, the linter must be clean on the current tree — the bar CI
gates on.
"""

import ast
import json
import os
import random
import tempfile
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import cli
from repro.isa.database import load_default_database
from repro.lint import all_rules, run_lint
from repro.lint.framework import (
    Violation,
    collect_files,
    default_target,
    parse_suppressions,
)
from repro.stats import RunStatistics
from repro.uarch.configs import ALL_UARCHES, get_uarch
from tests.test_uarch_tables import dangling_overrides


def lint_snippet(root, relpath, source):
    path = os.path.join(root, relpath)
    os.makedirs(os.path.dirname(path) or root, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(textwrap.dedent(source))
    return run_lint([root])


def codes(report):
    return [violation.code for violation in report.violations]


# ---------------------------------------------------------------------------
# Per-rule fixtures: violating, clean, suppressed
# ---------------------------------------------------------------------------

#: code -> (relative path, violating snippet, clean snippet).  The
#: violating snippet's flagged line carries no suppression; SUPPRESSED
#: below holds a justified-suppression variant of the same snippet.
FILE_RULE_FIXTURES = {
    "RPR101": (
        "core/cache.py",
        """
        import time

        def cache_key(payload):
            return (payload, time.time())
        """,
        """
        import time

        def pace_retry():
            return time.monotonic()
        """,
    ),
    "RPR102": (
        "core/result.py",
        """
        import json

        def encode(values):
            return json.dumps(list({"b", "a"}.union(values)))
        """,
        """
        import json

        def encode(values):
            return json.dumps(sorted({"b", "a"}.union(values)))
        """,
    ),
    "RPR110": (
        "core/latency.py",
        """
        def plan_latency(batch, backend):
            counters = backend.measure(batch)
            yield counters
        """,
        """
        def plan_latency(batch, backend):
            if backend.supports(batch):
                results = yield batch
                return results
        """,
    ),
    "RPR112": (
        "pipeline/core.py",
        """
        def drain(portless, port_queues):
            best = None
            for queue in [portless] + port_queues:
                for item in queue:
                    if best is None or item < best:
                        best = item
            return best
        """,
        """
        from itertools import chain

        def drain(portless, port_queues):
            best = None
            for queue in chain([portless], port_queues):
                for item in queue:
                    if best is None or item < best:
                        best = item
            return best
        """,
    ),
    "RPR130": (
        "measure/chaos.py",
        """
        class ChaosBackend:
            def measure(self, code):
                raise ValueError("bad code")
        """,
        """
        from repro.measure import BackendTimeout

        class ChaosBackend:
            def measure(self, code):
                raise BackendTimeout("too slow")
        """,
    ),
    "RPR131": (
        "worker.py",
        """
        def run(job):
            try:
                job()
            except Exception:
                pass
        """,
        """
        def run(job, failures):
            try:
                job()
            except Exception as error:
                failures.append(error)
        """,
    ),
    "RPR150": (
        "core/store.py",
        """
        def record(path, line):
            with open(path, "a", encoding="utf-8") as handle:
                handle.write(line)
        """,
        """
        from repro.core.journal import append_entry

        def record(path, entry):
            append_entry(path, entry)
        """,
    ),
}

#: Justified-suppression variants: same violation line, silenced.
SUPPRESSED_FIXTURES = {
    "RPR101": (
        "core/cache.py",
        """
        import time

        def cache_key(payload):
            return (payload, time.time())  # repro-lint: disable=RPR101 (fixture: key is never persisted)
        """,
    ),
    "RPR112": (
        "pipeline/core.py",
        """
        def drain(a, b):
            for item in a + b:  # repro-lint: disable=RPR112 (fixture: both lists are tiny)
                yield item
        """,
    ),
    "RPR130": (
        "measure/chaos.py",
        """
        class ChaosBackend:
            def measure(self, code):
                raise ValueError(code)  # repro-lint: disable=RPR130 (fixture: test-only backend)
        """,
    ),
    "RPR150": (
        "core/store.py",
        """
        def record(path, line):
            with open(path, "a", encoding="utf-8") as handle:  # repro-lint: disable=RPR150 (fixture: scratch file, never recovered)
                handle.write(line)
        """,
    ),
}


class TestFileRules:
    @pytest.mark.parametrize("code", sorted(FILE_RULE_FIXTURES))
    def test_violating_fixture_is_flagged(self, code, tmp_path):
        relpath, bad, _ = FILE_RULE_FIXTURES[code]
        report = lint_snippet(str(tmp_path), relpath, bad)
        assert code in codes(report)

    @pytest.mark.parametrize("code", sorted(FILE_RULE_FIXTURES))
    def test_clean_fixture_passes(self, code, tmp_path):
        relpath, _, good = FILE_RULE_FIXTURES[code]
        report = lint_snippet(str(tmp_path), relpath, good)
        assert codes(report) == []

    @pytest.mark.parametrize("code", sorted(SUPPRESSED_FIXTURES))
    def test_justified_suppression_silences(self, code, tmp_path):
        relpath, source = SUPPRESSED_FIXTURES[code]
        report = lint_snippet(str(tmp_path), relpath, source)
        assert codes(report) == []
        assert report.suppressed == 1

    def test_rpr150_exempts_journal_module(self, tmp_path):
        """The journal module owns durable appends and opens raw."""
        report = lint_snippet(
            str(tmp_path),
            "core/journal.py",
            """
            def raw_append(path, payload):
                with open(path, "ab") as handle:
                    handle.write(payload)
            """,
        )
        assert codes(report) == []

    def test_rpr150_exempts_lockfile_idiom(self, tmp_path):
        """``open(lock, "a+")`` creates a lock file without truncating
        it and writes nothing — the one legal append mode elsewhere."""
        report = lint_snippet(
            str(tmp_path),
            "core/store.py",
            """
            def ensure_lock(path):
                return open(path, "a+")
            """,
        )
        assert codes(report) == []

    def test_unjustified_suppression_is_rpr100(self, tmp_path):
        report = lint_snippet(
            str(tmp_path),
            "pipeline/core.py",
            """
            def drain(a, b):
                for item in a + b:  # repro-lint: disable=RPR112
                    yield item
            """,
        )
        assert codes(report) == ["RPR100"]
        assert report.suppressed == 1

    def test_syntax_error_is_rpr999(self, tmp_path):
        report = lint_snippet(str(tmp_path), "broken.py", "def f(:\n")
        assert codes(report) == ["RPR999"]

    def test_rpr101_id_and_random(self, tmp_path):
        report = lint_snippet(
            str(tmp_path),
            "core/experiment.py",
            """
            import random

            def content_key(obj):
                return (id(obj), random.random())
            """,
        )
        assert codes(report) == ["RPR101", "RPR101"]

    def test_rpr102_set_iteration(self, tmp_path):
        report = lint_snippet(
            str(tmp_path),
            "core/cache.py",
            """
            def render(entries):
                return [line for line in set(entries)]
            """,
        )
        assert codes(report) == ["RPR102"]

    def test_rpr110_module_level_executor_import(self, tmp_path):
        report = lint_snippet(
            str(tmp_path),
            "core/throughput.py",
            """
            from repro.measure.executor import ExperimentExecutor

            def plan_throughput(form):
                yield form
            """,
        )
        assert codes(report) == ["RPR110"]

    def test_rpr110_ignores_drive_wrappers(self, tmp_path):
        report = lint_snippet(
            str(tmp_path),
            "core/blocking.py",
            """
            def find_blocking(backend, plan):
                from repro.measure.executor import ExperimentExecutor

                return ExperimentExecutor(backend).drive(plan)
            """,
        )
        assert codes(report) == []

    def test_rpr131_reraise_is_clean(self, tmp_path):
        report = lint_snippet(
            str(tmp_path),
            "worker.py",
            """
            def run(job):
                try:
                    job()
                except Exception:
                    raise
            """,
        )
        assert codes(report) == []


# ---------------------------------------------------------------------------
# Historical-bug regressions (PR-2 dead-list iteration)
# ---------------------------------------------------------------------------


class TestHistoricalBugRegressions:
    def test_pr2_dead_list_iteration(self, tmp_path):
        """PR-2 bug class: ``_next_event`` concatenated the portless
        queue with every port queue into a throwaway list per event."""
        report = lint_snippet(
            str(tmp_path),
            "pipeline/core.py",
            """
            def _next_event(portless, port_queues):
                best = None
                for queue in [portless] + list(port_queues.values()):
                    for slot in queue:
                        if best is None or slot.cycle < best.cycle:
                            best = slot
                return best
            """,
        )
        assert codes(report) == ["RPR112"]


# ---------------------------------------------------------------------------
# Catalog literals in the source
# ---------------------------------------------------------------------------


def catalog_literals(paths):
    """``(path, line, function, literal)`` for every call of ``by_uid``,
    ``forms_for_mnemonic`` or ``get_uarch`` under *paths* whose first
    argument is a string literal."""
    found = []
    for path in collect_files(paths):
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and node.args):
                continue
            arg = node.args[0]
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in ("by_uid", "forms_for_mnemonic", "get_uarch") and (
                isinstance(arg, ast.Constant) and isinstance(arg.value, str)
            ):
                found.append((path, node.lineno, name, arg.value))
    return found


def dangling_literals(paths):
    """The catalog literals under *paths* that do not resolve through
    the function they are handed to."""
    database = load_default_database()
    resolvers = {
        "by_uid": database.by_uid,
        "forms_for_mnemonic": database.forms_for_mnemonic,
        "get_uarch": get_uarch,
    }
    dangling = []
    for path, line, name, literal in catalog_literals(paths):
        try:
            resolved = resolvers[name](literal)
        except KeyError:
            resolved = None
        if not resolved:
            dangling.append((os.path.basename(path), line, name, literal))
    return dangling


def write_source(root, source):
    (root / "mod.py").write_text(textwrap.dedent(source))
    return [str(root)]


class TestCatalogReferences:
    def test_source_tree_literals_resolve(self):
        literals = catalog_literals([default_target()])
        assert literals, "no catalog literal found to check"
        assert dangling_literals([default_target()]) == []

    def test_dangling_uid(self, tmp_path):
        paths = write_source(tmp_path, """
            def calibration(db):
                return db.by_uid("NOT_A_REAL_FORM_XYZ")
            """)
        assert dangling_literals(paths) == [
            ("mod.py", 3, "by_uid", "NOT_A_REAL_FORM_XYZ")
        ]

    def test_existing_uid_and_mnemonic_pass(self, tmp_path):
        """Literals resolve through the lookup itself, so any spelling
        ``get_uarch`` accepts (``"skylake"``) is a valid reference."""
        paths = write_source(tmp_path, """
            def calibration(db):
                db.forms_for_mnemonic("MOV")
                get_uarch("skylake")
                get_uarch("Sandy Bridge")
                return db.by_uid("ADD_R64_R64")
            """)
        assert len(catalog_literals(paths)) == 4
        assert dangling_literals(paths) == []
        unknown = write_source(tmp_path, """
            get_uarch("Zen2")
            forms_for_mnemonic("NOT_A_MNEMONIC")
            """)
        assert [d[2] for d in dangling_literals(unknown)] == [
            "get_uarch", "forms_for_mnemonic",
        ]

    def test_dangling_override_reference(self, db):
        """An override registered for an unknown generation or form."""
        registry = {
            ("ZZZ", "ADD_R64_R64"): None,
            ("SKL", "NOT_A_REAL_FORM_XYZ"): None,
            ("SKL", "ADD_R64_R64"): None,
        }
        assert dangling_overrides(registry, ALL_UARCHES, db) == [
            ("SKL", "NOT_A_REAL_FORM_XYZ"),
            ("ZZZ", "ADD_R64_R64"),
        ]


# ---------------------------------------------------------------------------
# Framework mechanics
# ---------------------------------------------------------------------------


class TestFramework:
    def test_violations_sorted_deterministically(self, tmp_path):
        for name in ("b.py", "a.py"):
            (tmp_path / name).write_text(
                "def f(x, y):\n    for i in x + y:\n        pass\n"
            )
        report = run_lint([str(tmp_path)])
        assert codes(report) == ["RPR112", "RPR112"]
        assert [
            os.path.basename(v.path) for v in report.violations
        ] == ["a.py", "b.py"]

    def test_collect_files_dedups_and_sorts(self, tmp_path):
        (tmp_path / "m.py").write_text("x = 1\n")
        target = str(tmp_path / "m.py")
        assert collect_files([target, str(tmp_path)]) == [target]

    def test_parse_suppressions_requires_justification(self):
        suppressed, meta = parse_suppressions(
            "m.py",
            [
                "x = 1  # repro-lint: disable=RPR101 (clock feeds a log)",
                "y = 2  # repro-lint: disable=RPR102,RPR112",
            ],
        )
        assert suppressed == {1: {"RPR101"}, 2: {"RPR102", "RPR112"}}
        assert [m.code for m in meta] == ["RPR100"]
        assert meta[0].line == 2

    def test_rule_catalog_is_complete(self):
        listed = {rule.code for rule in all_rules()}
        assert listed == {
            "RPR100", "RPR101", "RPR102", "RPR110", "RPR112",
            "RPR130", "RPR131", "RPR150", "RPR999",
        }


#: Snippet pool for the shuffle-stability property.
PROPERTY_SNIPPETS = {
    "concat": "def f(a, b):\n    for i in a + b:\n        pass\n",
    "swallow": (
        "def f(job):\n    try:\n        job()\n"
        "    except Exception:\n        pass\n"
    ),
    "clean": "def f(values):\n    return sorted(values)\n",
    "unjustified": "x = 1  # repro-lint: disable=RPR101\n",
}


class TestReportProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        names=st.lists(
            st.sampled_from(sorted(PROPERTY_SNIPPETS)),
            min_size=1,
            max_size=5,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_json_round_trips_and_order_is_stable(self, names, seed):
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for i, name in enumerate(names):
                path = os.path.join(tmp, f"file{i}.py")
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(PROPERTY_SNIPPETS[name])
                paths.append(path)
            base = run_lint(paths)
            shuffled = list(paths)
            random.Random(seed).shuffle(shuffled)
            other = run_lint(shuffled)
            assert other.to_json() == base.to_json()
            decoded = json.loads(base.to_json())
            rebuilt = [Violation(**v) for v in decoded["violations"]]
            assert rebuilt == base.violations
            assert decoded["counts"] == base.counts()


# ---------------------------------------------------------------------------
# CLI: exit codes, output modes
# ---------------------------------------------------------------------------


def write_violating_tree(root):
    path = os.path.join(root, "mod.py")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(PROPERTY_SNIPPETS["concat"])
    return root


class TestLintCli:
    def test_violations_exit_1(self, tmp_path, capsys):
        write_violating_tree(str(tmp_path))
        assert cli.main(["lint", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "RPR112" in out

    @pytest.mark.parametrize("code", sorted(FILE_RULE_FIXTURES))
    def test_each_violating_fixture_exits_1(self, code, tmp_path,
                                            capsys):
        relpath, bad, _ = FILE_RULE_FIXTURES[code]
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(bad))
        assert cli.main(["lint", str(tmp_path)]) == 1
        assert code in capsys.readouterr().out

    def test_clean_exit_0(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text(PROPERTY_SNIPPETS["clean"])
        assert cli.main(["lint", str(tmp_path)]) == 0
        capsys.readouterr()

    def test_json_output(self, tmp_path, capsys):
        write_violating_tree(str(tmp_path))
        assert cli.main(["lint", str(tmp_path), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"] == {"RPR112": 1}

    def test_list_rules(self, capsys):
        assert cli.main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "RPR101" in out and "RPR150" in out

    def test_internal_crash_exits_2(self, tmp_path, capsys,
                                    monkeypatch):
        import repro.lint as lint_pkg

        def boom(paths):
            raise RuntimeError("lint blew up")

        monkeypatch.setattr(lint_pkg, "run_lint", boom)
        assert cli.main(["lint", str(tmp_path)]) == 2
        assert "internal error" in capsys.readouterr().err

    def test_broken_pipe_exits_1(self, monkeypatch):
        def raiser(args):
            raise BrokenPipeError()

        monkeypatch.setattr(cli, "_cmd_list", raiser)
        assert cli.main(["list"]) == 1

    def test_stats_json_unwritable_path_is_clean_error(self,
                                                       tmp_path):
        target = os.path.join(
            str(tmp_path), "no-such-dir", "stats.json"
        )
        with pytest.raises(SystemExit) as info:
            cli._write_stats_json(RunStatistics(), target)
        assert "stats-json" in str(info.value)


# ---------------------------------------------------------------------------
# The tree itself
# ---------------------------------------------------------------------------


class TestCurrentTree:
    def test_linter_is_clean_on_current_tree(self):
        report = run_lint()
        assert [v.render() for v in report.violations] == []

    def test_suppression_budget(self):
        """The acceptance bar: at most 5 inline suppressions repo-wide,
        every one of them justified."""
        import repro

        root = os.path.dirname(os.path.abspath(repro.__file__))
        total = 0
        for path in collect_files([root]):
            with open(path, encoding="utf-8") as handle:
                lines = handle.read().splitlines()
            suppressed, meta = parse_suppressions(path, lines)
            assert meta == [], f"unjustified suppression in {path}"
            total += len(suppressed)
        assert total <= 5
