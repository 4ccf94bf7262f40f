"""Tests for :mod:`repro.lint` — the repo's own invariant checker.

Three layers:

* per-rule fixture snippets (violating + clean + suppressed variants),
  including minimized reproductions of the two historical bugs the rule
  set was designed around (the PR-3 parallel-tuple ``zip`` stats fold,
  the PR-2 dead-list iteration in ``_next_event``);
* the model-consistency pass with injected microarchitectures and
  databases (fake port 9, removed store units, uncovered categories);
* the ``repro lint`` CLI: exit codes (0 clean / 1 findings / 2 crash,
  broken-pipe safe), ``--json`` round-tripping, ``--select`` /
  ``--ignore`` / ``--baseline`` filtering, and a hypothesis property
  that reports are stable under file-order shuffling.

Finally, the linter must be clean on the current tree — the acceptance
bar this PR gates CI on.
"""

import dataclasses
import json
import os
import random
import tempfile
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import cli
from repro.stats import RunStatistics
from repro.lint import all_rules, lint_paths, model_violations, run_lint
from repro.lint.framework import (
    LINT_VERSION,
    Violation,
    collect_files,
    filter_violations,
    parse_suppressions,
)


def lint_snippet(root, relpath, source, **kwargs):
    path = os.path.join(root, relpath)
    os.makedirs(os.path.dirname(path) or root, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(textwrap.dedent(source))
    kwargs.setdefault("catalog_refs", False)
    return lint_paths([root], **kwargs)


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
    "RPR120": (
        "queue_payload.py",
        """
        class Payload:  # repro-lint: queue-crossing
            transform = lambda value: value + 1
        """,
        """
        class Payload:  # repro-lint: queue-crossing
            count: int = 0
            name: str = ""
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

    def test_rpr120_registered_class_with_lock(self, tmp_path):
        report = lint_snippet(
            str(tmp_path),
            "core/runner.py",
            """
            import threading

            class FormFailure:
                guard = threading.Lock()
            """,
        )
        assert "RPR120" in codes(report)

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
# Catalog references (RPR203)
# ---------------------------------------------------------------------------


class TestCatalogReferences:
    def test_dangling_uid(self, tmp_path):
        report = lint_snippet(
            str(tmp_path),
            "core/latency.py",
            """
            def calibration(db):
                return db.by_uid("NOT_A_REAL_FORM_XYZ")
            """,
            catalog_refs=True,
        )
        assert codes(report) == ["RPR203"]

    def test_existing_uid_and_mnemonic_pass(self, tmp_path):
        report = lint_snippet(
            str(tmp_path),
            "core/latency.py",
            """
            def calibration(db):
                db.forms_for_mnemonic("MOV")
                return db.by_uid("ADD_R64_R64")
            """,
            catalog_refs=True,
        )
        assert codes(report) == []

    def test_dangling_override_reference(self, tmp_path):
        report = lint_snippet(
            str(tmp_path),
            "uarch/special.py",
            """
            from repro.uarch.overrides import override

            @override("ZZZ", "NOT_A_REAL_FORM_XYZ")
            def fix_entry(form, uarch, entry):
                return entry
            """,
            catalog_refs=True,
        )
        assert codes(report) == ["RPR203", "RPR203"]


# ---------------------------------------------------------------------------
# Model consistency (RPR201/202/204/205)
# ---------------------------------------------------------------------------


class TestModelConsistency:
    def test_current_model_is_consistent(self):
        assert model_violations() == []

    def test_fake_port_p9_fires_rpr201(self):
        from repro.uarch.configs import SKYLAKE

        fu_map = dict(SKYLAKE.fu_map)
        fu_map["int_alu"] = frozenset(fu_map["int_alu"] | {9})
        fake = dataclasses.replace(SKYLAKE, fu_map=fu_map)
        found = codes_of(model_violations(uarches=[fake]))
        assert "RPR201" in found

    def test_missing_store_unit_fires_rpr204(self):
        from repro.uarch.configs import SKYLAKE

        fu_map = dict(SKYLAKE.fu_map)
        del fu_map["store_data"]
        fake = dataclasses.replace(SKYLAKE, fu_map=fu_map)
        found = model_violations(uarches=[fake])
        assert any(
            v.code == "RPR204" and "store_data" in v.message
            for v in found
        )

    def test_unknown_iaca_version_fires_rpr204(self):
        from repro.uarch.configs import SKYLAKE

        fake = dataclasses.replace(SKYLAKE, iaca_versions=("9.9",))
        found = model_violations(uarches=[fake])
        assert any(
            v.code == "RPR204" and "9.9" in v.message for v in found
        )

    def test_uncovered_category_fires_rpr205(self):
        from repro.isa.database import (
            InstructionDatabase,
            load_default_database,
        )
        from repro.uarch.configs import SKYLAKE

        form = load_default_database().by_uid("ADD_R64_R64")
        weird = dataclasses.replace(form, category="uncovered_cat")
        found = model_violations(
            uarches=[SKYLAKE],
            database=InstructionDatabase([weird]),
        )
        assert any(
            v.code == "RPR205" and "uncovered_cat" in v.message
            for v in found
        )


def codes_of(violations):
    return [violation.code for violation in violations]


# ---------------------------------------------------------------------------
# Framework mechanics
# ---------------------------------------------------------------------------


class TestFramework:
    def test_violations_sorted_deterministically(self, tmp_path):
        for name in ("b.py", "a.py"):
            (tmp_path / name).write_text(
                "def f(x, y):\n    for i in x + y:\n        pass\n"
            )
        report = lint_paths([str(tmp_path)], catalog_refs=False)
        assert codes(report) == ["RPR112", "RPR112"]
        assert [
            os.path.basename(v.path) for v in report.violations
        ] == ["a.py", "b.py"]

    def test_collect_files_dedups_and_sorts(self, tmp_path):
        (tmp_path / "m.py").write_text("x = 1\n")
        target = str(tmp_path / "m.py")
        assert collect_files([target, str(tmp_path)]) == [target]

    def test_cache_round_trip(self, tmp_path):
        (tmp_path / "m.py").write_text(
            "def f(a, b):\n    for i in a + b:\n        pass\n"
        )
        cache_path = str(tmp_path / "lint-cache.json")
        cold = lint_paths(
            [str(tmp_path / "m.py")],
            cache_path=cache_path,
            catalog_refs=False,
        )
        warm = lint_paths(
            [str(tmp_path / "m.py")],
            cache_path=cache_path,
            catalog_refs=False,
        )
        assert cold.cache_misses == 1 and cold.cache_hits == 0
        assert warm.cache_hits == 1 and warm.cache_misses == 0
        assert warm.to_json() == cold.to_json()
        with open(cache_path, encoding="utf-8") as handle:
            assert json.load(handle)["version"] == LINT_VERSION

    def test_cache_invalidated_on_edit(self, tmp_path):
        source = tmp_path / "m.py"
        source.write_text("x = 1\n")
        cache_path = str(tmp_path / "lint-cache.json")
        lint_paths([str(source)], cache_path=cache_path,
                   catalog_refs=False)
        source.write_text(
            "def f(a, b):\n    for i in a + b:\n        pass\n"
        )
        warm = lint_paths([str(source)], cache_path=cache_path,
                          catalog_refs=False)
        assert warm.cache_misses == 1
        assert codes(warm) == ["RPR112"]

    def test_filter_select_ignore_baseline(self):
        violations = [
            Violation("RPR112", "warning", "a.py", 3, 1, "concat"),
            Violation("RPR131", "error", "a.py", 9, 1, "swallow"),
        ]
        assert codes_of(
            filter_violations(violations, select=["RPR131"])
        ) == ["RPR131"]
        assert codes_of(
            filter_violations(violations, ignore=["RPR1"])
        ) == []
        baseline = {violations[0].fingerprint()}
        assert codes_of(
            filter_violations(violations, baseline=baseline)
        ) == ["RPR131"]

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
        expected = {
            "RPR100", "RPR101", "RPR102", "RPR110", "RPR112",
            "RPR120", "RPR130", "RPR131",
            "RPR201", "RPR202", "RPR203", "RPR204", "RPR205",
            "RPR999",
        }
        assert expected <= listed


#: Snippet pool for the shuffle-stability property.
PROPERTY_SNIPPETS = {
    "concat": "def f(a, b):\n    for i in a + b:\n        pass\n",
    "swallow": (
        "def f(job):\n    try:\n        job()\n"
        "    except Exception:\n        pass\n"
    ),
    "clean": "def f(values):\n    return sorted(values)\n",
    "queue": (
        "class P:  # repro-lint: queue-crossing\n"
        "    fn = lambda: 1\n"
    ),
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
            base = lint_paths(paths, catalog_refs=False)
            shuffled = list(paths)
            random.Random(seed).shuffle(shuffled)
            other = lint_paths(shuffled, catalog_refs=False)
            assert other.to_json() == base.to_json()
            decoded = json.loads(base.to_json())
            rebuilt = [
                Violation.from_dict(v) for v in decoded["violations"]
            ]
            assert rebuilt == base.violations
            assert decoded["counts"] == base.counts()


# ---------------------------------------------------------------------------
# CLI: exit codes, output modes, filters
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

    def test_select_and_ignore(self, tmp_path, capsys):
        write_violating_tree(str(tmp_path))
        assert cli.main(
            ["lint", str(tmp_path), "--select", "RPR131"]
        ) == 0
        assert cli.main(
            ["lint", str(tmp_path), "--ignore", "RPR112"]
        ) == 0
        capsys.readouterr()

    def test_baseline_filters_accepted_findings(self, tmp_path,
                                                capsys):
        write_violating_tree(str(tmp_path))
        assert cli.main(["lint", str(tmp_path), "--json"]) == 1
        baseline = tmp_path / "baseline.json"
        baseline.write_text(capsys.readouterr().out)
        assert cli.main(
            ["lint", str(tmp_path), "--baseline", str(baseline)]
        ) == 0
        capsys.readouterr()

    def test_list_rules(self, capsys):
        assert cli.main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "RPR101" in out and "RPR205" in out

    def test_internal_crash_exits_2(self, tmp_path, capsys,
                                    monkeypatch):
        import repro.lint as lint_pkg

        def boom(**kwargs):
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
