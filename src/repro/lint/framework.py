"""The repro-lint engine: rules, suppressions, caching, reports.

The engine is deliberately small: a **file rule** is a function run over
one parsed module (``(path, tree, lines) -> violations``); a **fact
extractor** distills per-file facts (hard-coded catalog references)
that the cross-file catalog check (RPR203) validates after every file
was visited.  Each phase is pure and deterministic: the same
file set produces the same report regardless of traversal order, which
the property tests assert by shuffling.

Per-file results (violations + facts) are cached in a JSON file keyed by
the file's SHA-256 and :data:`LINT_VERSION`, so a CI run on an unchanged
tree skips the AST pass entirely.  The cross-file check re-runs from
cached facts — it is a cheap dictionary comparison.

Suppressions are inline and justified::

    risky_line()  # repro-lint: disable=RPR101 (clock feeds a log, not a key)

A suppression without a justification is itself a violation
(:data:`RPR100`): the acceptance bar for this repo is *few* suppressions,
each explaining why the contract is intentionally bent.
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
import re
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

#: Bumped whenever the cache *format* changes.  Rule-behaviour changes
#: no longer need a bump: the cache is additionally keyed on
#: :func:`rules_signature`, a hash of the rule modules' sources, so any
#: edit to the lint package invalidates stale entries automatically.
LINT_VERSION = "3"

#: Severity tiers.  Both fail the run (exit 1); the tier tells a reader
#: whether the finding is a broken contract (``error``) or a smell the
#: contract merely discourages (``warning``).
SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"

#: The meta-rule for suppressions without a justification.
RPR100 = "RPR100"


class LintUsageError(Exception):
    """A caller mistake (bad path, bad git base), as opposed to a lint
    finding: the CLI reports it on stderr and exits 1 without a run."""


_RULES_SIGNATURE: Optional[str] = None


def rules_signature() -> str:
    """A digest of every rule module's source (plus :data:`LINT_VERSION`).

    Cache entries are keyed on this, so editing any file of the lint
    package — a new rule, a changed message, a fixed false positive —
    invalidates prior cached results without anyone remembering to bump
    a version constant."""
    global _RULES_SIGNATURE
    if _RULES_SIGNATURE is None:
        digest = hashlib.sha256()
        digest.update(LINT_VERSION.encode("utf-8"))
        package_dir = os.path.dirname(os.path.abspath(__file__))
        for name in sorted(os.listdir(package_dir)):
            if not name.endswith(".py"):
                continue
            digest.update(name.encode("utf-8") + b"\x00")
            with open(os.path.join(package_dir, name), "rb") as handle:
                digest.update(handle.read())
            digest.update(b"\x00")
        _RULES_SIGNATURE = digest.hexdigest()
    return _RULES_SIGNATURE

_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*disable=("
    r"[A-Z]{3}\d{3}(?:\s*,\s*[A-Z]{3}\d{3})*)"
    r"(.*)$"
)


@dataclass(frozen=True)
class Violation:
    """One finding: a rule code anchored to a file position."""

    code: str
    severity: str
    path: str
    line: int
    col: int
    message: str

    def sort_key(self) -> Tuple:
        return (self.path, self.line, self.col, self.code, self.message)

    def fingerprint(self) -> Tuple[str, str, str]:
        """Identity for ``--baseline`` matching: deliberately excludes
        line/col so accepted findings survive unrelated edits above
        them."""
        return (self.path, self.code, self.message)

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.code} [{self.severity}] {self.message}"
        )

    def as_dict(self) -> Dict[str, Any]:
        return {
            "code": self.code,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Violation":
        return cls(
            code=data["code"],
            severity=data["severity"],
            path=data["path"],
            line=data["line"],
            col=data["col"],
            message=data["message"],
        )


@dataclass(frozen=True)
class Rule:
    """Metadata of one rule code (the catalog ``repro lint --list-rules``
    and ``docs/static-analysis.md`` present)."""

    code: str
    name: str
    severity: str
    summary: str


#: code -> Rule, populated by the registration decorators.
_RULES: Dict[str, Rule] = {}

#: (rule code, path-suffix filter or None, checker) triples.
_FILE_RULES: List[Tuple[Rule, Optional[Tuple[str, ...]], Callable]] = []

#: Per-file fact extractors: ``(posix_path, tree) -> dict``.
_FACT_EXTRACTORS: List[Callable[[str, ast.AST], Dict[str, Any]]] = []

_RULES[RPR100] = Rule(
    code=RPR100,
    name="unjustified-suppression",
    severity=SEVERITY_ERROR,
    summary="a repro-lint suppression comment carries no justification",
)

#: Emitted when a file cannot be parsed at all.
RPR999 = "RPR999"
_RULES[RPR999] = Rule(
    code=RPR999,
    name="unparseable-file",
    severity=SEVERITY_ERROR,
    summary="the file does not parse; no rule can check it",
)


def register_rule(code: str, name: str, severity: str,
                  summary: str) -> Rule:
    if code in _RULES:
        raise AssertionError(f"duplicate lint rule code {code}")
    rule = Rule(code=code, name=name, severity=severity, summary=summary)
    _RULES[code] = rule
    return rule


def file_rule(
    rule: Rule, path_suffixes: Optional[Sequence[str]] = None
) -> Callable:
    """Register ``fn(path, tree, lines) -> Iterable[Violation]`` to run
    on every linted file (or only those whose posix path ends with one
    of *path_suffixes*)."""

    def decorate(fn: Callable) -> Callable:
        _FILE_RULES.append(
            (rule, tuple(path_suffixes) if path_suffixes else None, fn)
        )
        return fn

    return decorate


def fact_extractor(fn: Callable) -> Callable:
    _FACT_EXTRACTORS.append(fn)
    return fn


def _ensure_rules_loaded() -> None:
    """Import the rule modules (registration happens at import time)."""
    from repro.lint import code_rules  # noqa: F401


def all_rules() -> List[Rule]:
    _ensure_rules_loaded()
    from repro.lint.model_rules import MODEL_RULES  # registered lazily

    catalog = dict(_RULES)
    for rule in MODEL_RULES.values():
        catalog.setdefault(rule.code, rule)
    return [catalog[code] for code in sorted(catalog)]


def rule_for(code: str) -> Rule:
    return _RULES[code]


# ---------------------------------------------------------------------------
# Suppressions
# ---------------------------------------------------------------------------


def parse_suppressions(
    posix_path: str, lines: Sequence[str]
) -> Tuple[Dict[int, Set[str]], List[Violation]]:
    """Per-line suppressed codes, plus RPR100 findings for suppressions
    whose trailing text carries no justification."""
    suppressed: Dict[int, Set[str]] = {}
    meta: List[Violation] = []
    for lineno, line in enumerate(lines, start=1):
        match = _SUPPRESS_RE.search(line)
        if match is None:
            continue
        codes = {part.strip() for part in match.group(1).split(",")}
        suppressed[lineno] = codes
        justification = match.group(2).strip().strip("—-:() .")
        if not justification:
            meta.append(
                Violation(
                    code=RPR100,
                    severity=SEVERITY_ERROR,
                    path=posix_path,
                    line=lineno,
                    col=line.index("#") + 1,
                    message=(
                        "suppression of "
                        f"{', '.join(sorted(codes))} has no "
                        "justification; append one, e.g. "
                        "`# repro-lint: disable=RPR101 (why it is safe)`"
                    ),
                )
            )
    return suppressed, meta


# ---------------------------------------------------------------------------
# The per-file pass
# ---------------------------------------------------------------------------


def _lint_one_file(
    posix_path: str, source: str
) -> Tuple[List[Violation], Dict[str, Any], int]:
    """(violations, facts, suppressed_count) for one module."""
    lines = source.splitlines()
    try:
        tree = ast.parse(source)
    except SyntaxError as error:
        return (
            [
                Violation(
                    code="RPR999",
                    severity=SEVERITY_ERROR,
                    path=posix_path,
                    line=error.lineno or 1,
                    col=(error.offset or 0) + 1,
                    message=f"file does not parse: {error.msg}",
                )
            ],
            {},
            0,
        )
    suppressed_lines, violations = parse_suppressions(posix_path, lines)
    raw: List[Violation] = []
    for rule, suffixes, checker in _FILE_RULES:
        if suffixes is not None and not any(
            posix_path.endswith(suffix) for suffix in suffixes
        ):
            continue
        raw.extend(checker(posix_path, tree, lines))
    suppressed_count = 0
    for violation in raw:
        if violation.code in suppressed_lines.get(violation.line, ()):
            suppressed_count += 1
            continue
        violations.append(violation)
    facts: Dict[str, Any] = {}
    for extractor in _FACT_EXTRACTORS:
        facts.update(extractor(posix_path, tree))
    if suppressed_lines:
        # The cross-file check anchors violations back into files after
        # the per-file pass; record the suppression map (JSON-safe string
        # keys — facts round-trip through the cache) so those findings
        # honor inline suppressions too.
        facts["_suppressed_lines"] = {
            str(line): sorted(codes)
            for line, codes in suppressed_lines.items()
        }
    return violations, facts, suppressed_count


# ---------------------------------------------------------------------------
# File collection and caching
# ---------------------------------------------------------------------------


def collect_files(paths: Sequence[str]) -> List[str]:
    """All ``.py`` files under *paths*, sorted, ``__pycache__`` skipped.

    A path that does not exist raises :class:`LintUsageError`: a typo'd
    target silently linting zero files would report a clean run."""
    found: Set[str] = set()
    for path in paths:
        if os.path.isfile(path):
            found.add(path)
            continue
        if not os.path.isdir(path):
            raise LintUsageError(f"no such file or directory: {path}")
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(
                d for d in dirnames
                if d != "__pycache__" and not d.endswith(".egg-info")
            )
            for filename in filenames:
                if filename.endswith(".py"):
                    found.add(os.path.join(dirpath, filename))
    return sorted(found)


def changed_paths(base: str = "HEAD", root: Optional[str] = None
                  ) -> List[str]:
    """The ``.py`` files changed relative to git ref *base* (deletions
    excluded), for ``repro lint --changed``.

    When the repo-wide gate's root (:func:`default_target`) lives inside
    the diffed repository, only changed files under it are returned —
    ``--changed`` approximates the full gate on a subset, and must never
    be *stricter* than it (the gate does not lint ``tests/``).  Diffing
    some other repository leaves every changed ``.py`` file in scope.

    An unusable base or a non-repository raises :class:`LintUsageError`.
    Files deleted from disk since the diff are dropped; an empty list is
    a legitimate result (nothing to lint)."""
    import subprocess

    command = [
        "git", "diff", "--name-only", "--diff-filter=d", base, "--",
    ]
    try:
        proc = subprocess.run(
            command,
            cwd=root,
            capture_output=True,
            text=True,
            check=False,
        )
    except OSError as error:
        raise LintUsageError(f"cannot run git: {error}")
    if proc.returncode != 0:
        detail = proc.stderr.strip().splitlines()
        raise LintUsageError(
            f"git diff against {base!r} failed: "
            + (detail[0] if detail else "unknown error")
        )
    prefix = root or "."
    gate_root = os.path.abspath(default_target())
    repo_root = os.path.abspath(prefix)
    gate_scoped = gate_root.startswith(repo_root + os.sep)
    changed = []
    for line in proc.stdout.splitlines():
        if not line.endswith(".py"):
            continue
        path = os.path.join(prefix, line) if prefix != "." else line
        if gate_scoped:
            absolute = os.path.abspath(path)
            if absolute != gate_root and not absolute.startswith(
                gate_root + os.sep
            ):
                continue
        if os.path.isfile(path):
            changed.append(path)
    return sorted(changed)


def display_path(path: str) -> str:
    """Posix-normalized path, relative to the working directory when the
    file lives under it (stable across shuffled input order)."""
    absolute = os.path.abspath(path)
    relative = os.path.relpath(absolute, os.getcwd())
    chosen = absolute if relative.startswith("..") else relative
    return chosen.replace(os.sep, "/")


class LintCache:
    """Sha-keyed per-file memo of (violations, facts, suppressed)."""

    def __init__(self, path: Optional[str]):
        self.path = path
        self._entries: Dict[str, Dict[str, Any]] = {}
        self.hits = 0
        self.misses = 0
        if path and os.path.exists(path):
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    stored = json.load(handle)
            except (OSError, ValueError):
                stored = None
            if (
                isinstance(stored, dict)
                and stored.get("version") == LINT_VERSION
                and stored.get("rules") == rules_signature()
                and isinstance(stored.get("files"), dict)
            ):
                self._entries = stored["files"]

    def get(self, posix_path: str, sha: str):
        entry = self._entries.get(posix_path)
        if entry is None or entry.get("sha") != sha:
            self.misses += 1
            return None
        self.hits += 1
        return (
            [Violation.from_dict(v) for v in entry["violations"]],
            entry["facts"],
            entry["suppressed"],
        )

    def put(
        self,
        posix_path: str,
        sha: str,
        violations: List[Violation],
        facts: Dict[str, Any],
        suppressed: int,
    ) -> None:
        self._entries[posix_path] = {
            "sha": sha,
            "violations": [v.as_dict() for v in violations],
            "facts": facts,
            "suppressed": suppressed,
        }

    def save(self) -> None:
        if not self.path:
            return
        payload = {
            "version": LINT_VERSION,
            "rules": rules_signature(),
            "files": self._entries,
        }
        with open(self.path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True)
            handle.write("\n")


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass
class LintReport:
    """The outcome of a lint run, already sorted and filtered."""

    violations: List[Violation] = field(default_factory=list)
    files: int = 0
    suppressed: int = 0
    cache_hits: int = 0
    cache_misses: int = 0

    def counts(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for violation in self.violations:
            totals[violation.code] = totals.get(violation.code, 0) + 1
        return totals

    def to_payload(self) -> Dict[str, Any]:
        """The stable JSON shape of a run (shared by ``--json`` and the
        ``--baseline`` loader)."""
        return {
            "violations": [v.as_dict() for v in self.violations],
            "counts": self.counts(),
            "files": self.files,
            "suppressed": self.suppressed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), indent=2, sort_keys=True)

    def render_text(self) -> str:
        lines = [v.render() for v in self.violations]
        counts = self.counts()
        summary = (
            f"{len(self.violations)} violation(s) in {self.files} "
            f"file(s), {self.suppressed} suppressed"
        )
        if counts:
            summary += " (" + ", ".join(
                f"{code}: {n}" for code, n in sorted(counts.items())
            ) + ")"
        lines.append(summary)
        return "\n".join(lines)


def _selected(code: str, select: Optional[Sequence[str]],
              ignore: Optional[Sequence[str]]) -> bool:
    """Prefix-based code filtering, like ruff's --select/--ignore."""
    if select and not any(code.startswith(p) for p in select):
        return False
    if ignore and any(code.startswith(p) for p in ignore):
        return False
    return True


def load_baseline(path: str) -> Set[Tuple[str, str, str]]:
    """Fingerprints of a previously accepted ``--json`` report."""
    with open(path, "r", encoding="utf-8") as handle:
        stored = json.load(handle)
    entries = stored.get("violations", []) if isinstance(stored, dict) \
        else stored
    return {
        Violation.from_dict(entry).fingerprint() for entry in entries
    }


def filter_violations(
    violations: Iterable[Violation],
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
    baseline: Optional[Set[Tuple[str, str, str]]] = None,
) -> List[Violation]:
    kept = [
        violation
        for violation in violations
        if _selected(violation.code, select, ignore)
        and (baseline is None or violation.fingerprint() not in baseline)
    ]
    return sorted(kept, key=Violation.sort_key)


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def _lint_worker(item: Tuple[str, str]):
    """Process-pool entry: rule registration happens per worker (the
    registries are module globals, rebuilt on child import)."""
    posix_path, source = item
    _ensure_rules_loaded()
    return _lint_one_file(posix_path, source)


def lint_paths(
    paths: Sequence[str],
    cache_path: Optional[str] = None,
    catalog_refs: bool = True,
    jobs: Optional[int] = None,
) -> LintReport:
    """Run the code-invariant rules (and the catalog-reference fileset
    check, unless disabled) over every ``.py`` file under *paths*.

    With ``jobs > 1`` the per-file passes of cache misses run in a
    process pool; results are merged in sorted file order, so the
    report is byte-identical to a serial run.

    Returns an **unfiltered** report; ``--select/--ignore/--baseline``
    are applied by :func:`run_lint` so the cache stores complete runs.
    """
    _ensure_rules_loaded()
    cache = LintCache(cache_path)
    violations: List[Violation] = []
    facts_by_path: Dict[str, Dict[str, Any]] = {}
    suppressed = 0
    files = collect_files(paths)
    results_by_path: Dict[str, Tuple[List[Violation], Dict[str, Any], int]] = {}
    pending: List[Tuple[str, str, str]] = []  # (posix, source, sha)
    for path in files:
        posix_path = display_path(path)
        with open(path, "rb") as handle:
            blob = handle.read()
        sha = hashlib.sha256(blob).hexdigest()
        cached = cache.get(posix_path, sha)
        if cached is None:
            pending.append(
                (posix_path, blob.decode("utf-8", errors="replace"), sha)
            )
        else:
            results_by_path[posix_path] = cached
    fresh = None
    if jobs and jobs > 1 and len(pending) > 1:
        try:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=jobs) as pool:
                fresh = list(
                    pool.map(
                        _lint_worker,
                        [(posix, source) for posix, source, _sha in pending],
                        chunksize=8,
                    )
                )
        except (ImportError, OSError, PermissionError):
            fresh = None  # no usable multiprocessing here: run serially
    if fresh is None:
        fresh = [
            _lint_one_file(posix, source)
            for posix, source, _sha in pending
        ]
    for (posix_path, _source, sha), result in zip(pending, fresh):
        cache.put(posix_path, sha, *result)
        results_by_path[posix_path] = result
    for path in files:
        posix_path = display_path(path)
        file_violations, facts, file_suppressed = results_by_path[posix_path]
        violations.extend(file_violations)
        facts_by_path[posix_path] = facts
        suppressed += file_suppressed
    crossfile: List[Violation] = []
    if catalog_refs:
        from repro.lint.model_rules import catalog_reference_violations

        crossfile.extend(catalog_reference_violations(facts_by_path))
    for violation in crossfile:
        at_line = (
            facts_by_path.get(violation.path, {})
            .get("_suppressed_lines", {})
            .get(str(violation.line), ())
        )
        if violation.code in at_line:
            suppressed += 1
        else:
            violations.append(violation)
    cache.save()
    return LintReport(
        violations=sorted(violations, key=Violation.sort_key),
        files=len(files),
        suppressed=suppressed,
        cache_hits=cache.hits,
        cache_misses=cache.misses,
    )


def default_target() -> str:
    """The package source tree, found from the installed location."""
    import repro

    return os.path.dirname(os.path.abspath(repro.__file__))


def run_lint(
    paths: Optional[Sequence[str]] = None,
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
    baseline_path: Optional[str] = None,
    cache_path: Optional[str] = None,
    model: Optional[bool] = None,
    jobs: Optional[int] = None,
) -> LintReport:
    """Everything ``repro lint`` does: code rules over *paths* (default:
    the installed ``repro`` package) plus — by default when linting the
    package itself — the model-consistency pass."""
    if model is None:
        model = paths is None
    target = list(paths) if paths else [default_target()]
    report = lint_paths(target, cache_path=cache_path, jobs=jobs)
    violations = list(report.violations)
    if model:
        from repro.lint.model_rules import model_violations

        violations.extend(model_violations())
    baseline = load_baseline(baseline_path) if baseline_path else None
    report.violations = filter_violations(
        violations, select=select, ignore=ignore, baseline=baseline
    )
    return report
