"""The repro-lint engine: rules, suppressions, reports.

The engine is deliberately small: a **file rule** is a function run over
one parsed module (``(path, tree, lines) -> violations``), and
:func:`run_lint` parses every file once, serially, and runs the rules
that apply to its path.  Each file's findings depend on that file alone,
so the same file set produces the same report regardless of traversal
order, which the property tests assert by shuffling.

Suppressions are inline and justified::

    risky_line()  # repro-lint: disable=RPR101 (clock feeds a log, not a key)

A suppression without a justification is itself a violation
(:data:`RPR100`): the acceptance bar for this repo is *few* suppressions,
each explaining why the contract is intentionally bent.
"""

from __future__ import annotations

import ast
import json
import os
import re
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

#: Severity tiers.  Both fail the run (exit 1); the tier tells a reader
#: whether the finding is a broken contract (``error``) or a smell the
#: contract merely discourages (``warning``).
SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"

#: The meta-rule for suppressions without a justification.
RPR100 = "RPR100"


class LintUsageError(Exception):
    """A caller mistake (a path that does not exist), as opposed to a
    lint finding: the CLI reports it on stderr and exits 2 without a
    run."""


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

#: (path-suffix filter or None, checker) pairs.
_FILE_RULES: List[Tuple[Optional[Tuple[str, ...]], Callable]] = []

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
    """Register ``fn(path, tree, lines) -> Iterable[Violation]`` as the
    checker of *rule*, run on every linted file (or only those whose
    posix path ends with one of *path_suffixes*)."""

    def decorate(fn: Callable) -> Callable:
        _FILE_RULES.append(
            (tuple(path_suffixes) if path_suffixes else None, fn)
        )
        return fn

    return decorate


def _ensure_rules_loaded() -> None:
    """Import the rule modules (registration happens at import time)."""
    from repro.lint import code_rules  # noqa: F401


def all_rules() -> List[Rule]:
    _ensure_rules_loaded()
    return [_RULES[code] for code in sorted(_RULES)]


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
) -> Tuple[List[Violation], int]:
    """(violations, suppressed_count) for one module."""
    lines = source.splitlines()
    try:
        tree = ast.parse(source)
    except SyntaxError as error:
        return (
            [
                Violation(
                    code=RPR999,
                    severity=SEVERITY_ERROR,
                    path=posix_path,
                    line=error.lineno or 1,
                    col=(error.offset or 0) + 1,
                    message=f"file does not parse: {error.msg}",
                )
            ],
            0,
        )
    suppressed_lines, violations = parse_suppressions(posix_path, lines)
    suppressed_count = 0
    for suffixes, checker in _FILE_RULES:
        if suffixes is not None and not posix_path.endswith(suffixes):
            continue
        for violation in checker(posix_path, tree, lines):
            if violation.code in suppressed_lines.get(violation.line, ()):
                suppressed_count += 1
            else:
                violations.append(violation)
    return violations, suppressed_count


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


def display_path(path: str) -> str:
    """Posix-normalized path, relative to the working directory when the
    file lives under it (stable across shuffled input order)."""
    absolute = os.path.abspath(path)
    relative = os.path.relpath(absolute, os.getcwd())
    chosen = absolute if relative.startswith("..") else relative
    return chosen.replace(os.sep, "/")


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass
class LintReport:
    """The outcome of a lint run, already sorted."""

    violations: List[Violation] = field(default_factory=list)
    files: int = 0
    suppressed: int = 0

    def counts(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for violation in self.violations:
            totals[violation.code] = totals.get(violation.code, 0) + 1
        return totals

    def to_payload(self) -> Dict[str, Any]:
        """The stable JSON shape of a run (what ``--json`` prints)."""
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


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def default_target() -> str:
    """The package source tree, found from the installed location."""
    import repro

    return os.path.dirname(os.path.abspath(repro.__file__))


def run_lint(paths: Optional[Sequence[str]] = None) -> LintReport:
    """Everything ``repro lint`` does: the code rules over every ``.py``
    file under *paths* (default: the installed ``repro`` package)."""
    _ensure_rules_loaded()
    files = collect_files([default_target()] if paths is None else paths)
    violations: List[Violation] = []
    suppressed = 0
    for path in files:
        with open(path, "rb") as handle:
            source = handle.read().decode("utf-8", errors="replace")
        file_violations, file_suppressed = _lint_one_file(
            display_path(path), source
        )
        violations.extend(file_violations)
        suppressed += file_suppressed
    return LintReport(
        violations=sorted(violations, key=Violation.sort_key),
        files=len(files),
        suppressed=suppressed,
    )
