"""repro-lint: the repo's own invariant checker (``repro lint``).

Generic linters know Python; they do not know this repository's
contracts — that content-key and codec modules must be deterministic,
that plan generators never measure, or that a port-usage table may only
name ports the microarchitecture has.  A past bug (the dead-list
iteration in ``_next_event``) violated exactly such a contract; this
package encodes them as checkable rules.

Three rule families:

* **Code invariants** (``RPR1xx``, :mod:`repro.lint.code_rules`) —
  ``ast``-visitor checks over the source tree, with inline
  ``# repro-lint: disable=RPRnnn (justification)`` suppressions.
* **Concurrency invariants** (``RPR160``–``RPR163``,
  :mod:`repro.lint.concurrency_rules`) — lockset, lock-order,
  fencing-token, and crash-site-coverage analysis of the persistence
  layer, cross-validated against the dynamic ``REPRO_LOCK_TRACE``
  recorder by the test suite.
* **Model consistency** (``RPR2xx``, :mod:`repro.lint.model_rules`) — a
  data-driven pass that imports the ground-truth tables
  (:mod:`repro.uarch`) and the instruction catalog and cross-checks
  them.

Entry points: :func:`run_lint` (everything, as the CLI does it),
:func:`lint_paths` (code rules only), and
:func:`~repro.lint.model_rules.model_violations` (model pass only).
"""

from repro.lint.framework import (
    LINT_VERSION,
    LintReport,
    LintUsageError,
    Rule,
    Violation,
    all_rules,
    changed_paths,
    lint_paths,
    rules_signature,
    run_lint,
)
from repro.lint.model_rules import model_violations

__all__ = [
    "LINT_VERSION",
    "LintReport",
    "LintUsageError",
    "Rule",
    "Violation",
    "all_rules",
    "changed_paths",
    "lint_paths",
    "model_violations",
    "rules_signature",
    "run_lint",
]
