"""repro-lint: the repo's own invariant checker (``repro lint``).

Generic linters know Python; they do not know this repository's
contracts — that content-key and codec modules must be deterministic,
that plan generators never measure, or that the measurement layer
raises only the ``BackendError`` taxonomy.  A past bug (the dead-list
iteration in ``_next_event``) violated exactly such a contract; this
package encodes them as ``ast``-visitor rules (``RPR1xx``,
:mod:`repro.lint.code_rules`) over the source tree, with inline
``# repro-lint: disable=RPRnnn (justification)`` suppressions.

It holds only checks that need the source's structure.  Where an
invariant can be made impossible to break instead, it is: the
persistence layer's lock order, lock-held writes, and crash-site
registry are enforced at runtime by :mod:`repro.core.journal`.  Checks
that read data rather than code — the ground-truth tables' ports,
divider classes, cross-table references and category coverage, the
catalog literals in the source, and the picklability of the objects
that cross the sweep pool's pipes — are tier-1 tests
(``tests/test_uarch_tables.py``, ``tests/test_catalog.py``,
``tests/test_lint.py``, ``tests/test_sweep_engine.py``).

Entry point: :func:`run_lint`.
"""

from repro.lint.framework import (
    LintReport,
    LintUsageError,
    Rule,
    Violation,
    all_rules,
    run_lint,
)

__all__ = [
    "LintReport",
    "LintUsageError",
    "Rule",
    "Violation",
    "all_rules",
    "run_lint",
]
