"""RPR1xx: AST checkers for this repository's code contracts.

Each rule encodes an invariant that some subsystem relies on but that no
generic linter can know:

* ``RPR101``/``RPR102`` — the content-key, codec, and cache modules must
  be deterministic: no wall clocks, no entropy sources, no ``id()``, and
  no unordered-set iteration feeding serialized output.
* ``RPR110`` — plan generators (the *plan* stage of the
  plan/execute/interpret split) must stay measurement-free.
* ``RPR112`` — loops must not iterate freshly concatenated sequences
  (the PR-2 ``_next_event`` bug class: a per-call copy of two live
  containers).
* ``RPR130``/``RPR131`` — the measurement layer raises only the
  ``BackendError`` taxonomy, and no broad ``except`` may silently
  swallow a ``TransientBackendError``.
* ``RPR150`` — every append-mode or ``r+`` ``open()`` outside
  :mod:`repro.core.journal`, and every ``w``/``x`` ``open()`` in the
  persistence modules (``core/cache.py``, ``core/doctor.py``), is a crash-safety bypass: durable appends,
  in-place rewrites and whole-file replacements must go through the
  shared journal writers so torn-tail recovery, CRCs, the lock scope,
  durability policy, and crash points cover them.
"""

from __future__ import annotations

import ast
from itertools import chain
from typing import Iterator, List, Optional, Sequence

from repro.lint.framework import (
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    Violation,
    file_rule,
    register_rule,
)

#: Modules that build content keys, serialize results, or persist caches.
DETERMINISM_MODULES = (
    "core/cache.py",
    "core/journal.py",
    "core/result.py",
    "core/experiment.py",
)

#: Modules holding the plan stage of the four inference algorithms.
PLAN_MODULES = (
    "core/latency.py",
    "core/port_usage.py",
    "core/throughput.py",
    "core/blocking.py",
)

#: The only exception types the measurement path may construct and raise
#: (plus ``NotImplementedError`` for abstract methods).
ALLOWED_RAISES = frozenset(
    {
        "BackendError",
        "TransientBackendError",
        "PermanentBackendError",
        "BackendTimeout",
        "NotImplementedError",
    }
)

RPR101 = register_rule(
    "RPR101",
    "nondeterministic-call",
    SEVERITY_ERROR,
    "wall clock / entropy / id() call inside a determinism-contract "
    "module",
)
RPR102 = register_rule(
    "RPR102",
    "unordered-set-serialization",
    SEVERITY_ERROR,
    "unordered set iteration or serialization inside a "
    "determinism-contract module",
)
RPR110 = register_rule(
    "RPR110",
    "impure-plan-generator",
    SEVERITY_ERROR,
    "plan generator measures or touches an executor",
)
RPR112 = register_rule(
    "RPR112",
    "loop-over-concatenation",
    SEVERITY_WARNING,
    "loop iterates a freshly concatenated sequence",
)
RPR130 = register_rule(
    "RPR130",
    "non-taxonomy-raise",
    SEVERITY_ERROR,
    "measurement path raises outside the BackendError taxonomy",
)
RPR131 = register_rule(
    "RPR131",
    "swallowed-transient",
    SEVERITY_ERROR,
    "broad except silently swallows TransientBackendError",
)
RPR150 = register_rule(
    "RPR150",
    "raw-append-outside-journal",
    SEVERITY_ERROR,
    "append, r+, or store-replacing open() bypasses the shared "
    "crash-safe journal writers",
)


def _dotted(node: ast.AST) -> Optional[List[str]]:
    """``a.b.c`` as ``["a","b","c"]`` for pure Name/Attribute chains."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    parts.reverse()
    return parts


def _own_nodes(root: ast.AST) -> Iterator[ast.AST]:
    """Descendants of *root* without crossing into nested function or
    class scopes (their bodies have their own contracts)."""
    stack = list(ast.iter_child_nodes(root))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _violation(rule, path: str, node: ast.AST, message: str) -> Violation:
    return Violation(
        code=rule.code,
        severity=rule.severity,
        path=path,
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0) + 1,
        message=message,
    )


# ---------------------------------------------------------------------------
# RPR101 — determinism: banned calls
# ---------------------------------------------------------------------------

#: (module, attribute) call suffixes that read a wall clock or entropy.
#: ``time.monotonic``/``time.sleep`` stay legal: the flock retry loop in
#: ``core/cache.py`` uses them for pacing, never for key material.
_BANNED_SUFFIXES = frozenset(
    {
        ("time", "time"),
        ("time", "time_ns"),
        ("datetime", "now"),
        ("datetime", "utcnow"),
        ("datetime", "today"),
        ("date", "today"),
        ("os", "urandom"),
        ("uuid", "uuid1"),
        ("uuid", "uuid4"),
    }
)


@file_rule(RPR101, DETERMINISM_MODULES)
def check_nondeterministic_calls(
    path: str, tree: ast.AST, lines: Sequence[str]
) -> List[Violation]:
    violations = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Name) and node.func.id == "id":
            violations.append(
                _violation(
                    RPR101, path, node,
                    "id() is address-dependent and must not reach "
                    "content keys or serialized output",
                )
            )
            continue
        parts = _dotted(node.func)
        if parts is None or len(parts) < 2:
            continue
        suffix = (parts[-2], parts[-1])
        if suffix in _BANNED_SUFFIXES:
            violations.append(
                _violation(
                    RPR101, path, node,
                    f"call to {'.'.join(parts)} is nondeterministic; "
                    "determinism-contract modules must not read clocks "
                    "or entropy",
                )
            )
        elif parts[0] == "random":
            violations.append(
                _violation(
                    RPR101, path, node,
                    f"call to {'.'.join(parts)} uses the unseeded "
                    "module-level random generator",
                )
            )
    return violations


# ---------------------------------------------------------------------------
# RPR102 — determinism: unordered sets reaching iteration/serialization
# ---------------------------------------------------------------------------


def _is_unordered(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


def _scan_serialized(node: ast.AST, path: str,
                     out: List[Violation]) -> None:
    if _is_unordered(node):
        out.append(
            _violation(
                RPR102, path, node,
                "unordered set reaches json serialization; wrap it in "
                "sorted(...) to fix the element order",
            )
        )
        return
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "sorted"
    ):
        return  # sorted(...) fixes the order of whatever is inside
    for child in ast.iter_child_nodes(node):
        _scan_serialized(child, path, out)


@file_rule(RPR102, DETERMINISM_MODULES)
def check_set_serialization(
    path: str, tree: ast.AST, lines: Sequence[str]
) -> List[Violation]:
    violations: List[Violation] = []
    for node in ast.walk(tree):
        iters = []
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iters = [node.iter]
        elif isinstance(
            node, (ast.ListComp, ast.SetComp, ast.DictComp,
                   ast.GeneratorExp)
        ):
            iters = [gen.iter for gen in node.generators]
        for it in iters:
            if _is_unordered(it):
                violations.append(
                    _violation(
                        RPR102, path, it,
                        "iteration over an unordered set; iterate "
                        "sorted(...) so downstream output is "
                        "deterministic",
                    )
                )
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("dump", "dumps")
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "json"
        ):
            for arg in chain(
                node.args, (k.value for k in node.keywords)
            ):
                _scan_serialized(arg, path, violations)
    return violations


# ---------------------------------------------------------------------------
# RPR110 — plan purity
# ---------------------------------------------------------------------------


def _has_own_yield(func: ast.AST) -> bool:
    return any(
        isinstance(node, (ast.Yield, ast.YieldFrom))
        for node in _own_nodes(func)
    )


@file_rule(RPR110, PLAN_MODULES)
def check_plan_purity(
    path: str, tree: ast.AST, lines: Sequence[str]
) -> List[Violation]:
    violations: List[Violation] = []
    for stmt in getattr(tree, "body", []):
        if isinstance(stmt, ast.ImportFrom) and stmt.module and (
            stmt.module == "repro.measure.executor"
        ):
            violations.append(
                _violation(
                    RPR110, path, stmt,
                    "module-level executor import in a plan module; "
                    "defer it into the one-shot drive wrapper",
                )
            )
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        is_plan = (
            node.name.startswith("plan")
            or node.name.startswith("_plan")
            or _has_own_yield(node)
        )
        if not is_plan:
            continue
        for inner in _own_nodes(node):
            if (
                isinstance(inner, ast.Call)
                and isinstance(inner.func, ast.Attribute)
                and inner.func.attr.startswith("measure")
            ):
                violations.append(
                    _violation(
                        RPR110, path, inner,
                        f"plan generator {node.name}() calls "
                        f".{inner.func.attr}(); measurements must flow "
                        "through the yielded batch",
                    )
                )
            elif isinstance(inner, ast.Name) and inner.id in (
                "measure_isolated",
                "ExperimentExecutor",
            ):
                violations.append(
                    _violation(
                        RPR110, path, inner,
                        f"plan generator {node.name}() references "
                        f"{inner.id}; plans must not execute",
                    )
                )
    return violations


# ---------------------------------------------------------------------------
# RPR112 — loops over fresh concatenations
# ---------------------------------------------------------------------------


@file_rule(RPR112)
def check_concat_loops(
    path: str, tree: ast.AST, lines: Sequence[str]
) -> List[Violation]:
    violations = []
    for node in ast.walk(tree):
        iters = []
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iters = [node.iter]
        elif isinstance(
            node, (ast.ListComp, ast.SetComp, ast.DictComp,
                   ast.GeneratorExp)
        ):
            iters = [gen.iter for gen in node.generators]
        for it in iters:
            if isinstance(it, ast.BinOp) and isinstance(it.op, ast.Add):
                violations.append(
                    _violation(
                        RPR112, path, it,
                        "loop iterates a freshly concatenated sequence "
                        "(builds a throwaway copy each call); iterate "
                        "itertools.chain(...) over the live containers",
                    )
                )
    return violations


# ---------------------------------------------------------------------------
# RPR130 — measurement-path raise taxonomy
# ---------------------------------------------------------------------------


def _in_measure_layer(path: str) -> bool:
    return "/measure/" in path or path.startswith("measure/")


def _measurement_functions(
    tree: ast.AST,
) -> Iterator[ast.AST]:
    """Functions bound by the taxonomy contract: ``measure*`` /
    ``_measure*`` / ``_dispatch*`` functions anywhere, plus every method
    of a ``*Backend`` class."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name.endswith(
            "Backend"
        ):
            for stmt in node.body:
                if isinstance(
                    stmt, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    yield stmt
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name.lstrip("_").startswith(
                "measure"
            ) or node.name.startswith("_dispatch"):
                yield node


@file_rule(RPR130)
def check_raise_taxonomy(
    path: str, tree: ast.AST, lines: Sequence[str]
) -> List[Violation]:
    if not _in_measure_layer(path):
        return []
    violations: List[Violation] = []
    seen: set = set()
    for func in _measurement_functions(tree):
        if func in seen:
            continue
        seen.add(func)
        for node in _own_nodes(func):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            if not isinstance(node.exc, ast.Call):
                continue  # re-raise of a caught object
            parts = _dotted(node.exc.func)
            if parts is None:
                continue
            if parts[-1] not in ALLOWED_RAISES:
                violations.append(
                    _violation(
                        RPR130, path, node,
                        f"measurement path raises {parts[-1]}; only "
                        "the BackendError taxonomy may cross this "
                        "layer (retry/quarantine dispatch on it)",
                    )
                )
    return violations


# ---------------------------------------------------------------------------
# RPR131 — broad except swallowing transients
# ---------------------------------------------------------------------------


def _is_broad(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    types = (
        handler.type.elts
        if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    return any(
        isinstance(t, ast.Name) and t.id in ("Exception", "BaseException")
        for t in types
    )


@file_rule(RPR131)
def check_swallowed_transients(
    path: str, tree: ast.AST, lines: Sequence[str]
) -> List[Violation]:
    violations = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler) or not _is_broad(node):
            continue
        body_nodes = []
        for stmt in node.body:
            body_nodes.append(stmt)
            body_nodes.extend(_own_nodes(stmt))
        reraises = any(isinstance(n, ast.Raise) for n in body_nodes)
        uses_error = node.name is not None and any(
            isinstance(n, ast.Name) and n.id == node.name
            for n in body_nodes
        )
        if not reraises and not uses_error:
            violations.append(
                _violation(
                    RPR131, path, node,
                    "broad except neither re-raises nor records the "
                    "error; a TransientBackendError would be silently "
                    "swallowed instead of retried",
                )
            )
    return violations


# ---------------------------------------------------------------------------
# RPR150 — durable writes go through the shared journal writers
# ---------------------------------------------------------------------------

#: Append modes legal outside :mod:`repro.core.journal`: exactly the
#: lock-file idiom — ``open(lock_path, "a+")`` creates the sibling lock
#: without truncating it and never writes a byte through the handle.
_ALLOWED_APPEND_MODES = frozenset({"a+"})

#: Modules that open the persistent stores themselves.  In these a
#: truncating or exclusive-create open (``w``/``x``) would replace store
#: bytes outside the journal too, so RPR150 flags those modes as well.
_PERSISTENCE_SUFFIXES = (
    "core/cache.py",
    "core/doctor.py",
)


@file_rule(RPR150)
def check_raw_append(
    path: str, tree: ast.AST, lines: Sequence[str]
) -> List[Violation]:
    """Flag append-mode and ``r+`` ``open()`` calls outside the
    journal module, and ``w``/``x`` opens in the persistence modules.

    An append that bypasses :func:`repro.core.journal.append_entry`
    gets none of the crash-safety machinery — no per-line CRC, no
    torn-tail self-healing, no lock scope, no durability policy, no
    crash points — so a SIGKILL mid-write silently re-introduces the
    exact corruption class the journal eliminates.  An ``r+`` open is
    an in-place rewrite, which belongs to
    :func:`~repro.core.journal.rewrite_store` for the same reasons, and
    in a persistence module so is a truncating ``w`` or exclusive
    ``x`` open (whole-file states publish through
    :func:`~repro.core.journal.publish_blob`).
    """
    if path.endswith("core/journal.py"):
        return []
    replaces = path.endswith(_PERSISTENCE_SUFFIXES)
    violations = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        parts = _dotted(node.func)
        if not parts or parts[-1] != "open":
            continue
        mode: Optional[ast.AST] = (
            node.args[1] if len(node.args) >= 2 else None
        )
        for keyword in node.keywords:
            if keyword.arg == "mode":
                mode = keyword.value
        if not (
            isinstance(mode, ast.Constant)
            and isinstance(mode.value, str)
        ):
            continue
        writes_in_place = "r" in mode.value and "+" in mode.value
        replaces_store = replaces and ("w" in mode.value or "x" in mode.value)
        if "a" not in mode.value and not (writes_in_place or replaces_store):
            continue
        if mode.value in _ALLOWED_APPEND_MODES:
            continue
        violations.append(
            _violation(
                RPR150, path, node,
                f"open(..., {mode.value!r}) writes a store outside "
                "repro.core.journal; route durable writes through "
                "journal.append_entry / quarantine_lines / "
                "publish_blob / rewrite_store ('a+' lock files are "
                "exempt)",
            )
        )
    return violations
