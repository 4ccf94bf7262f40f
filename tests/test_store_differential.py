"""Differential tests: the closed-form store and divider paths vs. the
reference loop.

The analytic tier serves loop-invariant store and divider bodies in
closed form: one copy is evaluated to learn its memory accesses, and
structural rename reuses them for every copy
(:func:`repro.measure.extrapolate._analytic_unrolled`).  That is exact
only while every copy computes the same effective addresses, which
:func:`~repro.measure.extrapolate._fixed_addresses` guards.  Divider
bodies additionally take each copy's operand value classes from
emulating the operands' backward slice alone, and schedule each unroll
target on its own synthesized stream.  These tests pin all of it with
exact ``CounterValues`` equality against ``kernel="reference"``:

* every non-divider, memory-writing catalog form on SKL and NHM, in the
  bodies the latency, throughput and port-usage planners build for it
  (aliasing bodies such as ``XCHG_M16_R16`` and ``CMPXCHG_M32_R32``
  included);
* every divider form on SKL and NHM, with the default and the paper
  unroll targets, in its planner bodies;
* the guards: written address registers and push/pop/call/ret bodies
  decline the closed form and stay exact run at full length; divider
  bodies with a written memory base, a stack access or a class sequence
  that is not periodic within the snapshot budget keep ``Core.run``.

Port-usage bodies are long (a blocking prefix of up to ~180
instructions), so by default one port-usage body per store form and
one body per divider form are checked; ``REPRO_FUZZ_EXAMPLES`` >= 400
(the CI ``sim-fuzz`` job) checks all.
"""

from __future__ import annotations

import os

import pytest

from repro.core.codegen import instantiate
from repro.core.runner import CharacterizationRunner
from repro.isa.assembler import parse_sequence
from repro.isa.database import load_default_database
from repro.measure import extrapolate
from repro.measure.backend import HardwareBackend, MeasurementConfig
from repro.measure.extrapolate import (
    _analytic_unrolled,
    _fixed_addresses,
    _uses_divider,
    _uses_stores,
    unrolled_counters,
)
from repro.pipeline.core import Core
from repro.stats import RunStatistics
from repro.uarch.configs import get_uarch

from tests.test_sim_differential import assert_identical

DATABASE = load_default_database()

UARCH_NAMES = ["SKL", "NHM"]

_CONFIG = MeasurementConfig()
TARGETS = (_CONFIG.unroll_small, _CONFIG.unroll_large)

_PAPER = MeasurementConfig.paper()
UNROLL_TARGETS = {
    "default": TARGETS,
    "paper": (_PAPER.unroll_small, _PAPER.unroll_large),
}

#: Check every port-usage body at this fuzz budget (one per form below).
_ALL_PORT_BODIES = int(os.environ.get("REPRO_FUZZ_EXAMPLES", "100")) >= 400


class _RecordingBackend(HardwareBackend):
    """A backend that keeps every experiment the planners dispatch."""

    def __init__(self, uarch):
        super().__init__(uarch)
        self.experiments = {}

    def measure_many(self, experiments):
        for experiment in experiments:
            self.experiments.setdefault(experiment, experiment.tag)
        return super().measure_many(experiments)


def _catalog_forms(core, keep):
    """Supported catalog forms whose instance satisfies ``keep``."""
    forms = []
    for form in DATABASE:
        if not core.supports(form):
            continue
        try:
            instruction = instantiate(form)
        except (KeyError, ValueError):
            continue
        if keep([instruction]):
            forms.append(form)
    return forms


def _store_forms(core):
    return _catalog_forms(
        core,
        lambda code: _uses_stores(core, code)
        and not _uses_divider(core, code),
    )


def _divider_forms(core):
    return _catalog_forms(core, lambda code: _uses_divider(core, code))


_PLANNED = {}


def _recorded(uarch_name, select_forms):
    """``(core, forms, [(tag, experiment)])``: every experiment the
    planners dispatch for the selected forms, sorted by tag."""
    backend = _RecordingBackend(get_uarch(uarch_name))
    runner = CharacterizationRunner(backend, DATABASE)
    runner.blocking  # discovery bodies are not under test
    backend.experiments.clear()
    core = backend._core
    forms = select_forms(core)
    for form in forms:
        runner.characterize(form)
    experiments = sorted(
        ((tag, experiment) for experiment, tag
         in backend.experiments.items()),
        key=lambda item: item[0],
    )
    return core, forms, experiments


def planner_bodies(uarch_name):
    """``(forms, [(tag, code, init)])``: every memory-writing,
    non-divider body the planners build for the store forms."""
    if uarch_name not in _PLANNED:
        core, forms, experiments = _recorded(uarch_name, _store_forms)
        bodies = []
        ports_seen = set()
        for tag, experiment in experiments:
            code = experiment.code
            if not _uses_stores(core, code) or _uses_divider(core, code):
                continue
            if tag.startswith("ports:") and not _ALL_PORT_BODIES:
                form_uid = tag.split(":")[2]
                if form_uid in ports_seen:
                    continue
                ports_seen.add(form_uid)
            bodies.append((tag, code, experiment.init_dict()))
        _PLANNED[uarch_name] = (forms, bodies)
    return _PLANNED[uarch_name]


def divider_bodies(uarch_name):
    """``(forms, [(tag, code, init)])``: the divider bodies the planners
    build for the divider forms — all of them at the full fuzz budget,
    else one per form (its first value-pinned latency body, the shape
    whose classes the planner steers)."""
    key = (uarch_name, "divider")
    if key not in _PLANNED:
        core, forms, experiments = _recorded(uarch_name, _divider_forms)
        uids = {form.uid for form in forms}
        bodies = []
        seen = set()
        for tag, experiment in sorted(
            experiments,
            key=lambda item: (not item[0].startswith("lat:div:"), item[0]),
        ):
            code = experiment.code
            if not _uses_divider(core, code):
                continue
            uid = next((p for p in tag.split(":") if p in uids), None)
            if not _ALL_PORT_BODIES:
                if uid is None or uid in seen:
                    continue
                seen.add(uid)
            bodies.append((tag, code, experiment.init_dict()))
        _PLANNED[key] = (forms, bodies)
    return _PLANNED[key]


@pytest.mark.parametrize("uarch_name", UARCH_NAMES)
class TestPlannerStoreBodies:
    """Every store form, every planner shape, exact against reference."""

    def test_closed_form_matches_reference(self, uarch_name):
        uarch = get_uarch(uarch_name)
        forms, bodies = planner_bodies(uarch_name)
        assert len(forms) > 200
        reference = Core(uarch, kernel="reference")
        covered = set()
        closed = declined = 0
        for tag, code, init in bodies:
            core = Core(uarch, kernel="analytic")
            stats = RunStatistics()
            results = _analytic_unrolled(core, code, init, TARGETS, stats)
            if results is None:
                assert not _fixed_addresses(code), tag
                declined += 1
                continue
            closed += 1
            covered.update(i.form.uid for i in code)
            for t in TARGETS:
                assert_identical(
                    results[t],
                    reference.run(list(code) * t, init),
                    f"({uarch_name} {tag} x{t})",
                )
        # Every store form with loop-invariant addresses reaches the
        # closed form, and the guard declines only a minority of bodies
        # (stack forms and pointer-chasing latency chains).
        assert {
            form.uid for form in forms
            if _fixed_addresses([instantiate(form)])
        } <= covered
        assert declined < closed / 4, (declined, closed)

    @pytest.mark.parametrize("uid", ["XCHG_M16_R16", "CMPXCHG_M32_R32"])
    def test_aliasing_bodies_through_the_ladder(self, uarch_name, uid):
        """Store and reload of one address in one body: forwarding
        dependencies are part of the templates, hence of the memo key."""
        uarch = get_uarch(uarch_name)
        _forms, bodies = planner_bodies(uarch_name)
        reference = Core(uarch, kernel="reference")
        core = Core(uarch, kernel="analytic")
        mine = [
            (tag, code, init) for tag, code, init in bodies
            if uid in tag.split(":")
        ]
        assert any(tag.startswith("lat:") for tag, _c, _i in mine)
        for tag, code, init in mine:
            results, stats = unrolled_counters(core, code, init, TARGETS)
            # Pointer-chasing latency chains move their addresses and
            # are simulated in full; every other body is closed form.
            served = _fixed_addresses(code)
            assert stats.runs_full == (0 if served else len(TARGETS)), tag
            assert stats.declined_moving_addresses == (not served), tag
            for t in TARGETS:
                assert_identical(
                    results[t],
                    reference.run(list(code) * t, init),
                    f"({uarch_name} {tag} x{t})",
                )


#: Bodies whose addresses move between copies: the guard must decline.
_MOVING = {
    "written base": "MOV qword ptr [RAX], RBX\nADD RAX, RCX",
    "pointer chase through memory": (
        "MOV qword ptr [RAX], RBX\nMOV RAX, qword ptr [RAX]"
    ),
    "written index": "MOV qword ptr [RAX+RSI*8], RBX\nINC RSI",
    "partial write of the base": "MOV qword ptr [RAX], RBX\nMOV AL, CL",
    "push/pop": "PUSH RAX\nPOP RBX",
    "push into a store": "MOV qword ptr [RDX], RBX\nPUSH RAX",
    "call/ret": "CALL RAX\nRET",
}

#: Loop-invariant store bodies: the guard must accept.
_FIXED = {
    "store": "MOV qword ptr [RAX], RBX",
    "store and reload": "MOV qword ptr [RAX], RBX\nMOV RCX, qword ptr [RAX]",
    "read-modify-write": "ADD qword ptr [RAX], RBX\nADD RBX, RCX",
    "exchange": "XCHG word ptr [RBX], CX",
}


@pytest.mark.parametrize("uarch_name", UARCH_NAMES)
class TestGuard:

    @pytest.mark.parametrize("name", sorted(_MOVING))
    def test_moving_addresses_decline(self, uarch_name, name):
        uarch = get_uarch(uarch_name)
        code = parse_sequence(_MOVING[name], DATABASE)
        assert not _fixed_addresses(code)
        core = Core(uarch, kernel="analytic")
        if not all(core.supports(i) for i in code):
            pytest.skip(f"{name}: unsupported on {uarch_name}")
        assert _analytic_unrolled(
            core, code, None, TARGETS, RunStatistics()
        ) is None
        results, stats = unrolled_counters(core, code, None, TARGETS)
        assert stats.runs_analytic == 0
        reference = Core(uarch, kernel="reference")
        for t in TARGETS:
            assert_identical(
                results[t], reference.run(list(code) * t),
                f"({uarch_name} {name} x{t})",
            )

    @pytest.mark.parametrize("name", sorted(_FIXED))
    def test_fixed_addresses_accepted(self, uarch_name, name):
        uarch = get_uarch(uarch_name)
        code = parse_sequence(_FIXED[name], DATABASE)
        assert _fixed_addresses(code)
        core = Core(uarch, kernel="analytic")
        init = {"RBX": 7, "RCX": 0x20}
        results = _analytic_unrolled(
            core, code, init, TARGETS, RunStatistics()
        )
        assert results is not None
        reference = Core(uarch, kernel="reference")
        for t in TARGETS:
            assert_identical(
                results[t], reference.run(list(code) * t, init),
                f"({uarch_name} {name} x{t})",
            )


@pytest.mark.parametrize("targets_name", sorted(UNROLL_TARGETS))
@pytest.mark.parametrize("uarch_name", UARCH_NAMES)
def test_divider_bodies_match_reference(uarch_name, targets_name):
    """Every divider form's planner bodies, at the default (5/25) and
    the paper (10/110) unroll targets: slice-only value classes,
    class-aware structural rename and the longest target's synthesized
    stream, read as a prefix, reproduce the reference loop exactly.  A
    divider reorder declines the body to the full rung instead."""
    uarch = get_uarch(uarch_name)
    targets = UNROLL_TARGETS[targets_name]
    forms, bodies = divider_bodies(uarch_name)
    assert len(forms) >= 30
    reference = Core(uarch, kernel="reference")
    covered = set()
    for tag, code, init in bodies:
        core = Core(uarch)
        results, stats = unrolled_counters(core, code, init, targets)
        assert stats.runs_full == len(targets) * stats.divider_reorders, tag
        assert stats.runs_analytic + stats.runs_full == len(targets), tag
        covered.update(i.form.uid for i in code)
        for t in targets:
            assert_identical(
                results[t],
                reference.run(list(code) * t, init),
                f"({uarch_name} {tag} x{t})",
            )
    assert {form.uid for form in forms} <= covered


def test_fixed_address_divider_never_runs_core(monkeypatch):
    """A divider body with loop-invariant addresses is served without a
    single ``Core.run``: in closed form, off one synthesized stream."""
    code = parse_sequence(
        "MOV qword ptr [RSI], RCX\nDIV qword ptr [RSI]\nAND RAX, 255",
        DATABASE,
    )

    def refuse(*_args, **_kwargs):
        raise AssertionError("Core.run called for a fixed-address divider")

    uarch = get_uarch("SKL")
    core = Core(uarch)
    monkeypatch.setattr(Core, "run", refuse)
    results, stats = unrolled_counters(core, code, {"RCX": 3}, TARGETS)
    assert stats.runs_analytic == len(TARGETS)
    assert stats.cycles_analytic > 0
    monkeypatch.undo()
    reference = Core(uarch, kernel="reference")
    for t in TARGETS:
        assert_identical(
            results[t], reference.run(list(code) * t, {"RCX": 3}),
            f"(SKL fixed-address divider x{t})",
        )


#: Divider bodies the closed form must decline (``Core.run`` serves).
_DIVIDER_DECLINED = {
    "written memory base": "DIV qword ptr [RSI]\nADD RSI, 8",
    "push/pop": "PUSH RAX\nDIV RCX\nPOP RAX",
}

#: The dividend grows by 0x10000 per copy: fast for 16 copies, then slow
#: — a class sequence with no period within the default snapshot budget.
_FLIPPING = "MOV RAX, R8\nXOR EDX, EDX\nDIV RCX\nADD R8, 65536"
_FLIPPING_INIT = {"R8": 0, "RCX": 3}


class TestDividerGuard:

    def _check(self, uarch, code, init, served):
        core = Core(uarch)
        analytic = _analytic_unrolled(
            core, code, init, TARGETS, RunStatistics()
        )
        assert (analytic is not None) is served
        results, stats = unrolled_counters(core, code, init, TARGETS)
        served_by = stats.runs_analytic if served else stats.runs_full
        assert served_by == len(TARGETS)
        reference = Core(uarch, kernel="reference")
        for t in TARGETS:
            assert_identical(
                results[t], reference.run(list(code) * t, init),
                f"({uarch.name} divider x{t})",
            )

    @pytest.mark.parametrize("name", sorted(_DIVIDER_DECLINED))
    def test_moving_addresses_decline(self, name):
        code = parse_sequence(_DIVIDER_DECLINED[name], DATABASE)
        assert not _fixed_addresses(code)
        self._check(get_uarch("SKL"), code, {"RCX": 3}, served=False)

    def test_aperiodic_classes_decline(self, monkeypatch):
        code = parse_sequence(_FLIPPING, DATABASE)
        assert _fixed_addresses(code)
        uarch = get_uarch("SKL")
        self._check(uarch, code, _FLIPPING_INIT, served=False)
        # With a budget past the flip the period proof succeeds.
        monkeypatch.setattr(extrapolate, "SNAPSHOT_BUDGET", 24)
        self._check(uarch, code, _FLIPPING_INIT, served=True)
