"""Unit tests for every fallback edge of the measurement ladder.

:func:`repro.measure.extrapolate.unrolled_counters` serves unroll
targets through a ladder — the analytic closed form, then full
per-target simulation (whose runs the reference loop times when a
younger divider µop could take the divider first) — and every
rung must (a) take the fallback it claims to take and (b) stay
bit-identical to simulating each target outright.  Each edge gets a
targeted test: reference-kernel opt-out, divider forms, store forms, the
stop at a proved timing period, sub-probe targets, streams with no
proof, rename-snapshot misses, divider reorders, the structural memo,
and the rung accounting the backend reports.
"""

from __future__ import annotations

import pytest

from repro.analysis.sampling import stratified_sample
from repro.core.codegen import independent_sequence, instantiate
from repro.isa.assembler import parse_sequence
from repro.isa.database import load_default_database
from repro.core.port_usage import _blocking_code
from repro.measure import extrapolate
from repro.measure.backend import HardwareBackend, MeasurementConfig
from repro.measure.extrapolate import (
    _fixed_addresses,
    _form_blockers,
    _uses_divider,
    _uses_stores,
    unrolled_counters,
)
from repro.pipeline.core import Core
from repro.uarch.configs import get_uarch

from tests.test_sim_differential import assert_identical

DATABASE = load_default_database()


def _body(uid, n=2):
    return independent_sequence(DATABASE.by_uid(uid), n)


def _expected(uarch_name, code, targets, init=None):
    """Ground truth: simulate each target on a fresh reference core."""
    core = Core(get_uarch(uarch_name), kernel="reference")
    return {t: core.run(list(code) * t, init) for t in targets}


def check_ladder(uarch_name, kernel, code, targets, init=None):
    core = Core(get_uarch(uarch_name), kernel=kernel)
    results, stats = unrolled_counters(core, code, init, targets)
    assert sorted(results) == sorted(set(targets))
    expected = _expected(uarch_name, code, targets, init)
    for t in sorted(results):
        assert_identical(
            results[t], expected[t], f"({uarch_name} {kernel} x{t})"
        )
    return core, results, stats


class TestReferenceOptOut:
    """kernel=reference must bypass both fast tiers entirely."""

    def test_simulates_every_target(self):
        core, _results, stats = check_ladder(
            "SKL", "reference", _body("ADD_R64_R64"), [2, 25]
        )
        assert stats.runs_extrapolated == 0
        assert stats.cycles_extrapolated == 0
        assert stats.runs_analytic == 0
        assert core.cycles_simulated > 0

    def test_empty_inputs(self):
        core = Core(get_uarch("SKL"))
        results, stats = unrolled_counters(
            core, _body("ADD_R64_R64"), None, []
        )
        assert results == {}
        assert stats.runs_extrapolated == 0


#: A divider body whose closed form returns ``None``: the first divider
#: waits for a square root while the second divider's inputs are ready
#: from the start, so the younger could take the divider first.
DIVIDER_REORDER = "SQRTSD XMM1, XMM1\nDIVSD XMM0, XMM1\nDIVSD XMM2, XMM3"


class TestDividerFallback:
    """Divider forms: the closed form schedules their class-aware
    templates (20 copies prove no period here, so every target is a
    prefix), and the reference kernel simulates each target."""

    @pytest.mark.parametrize("kernel", ["reference", "analytic"])
    def test_simulates_all(self, kernel):
        code = [instantiate(DATABASE.by_uid("DIV_R32"))] * 2
        core, _results, stats = check_ladder("SKL", kernel, code, [2, 20])
        assert stats.runs_extrapolated == 0
        assert stats.divider_reorders == 0
        if kernel == "reference":
            assert stats.runs_analytic == 0
            assert core.cycles_simulated > 0
        else:
            assert stats.runs_analytic == 2
            assert stats.cycles_analytic > 0
            assert core.cycles_simulated == 0

    def test_guard_sees_divider_anywhere_in_body(self):
        core = Core(get_uarch("SKL"))
        mixed = _body("ADD_R64_R64") + [
            instantiate(DATABASE.by_uid("DIV_R32"))
        ]
        assert _uses_divider(core, mixed)
        assert not _uses_divider(core, _body("ADD_R64_R64"))


#: Store bodies whose addresses move between copies: a written address
#: register, and a stack access.
MOVING_STORES = (
    "MOV qword ptr [RAX], RBX\nADD RAX, RCX",
    "PUSH RAX\nPOP RBX",
)


class TestStoresFallback:
    """Stores make rename value-dependent: the closed form takes them
    only when every copy computes the same addresses, and otherwise
    every target is simulated in full."""

    def test_analytic_tier_declines(self):
        """Only guarded store shapes decline: a written address register
        or a stack access moves the addresses between copies."""
        for text in MOVING_STORES:
            code = parse_sequence(text, DATABASE)
            core, _results, stats = check_ladder(
                "SKL", "analytic", code, [2, 40]
            )
            assert stats.runs_analytic == 0
            assert stats.cycles_analytic == 0
            assert stats.runs_full == 2
            assert stats.declined_moving_addresses == 1

    def test_loop_invariant_stores_served_in_closed_form(self):
        code = _body("MOV_M64_R64")
        core, _results, stats = check_ladder(
            "SKL", "analytic", code, [2, 40]
        )
        assert stats.runs_analytic == 2
        assert core.cycles_simulated == 0

    def test_guard_flags(self):
        core = Core(get_uarch("SKL"), kernel="analytic")
        assert _uses_stores(core, _body("MOV_M64_R64"))
        assert not _uses_stores(core, _body("MOV_R64_M64"))
        assert _fixed_addresses(_body("MOV_M64_R64"))
        assert not _fixed_addresses(parse_sequence(
            "MOV qword ptr [RAX], RBX\nMOV RAX, qword ptr [RAX]", DATABASE
        ))


class TestProbeRule:
    """A proved steady state stops the pass before the longest target.

    A port-bound blocker body (16 ``ADD`` blockers and an ``IMUL``, as
    port-usage inference measures it) fills SKL's 224-µop ROB window in
    14 copies and settles; the pass stops at the proof and the targets
    beyond it are extrapolated from the proved period, bit-identical to
    the reference loop."""

    @pytest.mark.parametrize("targets, probes", [
        ((5, 25), [18]), ((10, 110), [18]),
    ])
    def test_probes_scheduled(self, targets, probes):
        """*probes*: the length of each stream scheduled, each stopped
        at a proof."""
        code = _blocking_code(
            DATABASE.by_uid("IMUL_R64_R64"), DATABASE.by_uid("ADD_R64_R64"),
            16,
        )
        core, _results, stats = check_ladder("SKL", "analytic", code, targets)
        assert stats.copies_scheduled == sum(probes) < targets[-1]
        assert stats.periods_proved == len(probes)
        assert stats.runs_analytic == len(targets)
        assert stats.runs_extrapolated == 1
        assert stats.runs_full == 0
        assert core.cycles_simulated == 0


class TestShortProbes:
    """Targets too short for a proof are prefixes of one short stream:
    no extrapolation, and the stream is as long as the largest target."""

    def test_all_targets_prefix(self):
        targets = [3, 7]
        core, _results, stats = check_ladder(
            "SKL", "analytic", _body("IMUL_R64_R64"), targets
        )
        assert stats.runs_analytic == len(targets)
        assert stats.runs_extrapolated == 0
        assert stats.cycles_extrapolated == 0

    def test_probe_not_longer_than_largest_target(self):
        core = Core(get_uarch("SKL"))
        _results, stats = unrolled_counters(
            core, _body("ADD_R64_R64"), None, [3, 7]
        )
        assert stats.copies_scheduled == 7
        assert stats.periods_proved == 0


class TestNoPeriodFallback:
    """A stream with no proof is scheduled to the longest target and
    every target is read off it.  Two ``ADD_R64_R64`` per copy never
    fill SKL's ROB in 40 copies, and a snapshot needs a full ROB window,
    so the pass never proves a period here."""

    TARGETS = [2, 40]

    def test_targets_need_a_period(self):
        assert 2 * self.TARGETS[-1] < get_uarch("SKL").rob_size

    def test_probe_falls_back_to_full_length(self):
        """Each of the 40 copies is scheduled once, none twice."""
        core, _results, stats = check_ladder(
            "SKL", "analytic", _body("ADD_R64_R64"), self.TARGETS
        )
        assert stats.copies_scheduled == self.TARGETS[-1]
        assert stats.periods_proved == 0
        assert stats.runs_analytic == 2
        assert stats.runs_full == 0
        assert stats.runs_extrapolated == 0
        assert stats.cycles_extrapolated == 0

    def test_analytic_extends_exactly(self):
        """The closed form needs no timing period: without one, every
        target is scheduled in full, not simulated."""
        core, _results, stats = check_ladder(
            "SKL", "analytic", _body("ADD_R64_R64"), self.TARGETS
        )
        assert stats.runs_analytic == len(self.TARGETS)
        assert stats.runs_full == 0
        assert core.cycles_simulated == 0


class TestSnapshotMiss:
    """No rename-state period within the snapshot budget: the analytic
    tier returns None and every target is simulated in full."""

    def test_budget_zero_disables_closed_form(self, monkeypatch):
        monkeypatch.setattr(extrapolate, "SNAPSHOT_BUDGET", 0)
        core, _results, stats = check_ladder(
            "SKL", "analytic", _body("ADD_R64_R64"), [2, 40]
        )
        assert stats.runs_analytic == 0
        assert stats.runs_full == 2
        assert stats.runs_extrapolated == 0
        assert stats.declined_no_period == 1
        # Each full run may still be scheduled by the closed-form
        # recurrence inside Core.run — but never as a closed-form unroll.
        assert len(core.analytic_memo) == 0


DECLINE_REASONS = (
    "declined_moving_addresses",
    "declined_front_end",
    "declined_no_period",
)


class TestDeclineCounters:
    """Each reason the closed form declines a body increments its own
    counter, and only that one; a served body increments none."""

    def _declines(self, core, code):
        _results, stats = unrolled_counters(core, code, None, [2, 40])
        return {reason: getattr(stats, reason) for reason in DECLINE_REASONS}

    @staticmethod
    def _only(reason):
        return {r: int(r == reason) for r in DECLINE_REASONS}

    @pytest.mark.parametrize("text", MOVING_STORES)
    def test_moving_addresses(self, text):
        code = parse_sequence(text, DATABASE)
        assert self._declines(Core(get_uarch("SKL")), code) == self._only(
            "declined_moving_addresses"
        )

    @pytest.mark.parametrize(
        "extension", ["enable_macro_fusion", "enable_decoder_model"]
    )
    def test_front_end(self, extension):
        core = Core(get_uarch("SKL"), **{extension: True})
        assert self._declines(core, _body("ADD_R64_R64")) == self._only(
            "declined_front_end"
        )

    def test_no_period(self, monkeypatch):
        monkeypatch.setattr(extrapolate, "SNAPSHOT_BUDGET", 0)
        core = Core(get_uarch("SKL"))
        assert self._declines(core, _body("ADD_R64_R64")) == self._only(
            "declined_no_period"
        )

    def test_served_body_declines_nothing(self):
        core = Core(get_uarch("SKL"))
        assert self._declines(core, _body("MOV_M64_R64")) == self._only(None)


class TestDividerReorder:
    """A divider reorder is the one stream the recurrence returns
    ``None`` on; the closed form then declines the body like its other
    guards, and the full rung runs every target — still bit-identical."""

    def test_reorder_recovery_path(self):
        code = parse_sequence(DIVIDER_REORDER, DATABASE)
        targets = [10, 110]
        for uarch_name in ("SKL", "NHM"):
            core = Core(get_uarch(uarch_name))
            results, stats = unrolled_counters(core, code, None, targets)
            expected = _expected(uarch_name, code, targets)
            for t in targets:
                assert_identical(
                    results[t], expected[t], f"({uarch_name} x{t})"
                )
            assert stats.divider_reorders == 1
            assert stats.runs_full == len(targets)
            assert stats.runs_analytic == stats.cycles_analytic == 0
            assert stats.runs_extrapolated == 0
            assert core.cycles_simulated > 0
            # Nothing is memoized for a declined body: it declines again.
            _results, again = unrolled_counters(core, code, None, targets)
            assert again == stats

    def test_served_divider_body_counts_no_reorder(self):
        """A served divider body extrapolates like any other: its
        period is proved after 20 of 110 copies."""
        code = [instantiate(DATABASE.by_uid("DIV_R64"))] * 3
        _core, _results, stats = check_ladder(
            "SKL", "analytic", code, [10, 110]
        )
        assert stats.divider_reorders == 0
        assert stats.runs_analytic == 2
        assert (stats.copies_scheduled, stats.periods_proved) == (20, 1)
        assert stats.runs_extrapolated == 1


class TestStructuralMemo:
    """Register-renamed variants of one experiment shape share their
    closed-form schedule through the per-core structural memo."""

    def test_hit_returns_identical_results_and_stats(self):
        uarch = get_uarch("SKL")
        core = Core(uarch, kernel="analytic")
        form = DATABASE.by_uid("ADD_R64_R64")
        body_a = independent_sequence(form, 2)
        body_b = independent_sequence(form, 2)
        first, stats_a = unrolled_counters(core, body_a, None, [2, 40])
        assert len(core.analytic_memo) == 1
        second, stats_b = unrolled_counters(core, body_b, None, [2, 40])
        assert len(core.analytic_memo) == 1  # same key: renamed alike
        for t in (2, 40):
            assert_identical(first[t], second[t], f"(memo hit x{t})")
        assert stats_b.runs_analytic == stats_a.runs_analytic > 0
        assert stats_b.cycles_analytic == stats_a.cycles_analytic > 0
        # A memo hit is not a kernel run.
        assert core.cycles_simulated == 0

    def test_different_shapes_miss(self):
        uarch = get_uarch("SKL")
        core = Core(uarch, kernel="analytic")
        form = DATABASE.by_uid("ADD_R64_R64")
        unrolled_counters(
            core, independent_sequence(form, 2), None, [2, 40]
        )
        unrolled_counters(
            core, [instantiate(form)] * 2, None, [2, 40]
        )
        assert len(core.analytic_memo) == 2

    def test_backend_memo_is_digest_keyed(self):
        uarch = get_uarch("SKL")
        backend = HardwareBackend(uarch)
        form = DATABASE.by_uid("ADD_R64_R64")
        backend.measure(independent_sequence(form, 2))
        backend.measure([instantiate(form)] * 2)
        memo = backend._core.analytic_memo
        assert len(memo) == 2
        assert all(isinstance(k, bytes) and len(k) == 32 for k in memo)


class TestFormBlockerCache:
    """The (divider, stores) guard flags are computed once per form."""

    def test_flags_cached_per_form(self):
        core = Core(get_uarch("SKL"), kernel="analytic")
        div = instantiate(DATABASE.by_uid("DIV_R32"))
        store = instantiate(DATABASE.by_uid("MOV_M64_R64"))
        add = instantiate(DATABASE.by_uid("ADD_R64_R64"))
        assert _form_blockers(core, div)[0] is True
        assert _form_blockers(core, store)[1] is True
        assert _form_blockers(core, add) == (False, False)
        assert set(core.fastpath_blockers) == {
            div.form, store.form, add.form
        }
        # Second call must be served from the cache, not recomputed.
        core._entries._cache.clear()
        assert _form_blockers(core, add) == (False, False)


class TestRungAccounting:
    """The backend reports the ladder's rung counts: each unroll target
    in exactly one of ``runs_analytic`` and ``runs_full``."""

    def test_declined_body_is_not_closed_form(self):
        """The full runs of a declined body are timed by the recurrence
        inside ``Core.run``; that is not the closed-form rung."""
        backend = HardwareBackend(get_uarch("SKL"))
        backend.measure(parse_sequence(MOVING_STORES[0], DATABASE))
        stats = backend.snapshot()
        assert (stats.runs_analytic, stats.runs_full) == (0, 2)
        assert stats.cycles_analytic == 0
        assert stats.declined_moving_addresses == 1
        # The cycles the full rung timed are reported as simulated.
        assert stats.cycles_simulated > 0

    @pytest.mark.parametrize("uarch_name", ["SKL", "NHM"])
    def test_every_target_served_once(self, uarch_name, monkeypatch):
        from repro.measure import backend as backend_module

        uarch = get_uarch(uarch_name)
        config = MeasurementConfig()
        backend = HardwareBackend(uarch, config)
        calls = []
        original = backend_module.unrolled_counters

        def counting(core, code, init, targets):
            calls.append(len(set(targets)))
            return original(core, code, init, targets)

        monkeypatch.setattr(backend_module, "unrolled_counters", counting)
        core = backend._core
        supported = [
            form for form in DATABASE if core.supports(form)
            and form.category not in ("jmp", "jmp_indirect", "call", "ret")
        ]
        for form in stratified_sample(supported, 40):
            try:
                bodies = (
                    [instantiate(form)] * 2, independent_sequence(form, 3)
                )
            except (KeyError, ValueError):
                continue
            for code in bodies:
                backend.measure(code)
        stats = backend.snapshot()
        assert calls and set(calls) == {2}
        assert stats.runs_analytic + stats.runs_full == sum(calls)
        declines = (
            stats.declined_moving_addresses + stats.declined_front_end
            + stats.declined_no_period + stats.divider_reorders
        )
        assert stats.runs_full == 2 * declines
