"""Unit tests for every fallback edge of the extrapolation tier ladder.

:func:`repro.measure.extrapolate.unrolled_counters` serves unroll
targets through a ladder — analytic closed form, instrumented event
probe with periodic extrapolation, full per-target simulation — and
every rung must (a) take the fallback it claims to take and (b) stay
bit-identical to simulating each target outright.  Each edge gets a
targeted test: reference-kernel opt-out, divider forms, store forms,
the probe-size rule, sub-probe targets, undetected timing periods,
rename-snapshot misses, recurrence aborts, and the structural memo.
"""

from __future__ import annotations

import pytest

from repro.core.codegen import independent_sequence, instantiate
from repro.isa.assembler import parse_sequence
from repro.isa.database import load_default_database
from repro.measure import extrapolate
from repro.measure.backend import HardwareBackend, MeasurementConfig
from repro.measure.extrapolate import (
    MIN_PROBE,
    _fixed_addresses,
    _form_blockers,
    _probe_copies,
    _uses_divider,
    _uses_stores,
    unrolled_counters,
)
from repro.pipeline.core import build_core
from repro.uarch.configs import get_uarch

from tests.test_sim_differential import assert_identical

DATABASE = load_default_database()


def _body(uid, n=2):
    return independent_sequence(DATABASE.by_uid(uid), n)


def _expected(uarch_name, code, targets, init=None):
    """Ground truth: simulate each target on a fresh reference core."""
    core = build_core(get_uarch(uarch_name), kernel="reference")
    return {t: core.run(list(code) * t, init) for t in targets}


def check_ladder(uarch_name, kernel, code, targets, init=None):
    core = build_core(get_uarch(uarch_name), kernel=kernel)
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
        core = build_core(get_uarch("SKL"), kernel="event")
        results, stats = unrolled_counters(
            core, _body("ADD_R64_R64"), None, []
        )
        assert results == {}
        assert stats.runs_extrapolated == 0


class TestDividerFallback:
    """Divider forms break the prefix property: never extrapolated,
    never closed form."""

    @pytest.mark.parametrize("kernel", ["event", "analytic"])
    def test_simulates_all(self, kernel):
        code = [instantiate(DATABASE.by_uid("DIV_R32"))] * 2
        core, _results, stats = check_ladder("SKL", kernel, code, [2, 20])
        assert stats.runs_extrapolated == 0
        assert stats.runs_analytic == 0
        assert core.cycles_simulated > 0

    def test_guard_sees_divider_anywhere_in_body(self):
        core = build_core(get_uarch("SKL"), kernel="event")
        mixed = _body("ADD_R64_R64") + [
            instantiate(DATABASE.by_uid("DIV_R32"))
        ]
        assert _uses_divider(core, mixed)
        assert not _uses_divider(core, _body("ADD_R64_R64"))


class TestStoresFallback:
    """Stores make rename value-dependent: the closed form takes them
    only when every copy computes the same addresses, and otherwise the
    event probe takes over (extrapolation itself is still fine)."""

    def test_analytic_tier_declines(self):
        """Only guarded store shapes decline: a written address register
        or a stack access moves the addresses between copies."""
        for text in (
            "MOV qword ptr [RAX], RBX\nADD RAX, RCX",
            "PUSH RAX\nPOP RBX",
        ):
            code = parse_sequence(text, DATABASE)
            core, _results, stats = check_ladder(
                "SKL", "analytic", code, [2, 40]
            )
            assert stats.runs_analytic == 0
            assert stats.cycles_analytic == 0
            # The emulating event probe serves them instead.
            assert stats.probe_copies >= MIN_PROBE
            assert stats.runs_probe + stats.runs_full == 2

    def test_loop_invariant_stores_served_in_closed_form(self):
        code = _body("MOV_M64_R64")
        core, _results, stats = check_ladder(
            "SKL", "analytic", code, [2, 40]
        )
        assert stats.runs_analytic == 2
        assert stats.probe_copies == 0
        assert core.cycles_simulated == 0

    def test_guard_flags(self):
        core = build_core(get_uarch("SKL"), kernel="analytic")
        assert _uses_stores(core, _body("MOV_M64_R64"))
        assert not _uses_stores(core, _body("MOV_R64_M64"))
        assert _fixed_addresses(_body("MOV_M64_R64"))
        assert not _fixed_addresses(parse_sequence(
            "MOV qword ptr [RAX], RBX\nMOV RAX, qword ptr [RAX]", DATABASE
        ))


class TestProbeRule:
    """One probe when one doubling would reach the longest target."""

    @pytest.mark.parametrize("targets, first", [
        ((5, 25), 25), ((10, 110), MIN_PROBE), ((3, 7), 7),
        ((2, 36), 36), ((2, 37), MIN_PROBE),
    ])
    def test_first_probe(self, targets, first):
        assert _probe_copies(targets) == first

    @pytest.mark.parametrize("targets, probes", [
        ((5, 25), [25]), ((10, 110), [MIN_PROBE, 2 * MIN_PROBE]),
    ])
    def test_event_probes_simulated(self, targets, probes):
        core = build_core(get_uarch("SKL"), kernel="event")
        seen = []
        original = core.run_instrumented

        def spy(code, copies, init=None):
            seen.append(copies)
            return original(code, copies, init)

        core.run_instrumented = spy
        code = _body("ADD_R64_R64")
        results, stats = unrolled_counters(core, code, None, targets)
        assert seen == probes
        assert stats.probe_copies == sum(probes)
        assert stats.runs_probe == len(targets)
        assert stats.runs_full == 0
        expected = _expected("SKL", code, targets)
        for t in targets:
            assert_identical(results[t], expected[t], f"(x{t})")


class TestShortProbes:
    """Targets below MIN_PROBE are prefixes of one short probe: no
    extrapolation, and the probe is clamped to the largest target."""

    def test_all_targets_prefix(self):
        targets = [3, 7]
        assert targets[-1] < MIN_PROBE
        core, _results, stats = check_ladder(
            "SKL", "event", _body("IMUL_R64_R64"), targets
        )
        assert stats.runs_extrapolated == 0
        assert stats.cycles_extrapolated == 0

    def test_probe_not_longer_than_largest_target(self):
        core = build_core(get_uarch("SKL"), kernel="event")
        seen = {}
        original = core.run_instrumented

        def spy(code, copies, init=None):
            seen["copies"] = copies
            return original(code, copies, init)

        core.run_instrumented = spy
        unrolled_counters(core, _body("ADD_R64_R64"), None, [3, 7])
        assert seen["copies"] == 7


class TestNoPeriodFallback:
    """When no timing period is detected the long targets are simulated
    in full while the probe still serves the short ones.  The long
    target lies beyond one doubling of :data:`MIN_PROBE`, so the probe
    stays short and the fallback is actually reached."""

    TARGETS = [2, 40]

    def test_targets_need_a_period(self):
        assert _probe_copies(self.TARGETS) == MIN_PROBE < self.TARGETS[-1]

    def test_event_probe_falls_back(self, monkeypatch):
        monkeypatch.setattr(
            extrapolate, "_detect_period", lambda signatures: None
        )
        core, _results, stats = check_ladder(
            "SKL", "event", _body("ADD_R64_R64"), self.TARGETS
        )
        assert stats.probe_copies == MIN_PROBE
        assert stats.runs_probe == 1
        assert stats.runs_full == 1
        assert stats.runs_extrapolated == 0
        assert stats.cycles_extrapolated == 0

    def test_analytic_extends_exactly(self, monkeypatch):
        """The closed form needs no timing period for its own probe —
        but beyond-probe targets without one are re-synthesized at full
        length instead of extrapolated."""
        monkeypatch.setattr(
            extrapolate, "_detect_period", lambda signatures: None
        )
        core, _results, stats = check_ladder(
            "SKL", "analytic", _body("ADD_R64_R64"), self.TARGETS
        )
        assert stats.runs_analytic == len(self.TARGETS)
        assert stats.probe_copies == 0
        assert stats.runs_full == 0
        assert core.cycles_simulated == 0


class TestSnapshotMiss:
    """No rename-state period within the snapshot budget: the analytic
    tier returns None and the event probe takes over."""

    def test_budget_zero_disables_closed_form(self, monkeypatch):
        monkeypatch.setattr(extrapolate, "SNAPSHOT_BUDGET", 0)
        core, _results, stats = check_ladder(
            "SKL", "analytic", _body("ADD_R64_R64"), [2, 40]
        )
        assert stats.runs_analytic == 0
        assert stats.runs_extrapolated == 1
        # The probe itself may still be scheduled by the analytic
        # kernel per run — but never as a closed-form unroll.
        assert len(core.analytic_memo) == 0


class TestRecurrenceAbort:
    """A per-port ready-order inversion aborts the recurrence; the
    synthesized stream is then run through the array event kernel —
    still no value emulation, and still bit-identical."""

    def test_event_recovery_path(self, monkeypatch):
        monkeypatch.setattr(
            extrapolate, "schedule_arrays", lambda *args, **kw: None
        )
        core, _results, stats = check_ladder(
            "SKL", "analytic", _body("ADD_R64_R64"), [2, 40]
        )
        # Recovered runs are simulated (array kernel), not closed form.
        assert stats.runs_analytic == 0
        assert core.cycles_simulated > 0
        assert stats.runs_extrapolated >= 1
        assert stats.runs_probe == 2
        assert stats.probe_copies >= MIN_PROBE


class TestStructuralMemo:
    """Register-renamed variants of one experiment shape share their
    closed-form schedule through the per-core structural memo."""

    def test_hit_returns_identical_results_and_stats(self):
        uarch = get_uarch("SKL")
        core = build_core(uarch, kernel="analytic")
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
        core = build_core(uarch, kernel="analytic")
        form = DATABASE.by_uid("ADD_R64_R64")
        unrolled_counters(
            core, independent_sequence(form, 2), None, [2, 40]
        )
        unrolled_counters(
            core, [instantiate(form)] * 2, None, [2, 40]
        )
        assert len(core.analytic_memo) == 2

    def test_backend_memo_is_bounded_and_digest_keyed(self):
        uarch = get_uarch("SKL")
        backend = HardwareBackend(
            uarch, MeasurementConfig(max_cached_measurements=1)
        )
        form = DATABASE.by_uid("ADD_R64_R64")
        backend.measure(independent_sequence(form, 2))
        backend.measure([instantiate(form)] * 2)
        memo = backend._core.analytic_memo
        assert len(memo) == 1 and memo.evictions == 1
        assert all(isinstance(k, bytes) and len(k) == 32 for k in memo)
        # Evictions of all three bounded stores are reported together.
        assert backend.cache_evictions == 3
        assert backend.snapshot().cache_evictions == 3


class TestFormBlockerCache:
    """The (divider, stores) guard flags are computed once per form."""

    def test_flags_cached_per_form(self):
        core = build_core(get_uarch("SKL"), kernel="analytic")
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
