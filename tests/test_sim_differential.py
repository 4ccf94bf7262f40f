"""Differential tests: closed-form timing / measurement ladder vs. the seed.

The optimized simulation path (closed-form schedule with the reference
loop as its fallback, steady-state extrapolation, collapsed repeats)
claims **bit-identical** counters to the seed per-cycle loop, not
approximate agreement.  These tests pin that claim with exact
``CounterValues`` equality — cycles, per-port µop counts,
µop/instruction/fused counts — against ``kernel="reference"`` over a
representative catalog slice (GPR/SSE/AVX arithmetic, divider forms
with value dependence, memory forms, eliminated idioms) plus a
stratified catalog sample, on at least two microarchitectures.  The
kernel-level tests also time a fresh rename of each stream with the
closed form directly, since ``Core.run`` hides a decline behind the
fallback.
"""

from __future__ import annotations

import pytest

from repro.analysis.sampling import stratified_sample
from repro.core.cache import MeasurementMemo
from repro.core.codegen import independent_sequence, instantiate
from repro.core.result import decode_counters, encode_counters
from repro.core.runner import CharacterizationRunner
from repro.isa.database import load_default_database
from repro.measure.backend import HardwareBackend, MeasurementConfig
from repro.pipeline.analytic import schedule_analytic
from repro.pipeline.core import Core, CounterValues
from repro.pipeline.state import MachineState
from repro.uarch.configs import get_uarch

DATABASE = load_default_database()

#: Hand-picked representative forms: GPR/SSE/AVX arithmetic, shifts,
#: divider (value-dependent), loads/stores/read-modify, idioms, moves.
REPRESENTATIVE_UIDS = [
    "ADD_R64_R64",
    "IMUL_R64_R64",
    "SHLD_R64_R64_I8",
    "ADDPS_XMM_XMM",
    "PADDD_XMM_XMM",
    "VADDPS_YMM_YMM_YMM",
    "DIV_R64",
    "DIV_R32",
    "MOV_R64_M64",
    "MOV_M64_R64",
    "ADD_R64_M64",
    "NOP",
    "XOR_R64_R64",
    "MOV_R64_R64",
    "AESDEC_XMM_XMM",
]

UARCH_NAMES = ["SKL", "NHM"]


def _forms(uarch_name):
    core = Core(get_uarch(uarch_name))
    forms = []
    for uid in REPRESENTATIVE_UIDS:
        try:
            form = DATABASE.by_uid(uid)
        except KeyError:
            continue
        if core.supports(form):
            forms.append(form)
    assert len(forms) >= 10
    return forms


def assert_identical(a: CounterValues, b: CounterValues, context=""):
    __tracebackhint__ = True
    assert a.cycles == b.cycles, f"cycles differ {context}"
    assert a.port_uops == b.port_uops, f"port µops differ {context}"
    assert a.uops == b.uops, f"µop counts differ {context}"
    assert a.instructions == b.instructions, (
        f"instruction counts differ {context}"
    )
    assert a.uops_fused == b.uops_fused, f"fused counts differ {context}"


def assert_tiers_agree(default, reference, code, init=None, context=""):
    """Both timing tiers on one block, against the reference loop.

    ``default.run`` (closed form, reference loop on a decline) must
    equal ``reference.run`` exactly.  Then a fresh rename of the same
    stream is timed by the closed form, which must match wherever it
    answers.  Returns whether the closed form answered.
    """
    __tracebackhint__ = True
    expected = reference.run(code, init)
    assert_identical(default.run(code, init), expected, context)
    analytic = schedule_analytic(
        reference.uarch,
        reference._rename(list(code), MachineState.initial(init)),
    )
    assert analytic in (None, (expected.cycles, expected.port_uops)), (
        f"closed form differs {context}"
    )
    return analytic is not None


@pytest.mark.parametrize("uarch_name", UARCH_NAMES)
class TestKernelDifferential:
    """Core.run and the closed form vs. the reference loop, exact
    equality."""

    def test_independent_blocks(self, uarch_name):
        uarch = get_uarch(uarch_name)
        default = Core(uarch)
        reference = Core(uarch, kernel="reference")
        for form in _forms(uarch_name):
            for n in (1, 4, 25):
                code = independent_sequence(form, n)
                assert_tiers_agree(
                    default, reference, code,
                    context=f"({uarch_name} {form.uid} x{n} independent)",
                )

    def test_dependent_chains(self, uarch_name):
        """Same instruction repeated: same registers form a latency chain
        (and exercise the same-register µop decompositions)."""
        uarch = get_uarch(uarch_name)
        default = Core(uarch)
        reference = Core(uarch, kernel="reference")
        for form in _forms(uarch_name):
            instruction = instantiate(form)
            for n in (5, 40):
                code = [instruction] * n
                assert_tiers_agree(
                    default, reference, code,
                    context=f"({uarch_name} {form.uid} x{n} chain)",
                )

    def test_divider_value_classes(self, uarch_name):
        """Fast and slow divider operands (Section 5.2.5): the divider
        occupies non-pipelined cycles and blocks younger µops.  The
        closed form answers these streams: the divider µops take the
        divider in age order."""
        uarch = get_uarch(uarch_name)
        default = Core(uarch)
        reference = Core(uarch, kernel="reference")
        form = DATABASE.by_uid("DIV_R64")
        instruction = instantiate(form)
        for init in (
            None,
            {"RAX": 1, "RDX": 0, instruction.operands[0].register.name: 3},
            {
                "RAX": 0xDEADBEEFCAFE,
                "RDX": 0,
                instruction.operands[0].register.name: 0xFFFFFF,
            },
        ):
            for n in (3, 12):
                code = [instruction] * n
                assert assert_tiers_agree(
                    default, reference, code, init,
                    f"({uarch_name} DIV_R64 x{n} init={init})",
                )

    def test_stratified_catalog_sample(self, uarch_name):
        """A stratified catalog sample, unrolled like the measurement
        protocol's short unroll."""
        uarch = get_uarch(uarch_name)
        default = Core(uarch)
        reference = Core(uarch, kernel="reference")
        supported = [
            form for form in DATABASE if default.supports(form)
            and form.category not in ("jmp", "jmp_indirect", "call", "ret")
        ]
        for form in stratified_sample(supported, 40):
            try:
                code = independent_sequence(form, 3) * 2
            except (KeyError, ValueError):
                continue
            assert_tiers_agree(
                default, reference, code,
                context=f"({uarch_name} {form.uid} sampled)",
            )


@pytest.mark.parametrize("uarch_name", UARCH_NAMES)
class TestMeasureDifferential:
    """HardwareBackend.measure: extrapolating path vs. the seed loop."""

    @pytest.mark.parametrize(
        "config",
        [MeasurementConfig(), MeasurementConfig.paper()],
        ids=["default", "paper"],
    )
    def test_measure_bit_identical(self, uarch_name, config):
        uarch = get_uarch(uarch_name)
        fast = HardwareBackend(uarch, config)
        seed = HardwareBackend(uarch, config, kernel="reference")
        for form in _forms(uarch_name):
            for code in (
                [instantiate(form)],
                independent_sequence(form, 4),
                [instantiate(form)] * 3,
            ):
                assert_identical(
                    fast.measure(code),
                    seed.measure(code),
                    f"({uarch_name} {form.uid})",
                )

    def test_measure_with_init_values(self, uarch_name):
        """The divider fallback path (no extrapolation) with explicit
        operand values."""
        uarch = get_uarch(uarch_name)
        fast = HardwareBackend(uarch)
        seed = HardwareBackend(uarch, kernel="reference")
        form = DATABASE.by_uid("DIV_R64")
        instruction = instantiate(form)
        init = {
            "RAX": 0xDEADBEEFCAFE,
            "RDX": 0,
            instruction.operands[0].register.name: 0xFFFFFF,
        }
        assert_identical(
            fast.measure([instruction], init),
            seed.measure([instruction], init),
            f"({uarch_name} DIV_R64 slow operands)",
        )
        # The divider never extrapolates.
        assert fast.snapshot().runs_extrapolated == 0

    @pytest.mark.slow
    def test_characterization_identical(self, uarch_name):
        """End to end: full characterizations agree exactly."""
        uarch = get_uarch(uarch_name)
        results = {}
        for mode in ("analytic", "reference"):
            backend = HardwareBackend(uarch, kernel=mode)
            runner = CharacterizationRunner(backend, DATABASE)
            results[mode] = {
                uid: runner.characterize(DATABASE.by_uid(uid))
                for uid in ("ADD_R64_R64", "IMUL_R64_R64", "DIV_R64",
                            "SHLD_R64_R64_I8")
            }
        for uid, outcome in results["analytic"].items():
            seed_outcome = results["reference"][uid]
            assert outcome.uop_count == seed_outcome.uop_count
            assert outcome.port_usage == seed_outcome.port_usage
            assert (outcome.latency.pairs
                    == seed_outcome.latency.pairs), uid
            assert (outcome.throughput.measured
                    == seed_outcome.throughput.measured), uid


class TestKernelModes:
    """Two kernel modes: the default ladder and the reference oracle.
    The deleted ``"event"`` mode, like any other name, raises."""

    def test_accepted_modes(self):
        uarch = get_uarch("SKL")
        assert Core(uarch).kernel == "analytic"
        assert Core(uarch, kernel="reference").kernel == "reference"

    @pytest.mark.parametrize("mode", ["event", "fast"])
    def test_other_modes_raise(self, mode):
        uarch = get_uarch("SKL")
        with pytest.raises(ValueError, match="unknown timing kernel"):
            Core(uarch, kernel=mode)
        with pytest.raises(ValueError, match="unknown timing kernel"):
            HardwareBackend(uarch, kernel=mode)


class TestCollapsedRepeats:
    """Satellite: repeats>1 must cost one simulation, not ``repeats``."""

    def test_repeats_simulate_once(self):
        uarch = get_uarch("SKL")
        form = DATABASE.by_uid("ADD_R64_R64")
        code = independent_sequence(form, 4)
        once = HardwareBackend(uarch, MeasurementConfig(repeats=1))
        many = HardwareBackend(uarch, MeasurementConfig(repeats=5))
        a = once.measure(code)
        b = many.measure(code)
        assert_identical(a, b, "(repeats averaging)")
        assert (
            many.snapshot().cycles_simulated
            == once.snapshot().cycles_simulated
        )

    def test_paper_config_costs_like_repeats_1(self):
        uarch = get_uarch("SKL")
        form = DATABASE.by_uid("IMUL_R64_R64")
        code = [instantiate(form)] * 2
        paper = HardwareBackend(uarch, MeasurementConfig.paper())
        single = HardwareBackend(
            uarch,
            MeasurementConfig(unroll_small=10, unroll_large=110,
                              repeats=1, warmup=False),
        )
        assert_identical(
            paper.measure(code), single.measure(code), "(paper vs 1)"
        )
        assert (
            paper.snapshot().cycles_simulated
            == single.snapshot().cycles_simulated
        )


class TestExtrapolationCounters:
    """The extrapolation stats must reflect real analytic work."""

    def test_extrapolation_happens_and_saves_cycles(self):
        """The paper config's long unroll lies beyond the scheduled
        stream: its verified periodic tail serves it, and no kernel
        loop runs at all."""
        uarch = get_uarch("SKL")
        form = DATABASE.by_uid("ADD_R64_R64")
        backend = HardwareBackend(uarch, MeasurementConfig.paper())
        backend.measure(independent_sequence(form, 4))
        stats = backend.snapshot()
        assert stats.runs_extrapolated >= 1
        assert stats.cycles_extrapolated > 0
        assert stats.cycles_simulated == 0
        seed = HardwareBackend(
            uarch, MeasurementConfig.paper(), kernel="reference"
        )
        seed.measure(independent_sequence(form, 4))
        assert stats.cycles_simulated < seed.snapshot().cycles_simulated

    def test_reference_kernel_never_extrapolates(self):
        backend = HardwareBackend(get_uarch("SKL"), kernel="reference")
        form = DATABASE.by_uid("ADD_R64_R64")
        backend.measure(independent_sequence(form, 4))
        stats = backend.snapshot()
        assert stats.runs_extrapolated == 0
        assert stats.cycles_extrapolated == 0


class TestMeasurementMemo:
    """The persistent memo returns bit-identical counters across
    backends (and therefore across sweep worker processes)."""

    def test_cross_backend_round_trip(self, tmp_path):
        uarch = get_uarch("SKL")
        form = DATABASE.by_uid("IMUL_R64_R64")
        code = independent_sequence(form, 4)
        first = HardwareBackend(
            uarch, memo=MeasurementMemo(str(tmp_path))
        )
        expected = first.measure(code)
        assert first.memo_misses == 1 and first.memo_hits == 0

        second = HardwareBackend(
            uarch, memo=MeasurementMemo(str(tmp_path))
        )
        got = second.measure(code)
        assert second.memo_hits == 1 and second.memo_misses == 0
        assert second.snapshot().cycles_simulated == 0
        assert_identical(got, expected, "(memo round trip)")

    def test_codec_exact(self):
        counters = CounterValues(
            cycles=7.25, port_uops={0: 3, 5: 0, 7: 1.5},
            uops=12, instructions=4, uops_fused=10,
        )
        decoded = decode_counters(encode_counters(counters))
        assert decoded == counters
        assert isinstance(decoded.cycles, float)
        assert isinstance(decoded.uops, int)

    def test_salt_mismatch_invalidates(self, tmp_path):
        uarch = get_uarch("SKL")
        code = independent_sequence(DATABASE.by_uid("ADD_R64_R64"), 2)
        writer = HardwareBackend(
            uarch, memo=MeasurementMemo(str(tmp_path), salt="v1")
        )
        writer.measure(code)
        stale = MeasurementMemo(str(tmp_path), salt="v2")
        reader = HardwareBackend(uarch, memo=stale)
        reader.measure(code)
        assert reader.memo_hits == 0
        assert stale.invalidations == 1
