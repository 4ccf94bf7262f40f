"""Measurement protocol (Algorithm 2 / Section 6.2) tests."""

import pytest

from repro.core.codegen import independent_sequence
from repro.measure.backend import HardwareBackend, MeasurementConfig
from repro.uarch.configs import get_uarch


class TestUnrollDifference:
    def test_per_copy_counters(self, db, skl_backend):
        code = independent_sequence(db.by_uid("ADD_R64_I8"), 4)
        counters = skl_backend.measure(code)
        # Per copy of the 4-instruction block: 4 µops, ~1 cycle.
        assert counters.uops == pytest.approx(4.0, abs=0.01)
        assert counters.cycles == pytest.approx(1.0, abs=0.2)

    def test_overhead_cancels(self, db):
        """Unroll-difference removes constant overhead: two configs with
        different unroll factors agree."""
        uarch = get_uarch("SKL")
        small = HardwareBackend(
            uarch, MeasurementConfig(unroll_small=3, unroll_large=13)
        )
        large = HardwareBackend(
            uarch, MeasurementConfig(unroll_small=10, unroll_large=110)
        )
        code = independent_sequence(db.by_uid("IMUL_R64_R64_I8"), 4)
        a = small.measure(code)
        b = large.measure(code)
        assert a.cycles == pytest.approx(b.cycles, rel=0.1)
        assert a.uops == pytest.approx(b.uops, abs=0.01)

    def test_paper_config(self):
        config = MeasurementConfig.paper()
        assert config.unroll_small == 10
        assert config.unroll_large == 110

    def test_init_values_respected(self, db, skl_backend):
        from repro.isa.operands import Immediate, RegisterOperand
        from repro.isa.registers import register_by_name

        div = db.by_uid("DIV_R64").instantiate(
            RegisterOperand(register_by_name("R8"))
        )
        mov = db.by_uid("MOV_R64_I32")
        pin_fast = mov.instantiate(
            RegisterOperand(register_by_name("RAX")),
            Immediate(100, 32),
        )
        fast = skl_backend.measure([div, pin_fast],
                                   {"RAX": 100, "RDX": 0, "R8": 3})
        slow = skl_backend.measure([div, pin_fast],
                                   {"RAX": 1 << 62, "RDX": 0, "R8": 3})
        # Both runs pin to fast after the MOV, so steady state matches.
        assert fast.cycles == pytest.approx(slow.cycles, rel=0.2)

    def test_supports(self, db, skl_backend, nhm_backend):
        avx = db.by_uid("VADDPS_YMM_YMM_YMM")
        assert skl_backend.supports(avx)
        assert not nhm_backend.supports(avx)
        assert not skl_backend.supports(db.by_uid("UD2"))
