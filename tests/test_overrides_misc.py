"""Tests for case-study plumbing and small utilities not covered
elsewhere."""

from repro.analysis.casestudies import CaseStudyResult
from repro.core.result import LatencyValue
from repro.uarch import build_entry, get_uarch
from repro.uarch.uops import UarchEntry, UopSpec


class TestCaseStudyResult:
    def test_check_records_failures(self):
        result = CaseStudyResult("demo")
        result.check(True, "fine")
        assert result.passed
        result.check(False, "broken")
        assert not result.passed
        rendered = result.render()
        assert "[ok ]" in rendered and "[FAIL]" in rendered
        assert rendered.startswith("== demo ==")


class TestLatencyValue:
    def test_str_formats(self):
        assert str(LatencyValue(3.0)) == "3"
        assert str(LatencyValue(6.5, "upper_bound")) == "≤6.5"

    def test_value_class_carried(self):
        value = LatencyValue(42.0, value_class="slow")
        assert value.value_class == "slow"


class TestEntryHelpers:
    def test_max_latency_conservative(self, db):
        entry = build_entry(db.by_uid("AESDEC_XMM_XMM"), get_uarch("SNB"))
        assert entry.max_latency() >= 8

    def test_uops_for_same_register(self, db):
        entry = build_entry(db.by_uid("SHLD_R64_R64_I8"),
                            get_uarch("SKL"))
        normal = entry.uops_for(False)
        same = entry.uops_for(True)
        assert normal != same
        assert same[0].latency == 1

    def test_fused_uops_defaults(self):
        spec = UopSpec(ports=frozenset({0}))
        entry = UarchEntry(uops=(spec, spec))
        assert entry.fused_uops == 2
        entry = UarchEntry(uops=(spec, spec), fused_uop_count=1)
        assert entry.fused_uops == 1

    def test_port_usage_ignores_portless_uops(self):
        entry = UarchEntry(
            uops=(
                UopSpec(ports=frozenset({0})),
                UopSpec(ports=frozenset()),
            )
        )
        assert entry.port_usage() == {frozenset({0}): 1}


class TestAccumulatorAndRel32Forms:
    def test_accumulator_opcode_forms(self, db):
        form = db.by_uid("ADD_RAX_I32")
        assert form.operands[0].fixed == "RAX"
        assert not form.operands[0].implicit

    def test_rel32_branches(self, db):
        assert "JE_I32" in db
        assert "JE_I8" in db

    def test_prefetch_entry(self, db):
        entry = build_entry(db.by_uid("PREFETCHT0_M8"), get_uarch("SKL"))
        assert len(entry.uops) == 1
        assert entry.uops[0].kind == "load"
