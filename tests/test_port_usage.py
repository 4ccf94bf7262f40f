"""Algorithm 1 integration tests: the inference must recover the hidden
ground-truth port usage from counter measurements alone."""

import pytest

from repro.core.blocking import BlockingInstructions
from repro.core.codegen import (
    RegisterAllocator,
    form_fixed_canonicals,
    instantiate,
)
from repro.core.port_usage import _blocking_code, infer_port_usage
from repro.core.result import PortUsage
from repro.core.runner import CharacterizationRunner, FormFailure
from repro.isa.instruction import InstructionForm
from repro.isa.operands import OperandKind, OperandSpec
from repro.uarch.tables import build_entry
from tests.conftest import backend_for, blocking_for


def _infer(db, uid, uarch_name):
    backend = backend_for(uarch_name)
    blocking = blocking_for(uarch_name, db)
    form = db.by_uid(uid)
    entry = build_entry(form, backend.uarch)
    truth = PortUsage(entry.port_usage())
    inferred = infer_port_usage(
        form, backend, blocking, max_latency=entry.max_latency()
    )
    return inferred, truth


class TestAdversarialCases:
    """The cases where isolation-based inference (Agner Fog's method,
    Section 5.1) gives the wrong answer."""

    def test_pblendvb_nehalem_2xp05(self, db):
        inferred, truth = _infer(db, "PBLENDVB_XMM_XMM", "NHM")
        assert inferred == truth
        assert inferred.notation() == "2*p05"

    def test_adc_haswell_not_2xp0156(self, db):
        inferred, truth = _infer(db, "ADC_R64_R64", "HSW")
        assert inferred == truth
        assert inferred.notation() == "1*p0156 + 1*p06"

    def test_movq2dq_skylake(self, db):
        inferred, truth = _infer(db, "MOVQ2DQ_XMM_MM", "SKL")
        assert inferred == truth
        assert inferred.notation() == "1*p0 + 1*p015"

    def test_movdq2q_haswell(self, db):
        inferred, truth = _infer(db, "MOVDQ2Q_MM_XMM", "HSW")
        assert inferred == truth

    def test_movdq2q_sandy_bridge(self, db):
        inferred, truth = _infer(db, "MOVDQ2Q_MM_XMM", "SNB")
        assert inferred == truth


class TestMemoryUops:
    def test_load_only(self, db):
        inferred, truth = _infer(db, "MOV_R64_M64", "SKL")
        assert inferred == truth

    def test_store(self, db):
        inferred, truth = _infer(db, "MOV_M64_R64", "SKL")
        assert inferred == truth

    def test_rmw(self, db):
        inferred, truth = _infer(db, "ADD_M64_R64", "SKL")
        assert inferred == truth

    def test_rmw_nehalem_dedicated_ports(self, db):
        inferred, truth = _infer(db, "ADD_M64_R64", "NHM")
        assert inferred == truth


@pytest.mark.slow
class TestBroadSample:
    """Ground-truth recovery over a mixed sample on several generations."""

    SAMPLE = (
        "ADD_R64_R64", "XOR_R32_R32", "IMUL_R64_R64", "SHL_R64_I8",
        "LEA_R64_AGEN", "CMOVE_R64_R64", "SETB_R8", "BSF_R64_R64",
        "PADDB_XMM_XMM", "PSHUFD_XMM_XMM_I8", "MULPS_XMM_XMM",
        "ADDPS_XMM_XMM", "PMULLW_XMM_XMM", "PAND_XMM_XMM",
        "SHLD_R64_R64_I8", "XCHG_R64_R64", "VHADDPD_XMM_XMM_XMM",
        "AESDEC_XMM_XMM", "BSWAP_R64", "MPSADBW_XMM_XMM_I8",
    )

    @pytest.mark.parametrize(
        "uarch_name",
        ["NHM", "WSM", "SNB", "IVB", "HSW", "BDW", "SKL", "KBL", "CFL"],
    )
    def test_sample(self, db, uarch_name):
        backend = backend_for(uarch_name)
        mismatches = []
        for uid in self.SAMPLE:
            form = db.by_uid(uid)
            if not backend.supports(form):
                continue
            inferred, truth = _infer(db, uid, uarch_name)
            if inferred != truth:
                mismatches.append(
                    (uid, inferred.notation(), truth.notation())
                )
        assert not mismatches

    def test_zero_uop_instruction(self, db):
        """NOP never reaches an execution port: empty usage."""
        inferred, _ = _infer(db, "NOP", "SKL")
        assert inferred.total_uops == 0

    def test_notation_formatting(self):
        usage = PortUsage(
            {frozenset({0, 1, 5}): 3, frozenset({2, 3}): 1}
        )
        assert usage.notation() == "3*p015 + 1*p23"

    def test_equality_is_structural(self):
        a = PortUsage({frozenset({0}): 1})
        b = PortUsage({frozenset({0}): 1})
        assert a == b and hash(a) == hash(b)
        assert a != PortUsage({frozenset({1}): 1})


def _reference_blocking_code(form, blocker_form, block_rep):
    """The per-instance construction ``_blocking_code`` replaced: a
    fresh allocator after every exhaustion, one instance per copy."""
    allocator = RegisterAllocator(
        form_fixed_canonicals(form) | form_fixed_canonicals(blocker_form)
    )
    instruction = instantiate(form, allocator)
    reserved = allocator.reserved()

    def looping():
        while True:
            cycle = RegisterAllocator(
                reserved | form_fixed_canonicals(blocker_form)
            )
            try:
                while True:
                    yield instantiate(blocker_form, cycle)
            except RuntimeError:
                continue

    blockers = looping()
    return [next(blockers) for _ in range(block_rep)] + [instruction]


#: Forms under test: register, fixed-register, memory, vector, AVX and
#: MMX operands, so the reservations the blockers see differ.
BLOCKED_UIDS = (
    "ADD_R64_R64", "IMUL_R64_R64", "SHL_R64_CL", "DIV_R64", "MUL_R64",
    "ADD_M64_R64", "LEA_R64_AGEN", "SHLD_R64_R64_I8", "CMPXCHG_R64_R64",
    "PADDB_XMM_XMM", "PBLENDVB_XMM_XMM", "VHADDPD_XMM_XMM_XMM",
    "MOVQ2DQ_XMM_MM", "NOP",
)

#: Blockers with no allocatable operand: they never exhaust an
#: allocator, so only the ``blockRep`` cap ends their cycle.
NOP_LIKE_UIDS = ("NOP", "CMC", "STC", "ADD_AL_I8")


class TestBlockingCode:
    """``_blocking_code`` repeats one register cycle; the result equals
    the per-instance construction it replaced."""

    @pytest.mark.parametrize("uarch_name", ["SKL", "NHM"])
    def test_equals_the_per_instance_construction(self, db, uarch_name):
        blocking = blocking_for(uarch_name, db)
        blockers = {
            form.uid: form
            for per_context in blocking.by_combination.values()
            for form in per_context.values()
        }
        blockers[blocking.store_blocker.uid] = blocking.store_blocker
        for uid in NOP_LIKE_UIDS:
            blockers[uid] = db.by_uid(uid)
        forms = [db.by_uid(uid) for uid in BLOCKED_UIDS]
        for blocker_uid in sorted(blockers):
            for form in forms:
                for block_rep in (8, 16, 40, 208):
                    code = _blocking_code(
                        form, blockers[blocker_uid], block_rep
                    )
                    assert code == _reference_blocking_code(
                        form, blockers[blocker_uid], block_rep
                    ), (blocker_uid, form.uid, block_rep)

    def test_repeats_share_instructions(self, db):
        code = _blocking_code(
            db.by_uid("IMUL_R64_R64"), db.by_uid("ADD_R64_R64"), 40
        )
        assert len(code) == 41
        # IMUL takes two of the 14 GPRs, so one cycle is six ADDs.
        assert code[6] is code[0]
        assert code[6] == code[12] != code[5]


def _register_hog():
    """A synthetic blocker with more GPR operands than the allocator
    has registers: no instance can ever be built."""
    return InstructionForm(
        mnemonic="HOG",
        operands=tuple(
            OperandSpec(OperandKind.GPR, 64, written=True)
            for _ in range(15)
        ),
    )


class TestBlockerWithoutRegisters:
    def test_raises_naming_blocker_and_form(self, db):
        form = db.by_uid("ADD_R64_R64")
        hog = _register_hog()
        with pytest.raises(RuntimeError) as raised:
            _blocking_code(form, hog, 8)
        assert hog.uid in str(raised.value)
        assert form.uid in str(raised.value)

    def test_becomes_a_form_failure(self, db):
        backend = backend_for("SKL")
        runner = CharacterizationRunner(backend, db)
        hog = _register_hog()
        runner._blocking = BlockingInstructions(
            by_combination={
                context: {frozenset({port}): hog for port in range(8)}
                for context in ("sse", "avx")
            }
        )
        outcome = runner.characterize_resilient(db.by_uid("ADD_R64_R64"))
        assert isinstance(outcome, FormFailure)
        assert outcome.error_type == "RuntimeError"
        assert hog.uid in outcome.message
        assert "ADD_R64_R64" in outcome.message
