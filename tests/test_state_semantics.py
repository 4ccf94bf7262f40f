"""Architectural state and functional-semantics tests."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.isa.operands import Memory, RegisterOperand
from repro.isa.registers import register_by_name as reg
from repro.pipeline.semantics import evaluate
from repro.pipeline.state import (
    MachineState,
    SCRATCH_BASE,
    scratch_address,
)


@pytest.fixture
def state():
    return MachineState.initial()


class TestMachineState:
    def test_initial_gprs_point_into_scratch(self, state):
        for name in ("RAX", "RSI", "R15"):
            value = state.registers[name]
            assert value >= SCRATCH_BASE

    def test_write_read_roundtrip(self, state):
        state.write_register(reg("RAX"), 0x1122334455667788)
        assert state.read_register(reg("RAX")) == 0x1122334455667788
        assert state.read_register(reg("EAX")) == 0x55667788
        assert state.read_register(reg("AX")) == 0x7788
        assert state.read_register(reg("AL")) == 0x88
        assert state.read_register(reg("AH")) == 0x77

    def test_32bit_write_zeroes_upper(self, state):
        state.write_register(reg("RAX"), 0xFFFFFFFFFFFFFFFF)
        state.write_register(reg("EAX"), 0x1)
        assert state.read_register(reg("RAX")) == 0x1

    def test_16bit_write_merges(self, state):
        state.write_register(reg("RAX"), 0xAAAAAAAAAAAAAAAA)
        state.write_register(reg("AX"), 0x1234)
        assert state.read_register(reg("RAX")) == 0xAAAAAAAAAAAA1234

    def test_high_byte_write(self, state):
        state.write_register(reg("RAX"), 0)
        state.write_register(reg("AH"), 0x7F)
        assert state.read_register(reg("RAX")) == 0x7F00

    def test_memory_roundtrip(self, state):
        address = scratch_address(12345)
        state.store(address, 0xDEADBEEF, 64)
        assert state.load(address, 64) == 0xDEADBEEF

    def test_wide_memory(self, state):
        address = scratch_address(0)
        value = (1 << 127) | 0x42
        state.store(address, value, 128)
        assert state.load(address, 128) == value

    def test_uninitialized_memory_deterministic(self, state):
        address = scratch_address(999)
        assert state.load(address, 64) == state.load(address, 64)

    def test_effective_address_masked_into_arena(self, state):
        state.write_register(reg("RAX"), 0xFFFFFFFFFFFFFFFF)
        address = state.effective_address(Memory(reg("RAX"), 64))
        assert SCRATCH_BASE <= address < SCRATCH_BASE + (1 << 24)
        assert address % 8 == 0


def _run(db, state, text_uid, *operands):
    instr = db.by_uid(text_uid).instantiate(*operands)
    return evaluate(instr, state)


class TestSemantics:
    def test_mov(self, db, state):
        state.write_register(reg("RBX"), 7)
        _run(db, state, "MOV_R64_R64",
             RegisterOperand(reg("RAX")), RegisterOperand(reg("RBX")))
        assert state.read_register(reg("RAX")) == 7

    def test_xor_twice_restores(self, db, state):
        """The double-XOR trick of Section 5.2.2 depends on this."""
        original = state.read_register(reg("RAX"))
        for _ in range(2):
            _run(db, state, "XOR_R64_R64",
                 RegisterOperand(reg("RAX")), RegisterOperand(reg("RBX")))
        assert state.read_register(reg("RAX")) == original

    def test_and_or_pin(self, db, state):
        """AND R,Rc; OR R,Rc always sets R to Rc (Section 5.2.5)."""
        state.write_register(reg("RCX"), 0xABCDEF)
        _run(db, state, "AND_R64_R64",
             RegisterOperand(reg("RAX")), RegisterOperand(reg("RCX")))
        _run(db, state, "OR_R64_R64",
             RegisterOperand(reg("RAX")), RegisterOperand(reg("RCX")))
        assert state.read_register(reg("RAX")) == 0xABCDEF

    def test_add_flags(self, db, state):
        state.write_register(reg("RAX"), (1 << 64) - 1)
        state.write_register(reg("RBX"), 1)
        _run(db, state, "ADD_R64_R64",
             RegisterOperand(reg("RAX")), RegisterOperand(reg("RBX")))
        assert state.read_register(reg("RAX")) == 0
        assert state.flags["CF"] == 1
        assert state.flags["ZF"] == 1

    def test_zero_idiom_value(self, db, state):
        _run(db, state, "XOR_R64_R64",
             RegisterOperand(reg("RAX")), RegisterOperand(reg("RAX")))
        assert state.read_register(reg("RAX")) == 0
        assert state.flags["ZF"] == 1

    def test_load_store(self, db, state):
        state.write_register(reg("RBX"), 0x55)
        accesses = _run(db, state, "MOV_M64_R64",
                        Memory(reg("RSI"), 64),
                        RegisterOperand(reg("RBX")))
        assert [a.kind for a in accesses] == ["W"]
        accesses = _run(db, state, "MOV_R64_M64",
                        RegisterOperand(reg("RCX")),
                        Memory(reg("RSI"), 64))
        assert [a.kind for a in accesses] == ["R"]
        assert state.read_register(reg("RCX")) == 0x55

    def test_pointer_chase_setup(self, db, state):
        """MOV RAX, [RAX] with self-pointing memory (Section 5.2.2)."""
        address = state.effective_address(Memory(reg("RAX"), 64))
        state.store(address, state.read_register(reg("RAX")), 64)
        _run(db, state, "MOV_R64_M64",
             RegisterOperand(reg("RAX")), Memory(reg("RAX"), 64))
        assert state.effective_address(Memory(reg("RAX"), 64)) == address

    def test_div_semantics(self, db, state):
        state.write_register(reg("RAX"), 100)
        state.write_register(reg("RDX"), 0)
        state.write_register(reg("R8"), 7)
        _run(db, state, "DIV_R64", RegisterOperand(reg("R8")))
        assert state.read_register(reg("RAX")) == 14
        assert state.read_register(reg("RDX")) == 2

    def test_div_by_zero_does_not_crash(self, db, state):
        state.write_register(reg("R8"), 0)
        _run(db, state, "DIV_R64", RegisterOperand(reg("R8")))

    def test_movsx(self, db, state):
        state.write_register(reg("RBX"), 0x8000)
        _run(db, state, "MOVSX_R64_R16",
             RegisterOperand(reg("RAX")), RegisterOperand(reg("BX")))
        assert state.read_register(reg("RAX")) == (1 << 64) - 0x8000

    def test_cmov_condition(self, db, state):
        state.flags["ZF"] = 1
        state.write_register(reg("RAX"), 1)
        state.write_register(reg("RBX"), 2)
        _run(db, state, "CMOVE_R64_R64",
             RegisterOperand(reg("RAX")), RegisterOperand(reg("RBX")))
        assert state.read_register(reg("RAX")) == 2

    def test_setcc(self, db, state):
        state.flags["CF"] = 1
        _run(db, state, "SETB_R8", RegisterOperand(reg("AL")))
        assert state.read_register(reg("AL")) == 1

    def test_sahf_lahf(self, db, state):
        state.write_register(reg("AH"), 0b11010101)
        _run(db, state, "SAHF")
        assert state.flags["CF"] == 1
        assert state.flags["ZF"] == 1
        assert state.flags["SF"] == 1
        _run(db, state, "LAHF")
        # LAHF reads the five SAHF flags back into AH.

    def test_test_does_not_write_af(self, db, state):
        state.flags["AF"] = 1
        _run(db, state, "TEST_R64_R64",
             RegisterOperand(reg("RAX")), RegisterOperand(reg("RAX")))
        assert state.flags["AF"] == 1  # untouched, per the paper

    def test_push_pop_stack_engine(self, db, state):
        rsp_before = state.registers["RSP"]
        _run(db, state, "PUSH_R64", RegisterOperand(reg("RBX")))
        assert state.registers["RSP"] == rsp_before - 8
        _run(db, state, "POP_R64", RegisterOperand(reg("RCX")))
        assert state.registers["RSP"] == rsp_before

    def test_opaque_results_deterministic(self, db, state):
        other = MachineState.initial()
        for s in (state, other):
            _run(db, s, "PSHUFB_XMM_XMM",
                 RegisterOperand(reg("XMM1")),
                 RegisterOperand(reg("XMM2")))
        assert state.registers["YMM1"] == other.registers["YMM1"]

    def test_pcmpeq_same_register_idiom_value(self, db, state):
        _run(db, state, "PCMPEQB_XMM_XMM",
             RegisterOperand(reg("XMM3")), RegisterOperand(reg("XMM3")))
        assert state.registers["YMM3"] == (1 << 128) - 1


#: Evaluates opaque-result and flag-writing forms, plus a form declaring
#: flags its handler does not compute (they come from the opaque seed),
#: and prints the final state.
_STATE_SCRIPT = """
import dataclasses, json
from repro.isa.assembler import parse_sequence
from repro.isa.database import load_default_database
from repro.pipeline.semantics import evaluate
from repro.pipeline.state import MachineState
code = parse_sequence(
    "MOV RAX, RBX\\nPOPCNT RCX, RAX\\nBSF RDX, RCX\\n"
    "PSHUFB XMM1, XMM2\\nADD qword ptr [R8], RCX\\n"
    "SHLD R9, RDX, 3\\nBT RDX, RCX",
    load_default_database(),
)
mov = code[0]
code.append(dataclasses.replace(mov, form=dataclasses.replace(
    mov.form, flags_written=frozenset(("CF", "ZF", "SF", "OF")))))
state = MachineState.initial()
for _ in range(3):
    for instruction in code:
        evaluate(instruction, state)
print(json.dumps([sorted(state.registers.items()),
                  sorted(state.flags.items()),
                  sorted(state.memory.items())]))
"""


def test_opaque_values_ignore_hash_seed():
    """Opaque results and undeclared-flag values are identical in every
    process: queue drainers, the shared memo and the result cache rely
    on addresses and divider classes being bit-identical across
    processes, whatever ``PYTHONHASHSEED`` each one runs with."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    states = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", _STATE_SCRIPT], env=env,
            capture_output=True, text=True, check=True,
        ).stdout
        states.append(json.loads(out))
    assert states[0] == states[1]
