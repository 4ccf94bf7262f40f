"""Architectural machine state: register values, flags, and memory.

The simulator emulates architectural values eagerly in program order (a
standard trace-driven split between functional and timing model).  Values
matter for timing in exactly three places, all of which the paper's
generators exploit:

* memory addresses (pointer-chasing chains like ``MOV RAX, [RAX]``,
  Section 5.2.2, and store-to-load forwarding, Section 5.2.4),
* the value-dependent divider (Section 5.2.5),
* value tricks like the double-``XOR`` and ``AND R,Rc; OR R,Rc`` pinning,
  which only work because XOR/AND/OR have their real semantics.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Tuple

from repro.isa.operands import Memory
from repro.isa.registers import (
    FLAG_NAMES,
    Register,
    RegisterClass,
    register_by_name,
)

#: All simulated memory accesses are confined to this scratch arena, the
#: analogue of the "large enough memory area that is not used by the main
#: program" of Algorithm 2 (saveState).
SCRATCH_BASE = 0x1000000
SCRATCH_MASK = 0xFFFFF8  # 16 MiB arena, 8-byte aligned granules

_WIDTH_MASKS = {w: (1 << w) - 1 for w in (1, 8, 16, 32, 64, 128, 256)}


def _mix(*values: int) -> int:
    """Cheap deterministic value for instructions without real semantics."""
    acc = 0x9E3779B97F4A7C15
    for v in values:
        acc ^= (v + 0x165667B19E3779F9) & 0xFFFFFFFFFFFFFFFF
        acc = (acc * 0xFF51AFD7ED558CCD) & 0xFFFFFFFFFFFFFFFF
        acc ^= acc >> 33
    return acc


def scratch_address(raw: int) -> int:
    """Map an arbitrary 64-bit value into the scratch arena (8-aligned)."""
    return SCRATCH_BASE + (raw & SCRATCH_MASK)


@dataclass
class MachineState:
    """Architectural register file, status flags, and flat memory."""

    registers: Dict[str, int] = field(default_factory=dict)
    flags: Dict[str, int] = field(default_factory=dict)
    memory: Dict[int, int] = field(default_factory=dict)

    @classmethod
    def initial(cls, overrides: Dict[str, int] = None) -> "MachineState":
        """Fresh state: GPRs point at disjoint scratch regions, flags clear.

        This mirrors the saveState()/initialization step of Algorithm 2:
        every register holds a valid pointer into the scratch area so that
        arbitrary instructions with memory operands can execute.
        """
        state = cls()
        gpr64 = (
            "RAX RBX RCX RDX RSI RDI RBP RSP "
            "R8 R9 R10 R11 R12 R13 R14 R15"
        ).split()
        for index, name in enumerate(gpr64):
            state.registers[name] = SCRATCH_BASE + 0x10000 * (index + 1)
        for index in range(16):
            state.registers[f"YMM{index}"] = (1 << 40) + index * 0x1111
        for index in range(8):
            state.registers[f"MM{index}"] = (1 << 33) + index * 0x777
        for flag in FLAG_NAMES:
            state.flags[flag] = 0
        if overrides:
            for name, value in overrides.items():
                if name in FLAG_NAMES:
                    state.flags[name] = value & 1
                else:
                    reg = register_by_name(name)
                    state.write_register(reg, value)
        return state

    # ------------------------------------------------------------------
    # Registers
    # ------------------------------------------------------------------

    def read_register(self, reg: Register) -> int:
        value = self.registers.get(reg.canonical, 0)
        return (value >> reg.offset) & _WIDTH_MASKS[reg.width]

    def write_register(self, reg: Register, value: int) -> None:
        value &= _WIDTH_MASKS[reg.width]
        if reg.reg_class == RegisterClass.GPR and reg.width == 32:
            # x86-64: 32-bit writes zero the upper half.
            self.registers[reg.canonical] = value
            return
        if reg.is_full_width:
            self.registers[reg.canonical] = value
            return
        old = self.registers.get(reg.canonical, 0)
        mask = _WIDTH_MASKS[reg.width] << reg.offset
        self.registers[reg.canonical] = (old & ~mask) | (value << reg.offset)

    # ------------------------------------------------------------------
    # Memory (8-byte granules inside the scratch arena)
    # ------------------------------------------------------------------

    def effective_address(self, mem: Memory) -> int:
        raw = mem.displacement
        if mem.base is not None:
            raw += self.read_register(mem.base)
        if mem.index is not None:
            raw += self.read_register(mem.index) * mem.scale
        return scratch_address(raw)

    def load(self, address: int, width: int) -> int:
        granules = max(1, width // 64)
        value = 0
        for g in range(granules):
            part = self.memory.get(address + 8 * g)
            if part is None:
                part = _mix(address + 8 * g)
            value |= part << (64 * g)
        return value & _WIDTH_MASKS[width]

    def store(self, address: int, value: int, width: int) -> None:
        granules = max(1, width // 64)
        value &= _WIDTH_MASKS[width]
        for g in range(granules):
            self.memory[address + 8 * g] = (value >> (64 * g)) & \
                0xFFFFFFFFFFFFFFFF

    def copy(self) -> "MachineState":
        return MachineState(
            registers=dict(self.registers),
            flags=dict(self.flags),
            memory=dict(self.memory),
        )


@lru_cache(maxsize=None)
def _seed_digest(seed: str) -> int:
    """Process-independent digest of a form uid (``hash`` is salted)."""
    return zlib.crc32(seed.encode("utf-8"))


def opaque_result(seed: str, inputs: Tuple[int, ...]) -> int:
    """Deterministic stand-in result for unmodeled instruction semantics.

    Identical in every process: queue drainers, the shared memo and the
    result cache rely on values (addresses, divider classes) being
    bit-identical across processes.
    """
    return _mix(_seed_digest(seed), *inputs)
