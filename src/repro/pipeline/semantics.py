"""Architectural (functional) semantics of instructions.

:func:`evaluate` executes one concrete instruction against a
:class:`~repro.pipeline.state.MachineState` in program order and reports the
memory accesses it performed.  Instructions whose values the microbenchmark
generators rely on (moves, boolean logic, add/sub, shifts, multiplies,
divides, condition evaluation) have real semantics; everything else produces
deterministic opaque values, which is sound because values influence timing
only through addresses and the divider (see :mod:`repro.pipeline.state`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.isa.instruction import Instruction
from repro.isa.operands import (
    Immediate,
    Memory,
    OperandKind,
    RegisterOperand,
)
from repro.isa.registers import FLAG_NAMES
from repro.pipeline.state import MachineState, opaque_result, scratch_address


@dataclass(frozen=True)
class MemAccess:
    """One memory access performed by an instruction."""

    slot: object  # operand slot index, or "stack"
    kind: str  # "R" or "W"
    address: int
    width: int


_MASK = {w: (1 << w) - 1 for w in (8, 16, 32, 64, 128, 256)}

#: Bit of the opaque flag seed that a declared-but-uncomputed flag takes
#: (fixed, unlike ``hash(flag)``, so every process agrees).
_FLAG_SHIFT = {flag: bit for bit, flag in enumerate(FLAG_NAMES)}


def _parity(value: int) -> int:
    return 1 - bin(value & 0xFF).count("1") % 2


def _sign(value: int, width: int) -> int:
    return (value >> (width - 1)) & 1


def _arith_flags(result: int, width: int, carry: int = 0,
                 overflow: int = 0) -> Dict[str, int]:
    masked = result & _MASK[width]
    return {
        "CF": carry,
        "PF": _parity(masked),
        "AF": (result >> 4) & 1,
        "ZF": 1 if masked == 0 else 0,
        "SF": _sign(masked, width),
        "OF": overflow,
    }


def _signed(value: int, width: int) -> int:
    value &= _MASK[width]
    if value >> (width - 1):
        return value - (1 << width)
    return value


_CONDITIONS: Dict[str, Callable[[Dict[str, int]], bool]] = {
    "O": lambda f: f["OF"] == 1,
    "NO": lambda f: f["OF"] == 0,
    "B": lambda f: f["CF"] == 1,
    "AE": lambda f: f["CF"] == 0,
    "E": lambda f: f["ZF"] == 1,
    "NE": lambda f: f["ZF"] == 0,
    "BE": lambda f: f["CF"] == 1 or f["ZF"] == 1,
    "A": lambda f: f["CF"] == 0 and f["ZF"] == 0,
    "S": lambda f: f["SF"] == 1,
    "NS": lambda f: f["SF"] == 0,
    "P": lambda f: f["PF"] == 1,
    "NP": lambda f: f["PF"] == 0,
    "L": lambda f: f["SF"] != f["OF"],
    "GE": lambda f: f["SF"] == f["OF"],
    "LE": lambda f: f["ZF"] == 1 or f["SF"] != f["OF"],
    "G": lambda f: f["ZF"] == 0 and f["SF"] == f["OF"],
}


class _Context:
    """Evaluation context handed to mnemonic handlers."""

    __slots__ = ("instruction", "form", "values", "state", "width")

    def __init__(self, instruction, values, state):
        self.instruction = instruction
        self.form = instruction.form
        self.values = values  # per-slot input value (None if not read)
        self.state = state
        first = instruction.form.operands[0] if instruction.form.operands \
            else None
        self.width = first.width if first is not None else 64

    def val(self, index: int) -> int:
        value = self.values[index]
        if value is None:
            return 0
        return value

    def opaque(self, *extra: int) -> int:
        inputs = tuple(v for v in self.values if v is not None)
        return opaque_result(self.form.uid, inputs + extra)


# Handlers return (outputs, flags): outputs maps slot index -> new value;
# flags maps flag name -> 0/1 (only for flags the form writes).
_HANDLERS: Dict[str, Callable] = {}


def _handler(*mnemonics: str):
    def decorate(fn):
        for m in mnemonics:
            _HANDLERS[m] = fn
        return fn

    return decorate


@_handler("MOV", "MOVDQA", "MOVDQU", "MOVAPS", "MOVAPD", "MOVUPS",
          "MOVUPD", "VMOVDQA", "VMOVDQU", "VMOVAPS", "VMOVAPD", "VMOVUPS",
          "VMOVUPD", "MOVQ", "MOVD", "MOVQ2DQ", "MOVDQ2Q", "LAHF")
def _h_mov(ctx):
    return {0: ctx.val(1) if len(ctx.form.operands) > 1 else ctx.val(0)}, {}


@_handler("MOVSX", "MOVSXD")
def _h_movsx(ctx):
    src_width = ctx.form.operands[1].width
    value = _signed(ctx.val(1), src_width)
    return {0: value & _MASK[ctx.form.operands[0].width]}, {}


@_handler("MOVZX")
def _h_movzx(ctx):
    return {0: ctx.val(1)}, {}


@_handler("ADD")
def _h_add(ctx):
    width = ctx.width
    result = ctx.val(0) + ctx.val(1)
    carry = 1 if result > _MASK[width] else 0
    return {0: result}, _arith_flags(result, width, carry)


@_handler("ADC")
def _h_adc(ctx):
    width = ctx.width
    result = ctx.val(0) + ctx.val(1) + ctx.state.flags["CF"]
    carry = 1 if result > _MASK[width] else 0
    return {0: result}, _arith_flags(result, width, carry)


@_handler("SUB", "CMP", "NEG")
def _h_sub(ctx):
    width = ctx.width
    if ctx.form.mnemonic == "NEG":
        a, b = 0, ctx.val(0)
    else:
        a, b = ctx.val(0), ctx.val(1)
    result = a - b
    carry = 1 if result < 0 else 0
    outputs = {}
    if ctx.form.mnemonic != "CMP":
        outputs[0] = result & _MASK[width]
    return outputs, _arith_flags(result, width, carry)


@_handler("SBB")
def _h_sbb(ctx):
    width = ctx.width
    result = ctx.val(0) - ctx.val(1) - ctx.state.flags["CF"]
    carry = 1 if result < 0 else 0
    return {0: result & _MASK[width]}, _arith_flags(result, width, carry)


@_handler("AND", "TEST")
def _h_and(ctx):
    result = ctx.val(0) & ctx.val(1)
    outputs = {} if ctx.form.mnemonic == "TEST" else {0: result}
    return outputs, _arith_flags(result, ctx.width)


@_handler("OR")
def _h_or(ctx):
    result = ctx.val(0) | ctx.val(1)
    return {0: result}, _arith_flags(result, ctx.width)


@_handler("XOR")
def _h_xor(ctx):
    result = ctx.val(0) ^ ctx.val(1)
    return {0: result}, _arith_flags(result, ctx.width)


@_handler("NOT")
def _h_not(ctx):
    return {0: ~ctx.val(0) & _MASK[ctx.width]}, {}


@_handler("INC")
def _h_inc(ctx):
    result = ctx.val(0) + 1
    flags = _arith_flags(result, ctx.width)
    flags.pop("CF")
    return {0: result}, flags


@_handler("DEC")
def _h_dec(ctx):
    result = ctx.val(0) - 1
    flags = _arith_flags(result, ctx.width)
    flags.pop("CF")
    return {0: result & _MASK[ctx.width]}, flags


@_handler("LEA")
def _h_lea(ctx):
    # The AGEN slot's "value" is the (unmapped) effective address.
    return {0: ctx.val(1)}, {}


@_handler("SHL", "SHR", "SAR", "ROL", "ROR")
def _h_shift(ctx):
    width = ctx.width
    count = ctx.val(1) & (63 if width == 64 else 31)
    value = ctx.val(0)
    mnem = ctx.form.mnemonic
    if mnem == "SHL":
        result = value << count
    elif mnem == "SHR":
        result = value >> count
    elif mnem == "SAR":
        result = _signed(value, width) >> count
    elif mnem == "ROL":
        count %= width
        result = (value << count) | (value >> (width - count)) \
            if count else value
    else:  # ROR
        count %= width
        result = (value >> count) | (value << (width - count)) \
            if count else value
    result &= _MASK[width]
    flags = {f: v for f, v in _arith_flags(result, width).items()
             if f in ctx.form.flags_written}
    return {0: result}, flags


@_handler("IMUL", "MUL")
def _h_mul(ctx):
    form = ctx.form
    width = form.operands[0].width
    if form.category == "mul1":
        src = ctx.val(0)
        acc = ctx.val(1)
        product = src * acc
        lo = product & _MASK[width]
        hi = (product >> width) & _MASK[width]
        carry = 1 if hi else 0
        return (
            {1: lo, 2: hi},
            _arith_flags(product, width, carry, carry),
        )
    explicit = [i for i, s in enumerate(form.operands)
                if s.kind != OperandKind.IMM]
    if len(form.explicit_operands) == 3:
        product = ctx.val(1) * ctx.val(2)
    else:
        product = ctx.val(0) * ctx.val(1)
    return {0: product & _MASK[width]}, _arith_flags(product, width)


@_handler("DIV", "IDIV")
def _h_div(ctx):
    width = ctx.form.operands[0].width
    divisor = ctx.val(0)
    acc = ctx.val(1)
    hi = ctx.val(2)
    dividend = (hi << width) | acc
    if divisor == 0:
        quotient = ctx.opaque(1)
        remainder = ctx.opaque(2)
    else:
        quotient = dividend // divisor
        remainder = dividend % divisor
    return (
        {1: quotient & _MASK[width], 2: remainder & _MASK[width]},
        _arith_flags(quotient, width),
    )


@_handler("BSWAP")
def _h_bswap(ctx):
    width = ctx.width
    value = ctx.val(0)
    swapped = int.from_bytes(
        value.to_bytes(width // 8, "little"), "big"
    )
    return {0: swapped}, {}


@_handler("XCHG")
def _h_xchg(ctx):
    return {0: ctx.val(1), 1: ctx.val(0)}, {}


@_handler("XADD")
def _h_xadd(ctx):
    width = ctx.width
    total = ctx.val(0) + ctx.val(1)
    carry = 1 if total > _MASK[width] else 0
    return {0: total & _MASK[width], 1: ctx.val(0)}, \
        _arith_flags(total, width, carry)


@_handler("CBW", "CWDE", "CDQE")
def _h_cbw(ctx):
    width = ctx.form.operands[0].width
    return {0: _signed(ctx.val(0), width // 2) & _MASK[width]}, {}


@_handler("CWD", "CDQ", "CQO")
def _h_cwd(ctx):
    width = ctx.form.operands[0].width
    sign = _sign(ctx.val(0), width)
    return {1: _MASK[width] if sign else 0}, {}


@_handler("CMC")
def _h_cmc(ctx):
    return {}, {"CF": 1 - ctx.state.flags["CF"]}


@_handler("STC")
def _h_stc(ctx):
    return {}, {"CF": 1}


@_handler("CLC")
def _h_clc(ctx):
    return {}, {"CF": 0}


@_handler("SAHF")
def _h_sahf(ctx):
    ah = ctx.val(0)
    return {}, {
        "CF": ah & 1,
        "PF": (ah >> 2) & 1,
        "AF": (ah >> 4) & 1,
        "ZF": (ah >> 6) & 1,
        "SF": (ah >> 7) & 1,
    }


@_handler("PXOR", "VPXOR", "XORPS", "XORPD", "VXORPS", "VXORPD")
def _h_vec_xor(ctx):
    if len(ctx.form.explicit_operands) == 3:
        return {0: ctx.val(1) ^ ctx.val(2)}, {}
    return {0: ctx.val(0) ^ ctx.val(1)}, {}


@_handler("PAND", "VPAND", "ANDPS", "ANDPD", "VANDPS", "VANDPD")
def _h_vec_and(ctx):
    if len(ctx.form.explicit_operands) == 3:
        return {0: ctx.val(1) & ctx.val(2)}, {}
    return {0: ctx.val(0) & ctx.val(1)}, {}


@_handler("POR", "VPOR", "ORPS", "ORPD", "VORPS", "VORPD")
def _h_vec_or(ctx):
    if len(ctx.form.explicit_operands) == 3:
        return {0: ctx.val(1) | ctx.val(2)}, {}
    return {0: ctx.val(0) | ctx.val(1)}, {}


@_handler("PUSH", "POP", "CALL", "RET")
def _h_stack(ctx):
    # Value movement and the RSP update happen in evaluate()'s
    # stack-engine block; the handler itself writes nothing.
    return {}, {}


def _default_handler(ctx):
    """Opaque deterministic results for unmodeled instructions."""
    outputs = {}
    for i, spec in enumerate(ctx.form.operands):
        if spec.written and spec.kind != OperandKind.MEM:
            outputs[i] = ctx.opaque(i)
        elif spec.written and spec.kind == OperandKind.MEM:
            outputs[i] = ctx.opaque(i)
    # Special cases that make idiom discovery meaningful: comparisons of a
    # register with itself have value-level idiomatic results.
    mnem = ctx.form.mnemonic
    base = mnem[1:] if mnem.startswith("V") else mnem
    if base.startswith(("PCMPEQ", "PCMPGT")) and \
            ctx.instruction.same_register_operands():
        idiom = _MASK[ctx.width] if base.startswith("PCMPEQ") else 0
        outputs = {0: idiom}
    flags = {}
    if ctx.form.flags_written:
        seed = ctx.opaque(99)
        for bit, flag in enumerate(sorted(ctx.form.flags_written)):
            flags[flag] = (seed >> bit) & 1
    return outputs, flags


def _condition_handler(ctx):
    mnem = ctx.form.mnemonic
    for prefix in ("CMOV", "SET", "J"):
        if mnem.startswith(prefix) and mnem[len(prefix):] in _CONDITIONS:
            cc = mnem[len(prefix):]
            break
    else:  # pragma: no cover - guarded by _resolve_handler
        raise AssertionError(mnem)
    taken = _CONDITIONS[cc](ctx.state.flags)
    if mnem.startswith("CMOV"):
        return {0: ctx.val(1) if taken else ctx.val(0)}, {}
    if mnem.startswith("SET"):
        return {0: 1 if taken else 0}, {}
    return {}, {}  # Jcc: not taken in straight-line simulation


def _resolve_handler(form) -> Callable:
    mnem = form.mnemonic
    if mnem in _HANDLERS:
        return _HANDLERS[mnem]
    for prefix in ("CMOV", "SET", "J"):
        if mnem.startswith(prefix) and mnem[len(prefix):] in _CONDITIONS:
            return _condition_handler
    return _default_handler


def evaluate(
    instruction: Instruction, state: MachineState
) -> List[MemAccess]:
    """Execute one instruction architecturally; report memory accesses."""
    form = instruction.form
    accesses: List[MemAccess] = []
    values: List[Optional[int]] = []
    addresses: Dict[int, int] = {}

    # Address generation first (uses pre-instruction register values).
    for i, (spec, op) in enumerate(zip(form.operands, instruction.operands)):
        if isinstance(op, Memory):
            if spec.kind == OperandKind.AGEN:
                raw = op.displacement
                if op.base is not None:
                    raw += state.read_register(op.base)
                if op.index is not None:
                    raw += state.read_register(op.index) * op.scale
                addresses[i] = raw & 0xFFFFFFFFFFFFFFFF
            else:
                addresses[i] = state.effective_address(op)

    # Stack-engine accesses for PUSH/POP-like categories.
    stack_access: Optional[MemAccess] = None
    if form.category in ("push", "call"):
        rsp = state.registers.get("RSP", 0)
        address = scratch_address(rsp - 8)
        stack_access = MemAccess("stack", "W", address, 64)
    elif form.category in ("pop", "ret"):
        rsp = state.registers.get("RSP", 0)
        address = scratch_address(rsp)
        stack_access = MemAccess("stack", "R", address, 64)
    elif form.category == "string_rep":
        rsi = state.registers.get("RSI", 0)
        accesses.append(MemAccess("stack", "R", scratch_address(rsi), 64))
        rdi = state.registers.get("RDI", 0)
        accesses.append(MemAccess("stack", "W", scratch_address(rdi), 64))

    # Gather input values.
    for i, (spec, op) in enumerate(zip(form.operands, instruction.operands)):
        if isinstance(op, RegisterOperand):
            values.append(state.read_register(op.register)
                          if spec.read else None)
        elif isinstance(op, Immediate):
            values.append(op.value & 0xFFFFFFFFFFFFFFFF)
        elif isinstance(op, Memory):
            if spec.kind == OperandKind.AGEN:
                values.append(addresses[i])
            elif spec.read:
                accesses.append(MemAccess(i, "R", addresses[i], spec.width))
                values.append(state.load(addresses[i], spec.width))
            else:
                values.append(None)
        else:
            values.append(None)

    ctx = _Context(instruction, values, state)
    outputs, flags = _resolve_handler(form)(ctx)

    # Write back registers and memory.
    for i, value in outputs.items():
        spec = form.operands[i]
        op = instruction.operands[i]
        if isinstance(op, RegisterOperand):
            state.write_register(op.register, value)
        elif isinstance(op, Memory) and spec.written:
            accesses.append(MemAccess(i, "W", addresses[i], spec.width))
            state.store(addresses[i], value, spec.width)
    for i, (spec, op) in enumerate(zip(form.operands, instruction.operands)):
        if (
            isinstance(op, Memory)
            and spec.written
            and spec.kind == OperandKind.MEM
            and i not in outputs
        ):
            # Written memory slot with no computed value (opaque store).
            value = ctx.opaque(i)
            accesses.append(MemAccess(i, "W", addresses[i], spec.width))
            state.store(addresses[i], value, spec.width)
    for flag, value in flags.items():
        if flag in form.flags_written or not form.flags_written:
            state.flags[flag] = value & 1
    # Flags declared written but not computed get deterministic values.
    for flag in form.flags_written:
        if flag not in flags:
            state.flags[flag] = (ctx.opaque(7) >> _FLAG_SHIFT[flag]) & 1

    # Stack-engine register update and access.
    if stack_access is not None:
        accesses.append(stack_access)
        rsp = state.registers.get("RSP", 0)
        if stack_access.kind == "W":
            pushed = next(
                (v for v in values if v is not None), ctx.opaque(42)
            )
            state.store(stack_access.address, pushed, 64)
            state.registers["RSP"] = (rsp - 8) & 0xFFFFFFFFFFFFFFFF
        else:
            loaded = state.load(stack_access.address, 64)
            for i, (spec, op) in enumerate(
                zip(form.operands, instruction.operands)
            ):
                if (
                    spec.written
                    and spec.fixed != "RSP"
                    and isinstance(op, RegisterOperand)
                ):
                    state.write_register(op.register, loaded)
            state.registers["RSP"] = (rsp + 8) & 0xFFFFFFFFFFFFFFFF
    return accesses
