"""Category-driven construction of ground-truth µop tables.

For every (instruction form, microarchitecture) pair, :func:`build_entry`
produces the :class:`~repro.uarch.uops.UarchEntry` the pipeline simulator
executes.  Rules are keyed on the form's semantic category; functional-unit
names are resolved through the generation's port map, and generation groups
(`Nehalem/Westmere`, `Sandy/Ivy Bridge`, `Haswell/Broadwell`,
`Skylake/Kaby/Coffee Lake`) encode the evolution the paper's case studies
observe (AES µop counts, ADC decomposition, SHLD same-register behaviour,
MOVQ2DQ/MOVDQ2Q port assignments, ...).

Memory operands are handled uniformly: a read memory slot contributes a load
µop feeding the kernel µops, a written slot contributes store-address and
store-data µops consuming the kernel result — mirroring how real Intel cores
crack memory-operand instructions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.isa.instruction import (
    ATTR_DEP_BREAKING,
    ATTR_UNSUPPORTED,
    ATTR_ZERO_IDIOM,
    InstructionForm,
)
from repro.isa.operands import OperandKind
from repro.uarch.model import UarchConfig
from repro.uarch.uops import (
    DOMAIN_FVEC,
    DOMAIN_INT,
    DOMAIN_IVEC,
    KIND_ALU,
    KIND_LOAD,
    KIND_STORE_ADDR,
    KIND_STORE_DATA,
    Ref,
    UarchEntry,
    UopSpec,
)

# Generation groups.
PRE_SNB = ("NHM", "WSM")
SNB_GROUP = ("SNB", "IVB")
HSW_GROUP = ("HSW", "BDW")
SKL_GROUP = ("SKL", "KBL", "CFL")


def OP(i: int) -> Ref:
    return ("op", i)


FLAGS: Ref = ("flags",)


def UOP(k: int) -> Ref:
    return ("uop", k)


def ADDR(i: int) -> Ref:
    return ("addr", i)


@dataclass
class KUop:
    """A not-yet-finalized µop in a kernel plan.

    ``fu`` may be a functional-unit name (resolved through the generation's
    port map) or an explicit port set.  Inputs referring to memory slots are
    rewritten to load-µop outputs during finalization.
    """

    fu: Union[str, frozenset]
    latency: int = 1
    inputs: Tuple[Ref, ...] = ()
    outputs: Tuple[Ref, ...] = ()
    input_delays: Dict[Ref, int] = field(default_factory=dict)
    output_latencies: Dict[Ref, int] = field(default_factory=dict)
    kind: str = KIND_ALU
    divider_cycles: int = 0
    domain: str = DOMAIN_INT


Plan = List[KUop]
RuleResult = Union[Plan, Tuple[Plan, Optional[Plan]]]
Rule = Callable[[InstructionForm, UarchConfig], RuleResult]

_RULES: Dict[str, Rule] = {}


def rule(*categories: str) -> Callable[[Rule], Rule]:
    def decorate(fn: Rule) -> Rule:
        for category in categories:
            if category in _RULES:
                raise AssertionError(f"duplicate rule for {category}")
            _RULES[category] = fn
        return fn

    return decorate


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def auto_inputs(form: InstructionForm, skip: Sequence[int] = ()) -> Tuple:
    """Default dataflow inputs: every read slot plus flags if read."""
    refs: List[Ref] = []
    for i, spec in enumerate(form.operands):
        if i in skip or spec.kind == OperandKind.IMM:
            continue
        if spec.read:
            refs.append(OP(i))
    if form.flags_read:
        refs.append(FLAGS)
    return tuple(refs)


def auto_outputs(form: InstructionForm, skip: Sequence[int] = ()) -> Tuple:
    refs: List[Ref] = []
    for i, spec in enumerate(form.operands):
        if i in skip or spec.kind == OperandKind.IMM:
            continue
        if spec.written:
            refs.append(OP(i))
    if form.flags_written:
        refs.append(FLAGS)
    return tuple(refs)


def single(
    form: InstructionForm,
    fu: str,
    latency: int = 1,
    domain: str = DOMAIN_INT,
    **kwargs,
) -> Plan:
    """A one-µop plan with the default inputs and outputs."""
    return [
        KUop(
            fu=fu,
            latency=latency,
            inputs=auto_inputs(form),
            outputs=auto_outputs(form),
            domain=domain,
            **kwargs,
        )
    ]


def in_group(uarch: UarchConfig, *groups) -> bool:
    return any(uarch.name in g for g in groups)


def _vec_domain(form: InstructionForm) -> str:
    """Guess the execution domain of a vector instruction from its name."""
    mnem = form.mnemonic.lstrip("V") if form.mnemonic.startswith("V") else \
        form.mnemonic
    if mnem.startswith("P") or "DQ" in mnem:
        return DOMAIN_IVEC
    return DOMAIN_FVEC


# ---------------------------------------------------------------------------
# Integer ALU and moves
# ---------------------------------------------------------------------------


@rule("int_alu", "movsx", "movzx", "bt", "bts", "cbw", "flags_op",
      "mov_imm")
def _int_alu(form, uarch):
    return single(form, "int_alu", 1)


@rule("mov")
def _mov(form, uarch):
    return single(form, "int_alu", 1)


@rule("int_alu_carry")
def _adc(form, uarch):
    if in_group(uarch, SKL_GROUP):
        # One fused µop on the shift/branch units.
        return single(form, "shift", 1)
    if in_group(uarch, HSW_GROUP):
        # Section 5.1: ADC on Haswell is 1*p0156 + 1*p06, not 2*p0156.
        compute = KUop(
            fu="int_alu",
            latency=1,
            inputs=tuple(r for r in auto_inputs(form) if r != FLAGS),
            outputs=(UOP(1),),
        )
        merge = KUop(
            fu="shift",
            latency=1,
            inputs=(UOP(0), FLAGS),
            outputs=auto_outputs(form),
        )
        return [compute, merge]
    compute = KUop(
        fu="int_alu",
        latency=1,
        inputs=tuple(r for r in auto_inputs(form) if r != FLAGS),
        outputs=(UOP(1),),
    )
    merge = KUop(
        fu="int_alu",
        latency=1,
        inputs=(UOP(0), FLAGS),
        outputs=auto_outputs(form),
    )
    return [compute, merge]


@rule("load", "vec_load")
def _load(form, uarch):
    mem_slot = next(
        i for i, s in enumerate(form.operands)
        if s.kind == OperandKind.MEM
    )
    dst = auto_outputs(form)
    latency = (
        uarch.vec_load_latency
        if form.operands[0].kind in (OperandKind.VEC, OperandKind.MMX)
        else uarch.load_latency
    )
    return [
        KUop(
            fu="load",
            latency=latency,
            inputs=(ADDR(mem_slot),),
            outputs=dst,
            kind=KIND_LOAD,
            domain=_vec_domain(form)
            if form.operands[0].kind == OperandKind.VEC
            else DOMAIN_INT,
        )
    ]


@rule("store", "vec_store")
def _store(form, uarch):
    mem_slot = next(
        i for i, s in enumerate(form.operands)
        if s.kind == OperandKind.MEM and s.written
    )
    data_refs = tuple(
        OP(i)
        for i, s in enumerate(form.operands)
        if s.kind != OperandKind.IMM and s.read and i != mem_slot
    )
    return [
        KUop(
            fu="store_addr",
            latency=1,
            inputs=(ADDR(mem_slot),),
            outputs=(("staddr", mem_slot),),
            kind=KIND_STORE_ADDR,
        ),
        KUop(
            fu="store_data",
            latency=1,
            inputs=data_refs,
            outputs=(("mem", mem_slot),),
            kind=KIND_STORE_DATA,
        ),
    ]


@rule("lea")
def _lea(form, uarch):
    agen_slot = next(
        i for i, s in enumerate(form.operands)
        if s.kind == OperandKind.AGEN
    )
    return [
        KUop(
            fu="lea",
            latency=1,
            inputs=(ADDR(agen_slot),),
            outputs=auto_outputs(form),
        )
    ]


@rule("xchg")
def _xchg(form, uarch):
    # Three ALU µops; lat(op0->op1) = 2, lat(op1->op0) = 1 (Section 7.3.5:
    # XCHG is among the instructions with multiple latencies).
    return [
        KUop(fu="int_alu", latency=1, inputs=(OP(0),), outputs=(UOP(2),)),
        KUop(fu="int_alu", latency=1, inputs=(OP(1),), outputs=(OP(0),)),
        KUop(fu="int_alu", latency=1, inputs=(UOP(0),), outputs=(OP(1),)),
    ]


@rule("xadd")
def _xadd(form, uarch):
    return [
        KUop(fu="int_alu", latency=1, inputs=(OP(0), OP(1)),
             outputs=(UOP(2),)),
        KUop(fu="int_alu", latency=1, inputs=(OP(0),), outputs=(OP(1),)),
        KUop(fu="int_alu", latency=1, inputs=(UOP(0),),
             outputs=(OP(0), FLAGS)),
    ]


@rule("bswap")
def _bswap(form, uarch):
    # Section 7.2: on the hardware the 32-bit variant has one µop, the
    # 64-bit variant two (IACA models both with two).
    if form.operands[0].width == 32:
        return single(form, "slow_int", 1)
    return [
        KUop(fu="slow_int", latency=1, inputs=(OP(0),), outputs=(UOP(1),)),
        KUop(fu="int_alu", latency=1, inputs=(UOP(0),), outputs=(OP(0),)),
    ]


# ---------------------------------------------------------------------------
# Shifts and rotates
# ---------------------------------------------------------------------------


def _is_cl_variant(form: InstructionForm) -> bool:
    return any(s.fixed == "CL" for s in form.operands)


@rule("shift")
def _shift(form, uarch):
    if not _is_cl_variant(form):
        # Flags are produced one cycle after the register result
        # (Section 7.3.5: SHL/SHR/SAR have pair-dependent latencies).
        kuop = KUop(
            fu="shift",
            latency=1,
            inputs=auto_inputs(form),
            outputs=auto_outputs(form),
            output_latencies={FLAGS: 2},
        )
        return [kuop]
    if in_group(uarch, PRE_SNB):
        return single(form, "shift", 1)
    # Sandy Bridge on: shift-by-CL carries two flag-merge µops.
    reg_inputs = tuple(r for r in auto_inputs(form) if r != FLAGS)
    out_no_flags = tuple(r for r in auto_outputs(form) if r != FLAGS)
    return [
        KUop(fu="shift", latency=1, inputs=reg_inputs,
             outputs=out_no_flags + (UOP(1),)),
        KUop(fu="shift", latency=1, inputs=(UOP(0), FLAGS),
             outputs=(FLAGS,)),
        KUop(fu="int_alu", latency=1, inputs=(UOP(1),), outputs=()),
    ]


@rule("rotate")
def _rotate(form, uarch):
    if not _is_cl_variant(form):
        return [
            KUop(
                fu="shift",
                latency=1,
                inputs=auto_inputs(form),
                outputs=auto_outputs(form),
                output_latencies={FLAGS: 2},
            )
        ]
    if in_group(uarch, PRE_SNB):
        return single(form, "shift", 1)
    reg_inputs = tuple(r for r in auto_inputs(form) if r != FLAGS)
    out_no_flags = tuple(r for r in auto_outputs(form) if r != FLAGS)
    return [
        KUop(fu="shift", latency=1, inputs=reg_inputs,
             outputs=out_no_flags + (UOP(1),)),
        KUop(fu="shift", latency=1, inputs=(UOP(0), FLAGS),
             outputs=(FLAGS,)),
    ]


@rule("rotate_carry")
def _rotate_carry(form, uarch):
    return [
        KUop(fu="shift", latency=1, inputs=auto_inputs(form),
             outputs=(UOP(1),)),
        KUop(fu="int_alu", latency=1, inputs=(UOP(0),), outputs=(UOP(2),)),
        KUop(fu="shift", latency=1, inputs=(UOP(1),),
             outputs=auto_outputs(form)),
    ]


@rule("shld")
def _shld(form, uarch):
    if in_group(uarch, PRE_SNB):
        # Section 7.3.2 (Nehalem): lat(R1,R1) = 3 but lat(R2,R1) = 4.
        prepare = KUop(
            fu="shift", latency=1, inputs=(OP(1),), outputs=(UOP(1),)
        )
        combine_inputs = (OP(0), UOP(0))
        if form.flags_read:
            combine_inputs += (FLAGS,)
        combine = KUop(
            fu="shift",
            latency=3,
            inputs=combine_inputs,
            outputs=auto_outputs(form),
        )
        return [prepare, combine]
    plan = [
        KUop(
            fu="slow_int",
            latency=3,
            inputs=auto_inputs(form),
            outputs=auto_outputs(form),
        )
    ]
    if in_group(uarch, SKL_GROUP):
        # Section 7.3.2 (Skylake): latency 1 when the same register is used
        # for both operands (Nehalem does not exhibit this).
        same_reg = [
            KUop(
                fu="slow_int",
                latency=1,
                inputs=auto_inputs(form),
                outputs=auto_outputs(form),
            )
        ]
        return plan, same_reg
    return plan


# ---------------------------------------------------------------------------
# Multiplication and division
# ---------------------------------------------------------------------------


@rule("imul")
def _imul(form, uarch):
    # lat(dst->dst) = 3 but lat(src->dst) = 4 on the two-operand form
    # (Section 7.3.5 lists (I)MUL among the multi-latency instructions).
    explicit = [
        i for i, s in enumerate(form.operands)
        if s.kind != OperandKind.IMM
    ]
    delays = {}
    if len(explicit) >= 2 and form.operands[0].read:
        delays[OP(explicit[1])] = 1
    return [
        KUop(
            fu="slow_int",
            latency=3,
            inputs=auto_inputs(form),
            outputs=auto_outputs(form),
            input_delays=delays,
        )
    ]


@rule("mul1")
def _mul1(form, uarch):
    width = form.operands[0].width
    if width == 8:
        return single(form, "slow_int", 3)
    low = KUop(
        fu="slow_int",
        latency=3,
        inputs=(OP(0), OP(1)),
        outputs=(OP(1),),
    )
    high = KUop(
        fu="int_alu",
        latency=4,
        inputs=(OP(0), OP(1)),
        outputs=(OP(2), FLAGS),
    )
    return [low, high]


@rule("div")
def _div(form, uarch):
    timing = uarch.int_div
    width = form.operands[0].width
    filler_count = {8: 0, 16: 1, 32: 2, 64: 3}[width]
    div = KUop(
        fu="divider",
        latency=timing.slow_latency,
        inputs=auto_inputs(form),
        outputs=auto_outputs(form),
        divider_cycles=timing.slow_occupancy,
    )
    plan = [div]
    for k in range(filler_count):
        plan.append(
            KUop(fu="int_alu", latency=1, inputs=(UOP(0),), outputs=())
        )
    return plan


# ---------------------------------------------------------------------------
# Conditional operations, branches, flags
# ---------------------------------------------------------------------------


@rule("cmov")
def _cmov(form, uarch):
    if in_group(uarch, HSW_GROUP, SKL_GROUP) and uarch.name != "HSW":
        return single(form, "int_alu", 1)
    select = KUop(
        fu="int_alu", latency=1, inputs=(OP(0), FLAGS), outputs=(UOP(1),)
    )
    merge = KUop(
        fu="int_alu", latency=1, inputs=(UOP(0), OP(1)),
        outputs=auto_outputs(form),
    )
    return [select, merge]


@rule("cmov_be")
def _cmov_be(form, uarch):
    # CMOV(N)BE reads both CF and ZF and stays a two-µop instruction on all
    # generations (Section 7.3.5: multi-latency).
    select = KUop(
        fu="int_alu", latency=1, inputs=(FLAGS,), outputs=(UOP(1),)
    )
    merge = KUop(
        fu="int_alu", latency=1, inputs=(UOP(0), OP(0), OP(1)),
        outputs=auto_outputs(form),
    )
    return [select, merge]


@rule("setcc")
def _setcc(form, uarch):
    return single(form, "int_alu", 1)


@rule("branch", "jmp", "jmp_indirect")
def _branch(form, uarch):
    return single(form, "branch", 1)


@rule("call")
def _call(form, uarch):
    rsp = next(i for i, s in enumerate(form.operands) if s.fixed == "RSP")
    return [
        KUop(fu="int_alu", latency=1, inputs=(OP(rsp),), outputs=(OP(rsp),)),
        KUop(fu="store_addr", latency=1, inputs=(OP(rsp),),
             outputs=(("staddr", "stack"),), kind=KIND_STORE_ADDR),
        KUop(fu="store_data", latency=1, inputs=(),
             outputs=(("mem", "stack"),), kind=KIND_STORE_DATA),
        KUop(fu="branch", latency=1, inputs=(OP(0),), outputs=()),
    ]


@rule("ret")
def _ret(form, uarch):
    rsp = 0
    return [
        KUop(fu="load", latency=uarch.load_latency, inputs=(OP(rsp),),
             outputs=(("ld", "stack"),), kind=KIND_LOAD),
        KUop(fu="int_alu", latency=1, inputs=(OP(rsp),), outputs=(OP(rsp),)),
        KUop(fu="branch", latency=1, inputs=(("ld", "stack"),), outputs=()),
    ]


@rule("lahf")
def _lahf(form, uarch):
    return single(form, "shift", 1)


@rule("sahf")
def _sahf(form, uarch):
    # Section 7.2: on Haswell hardware (and IACA 2.1) SAHF uses ports 0 and
    # 6; IACA 2.2-3.0 wrongly add ports 1 and 5.
    return single(form, "shift", 1)


@rule("cwd")
def _cwd(form, uarch):
    return single(form, "int_alu", 1)


@rule("bitscan", "popcnt")
def _bitscan(form, uarch):
    return single(form, "slow_int", 3)


# ---------------------------------------------------------------------------
# Stack, locked, string, system
# ---------------------------------------------------------------------------


@rule("push")
def _push(form, uarch):
    rsp = next(i for i, s in enumerate(form.operands) if s.fixed == "RSP")
    data = tuple(
        OP(i)
        for i, s in enumerate(form.operands)
        if i != rsp and s.kind != OperandKind.IMM and s.read
    )
    return [
        KUop(fu="store_addr", latency=1, inputs=(OP(rsp),),
             outputs=(("staddr", "stack"),), kind=KIND_STORE_ADDR),
        KUop(fu="store_data", latency=1, inputs=data,
             outputs=(("mem", "stack"),), kind=KIND_STORE_DATA),
    ]


@rule("pop")
def _pop(form, uarch):
    rsp = next(i for i, s in enumerate(form.operands) if s.fixed == "RSP")
    dst = tuple(
        OP(i)
        for i, s in enumerate(form.operands)
        if i != rsp and s.written and s.kind != OperandKind.MEM
    )
    plan = [
        KUop(fu="load", latency=uarch.load_latency, inputs=(OP(rsp),),
             outputs=dst + (("ld", "stack"),), kind=KIND_LOAD),
    ]
    return plan


@rule("lock_rmw", "xchg_mem", "xadd_mem")
def _lock_rmw(form, uarch):
    mem_slot = next(
        i for i, s in enumerate(form.operands)
        if s.kind == OperandKind.MEM
    )
    other = tuple(
        OP(i)
        for i, s in enumerate(form.operands)
        if i != mem_slot and s.kind != OperandKind.IMM and s.read
    )
    reg_outs = tuple(
        OP(i)
        for i, s in enumerate(form.operands)
        if i != mem_slot and s.written and s.kind != OperandKind.MEM
    )
    flag_out = (FLAGS,) if form.flags_written else ()
    return [
        KUop(fu="load", latency=uarch.load_latency,
             inputs=(ADDR(mem_slot),), outputs=(("ld", mem_slot),),
             kind=KIND_LOAD),
        KUop(fu="int_alu", latency=16,
             inputs=(("ld", mem_slot),) + other,
             outputs=(UOP(2),) + reg_outs + flag_out),
        KUop(fu="int_alu", latency=1, inputs=(UOP(1),), outputs=()),
        KUop(fu="int_alu", latency=1, inputs=(UOP(1),), outputs=()),
        KUop(fu="store_addr", latency=1, inputs=(ADDR(mem_slot),),
             outputs=(("staddr", mem_slot),), kind=KIND_STORE_ADDR),
        KUop(fu="store_data", latency=1, inputs=(UOP(1),),
             outputs=(("mem", mem_slot),), kind=KIND_STORE_DATA),
    ]


@rule("string_rep")
def _string_rep(form, uarch):
    # REP-prefixed instructions have a variable number of µops on real
    # hardware; our ground truth uses a fixed small iteration count.
    ins = auto_inputs(form)
    outs = auto_outputs(form)
    return [
        KUop(fu="int_alu", latency=1, inputs=ins, outputs=(UOP(1),)),
        KUop(fu="load", latency=uarch.load_latency, inputs=(UOP(0),),
             outputs=(("ld", "stack"),), kind=KIND_LOAD),
        KUop(fu="store_addr", latency=1, inputs=(UOP(0),),
             outputs=(("staddr", "stack"),), kind=KIND_STORE_ADDR),
        KUop(fu="store_data", latency=1, inputs=(("ld", "stack"),),
             outputs=(("mem", "stack"),), kind=KIND_STORE_DATA),
        KUop(fu="int_alu", latency=1, inputs=(UOP(0),), outputs=outs),
        KUop(fu="int_alu", latency=1, inputs=(UOP(4),), outputs=()),
        KUop(fu="int_alu", latency=1, inputs=(UOP(4),), outputs=()),
    ]


@rule("string_one")
def _string_one(form, uarch):
    """MOVSx: one load + one store iteration plus pointer updates."""
    rsi, rdi = 0, 1
    return [
        KUop(fu="load", latency=uarch.load_latency, inputs=(OP(rsi),),
             outputs=(("ld", "stack"),), kind=KIND_LOAD),
        KUop(fu="store_addr", latency=1, inputs=(OP(rdi),),
             outputs=(("staddr", "stack"),), kind=KIND_STORE_ADDR),
        KUop(fu="store_data", latency=1, inputs=(("ld", "stack"),),
             outputs=(("mem", "stack"),), kind=KIND_STORE_DATA),
        KUop(fu="int_alu", latency=1, inputs=(OP(rsi),),
             outputs=(OP(rsi),)),
        KUop(fu="int_alu", latency=1, inputs=(OP(rdi),),
             outputs=(OP(rdi),)),
    ]


@rule("string_load")
def _string_load(form, uarch):
    pointer = 0
    outs = auto_outputs(form)
    return [
        KUop(fu="load", latency=uarch.load_latency,
             inputs=(OP(pointer),), outputs=outs + (("ld", "stack"),),
             kind=KIND_LOAD),
        KUop(fu="int_alu", latency=1, inputs=(OP(pointer),),
             outputs=(OP(pointer),)),
    ]


@rule("string_store")
def _string_store(form, uarch):
    pointer = 0
    data = tuple(
        OP(i) for i, s in enumerate(form.operands)
        if i != pointer and s.read
    )
    return [
        KUop(fu="store_addr", latency=1, inputs=(OP(pointer),),
             outputs=(("staddr", "stack"),), kind=KIND_STORE_ADDR),
        KUop(fu="store_data", latency=1, inputs=data,
             outputs=(("mem", "stack"),), kind=KIND_STORE_DATA),
        KUop(fu="int_alu", latency=1, inputs=(OP(pointer),),
             outputs=(OP(pointer),)),
    ]


@rule("string_cmp")
def _string_cmp(form, uarch):
    rsi, rdi = 0, 1
    return [
        KUop(fu="load", latency=uarch.load_latency, inputs=(OP(rsi),),
             outputs=(("ld", "stack"),), kind=KIND_LOAD),
        KUop(fu="load", latency=uarch.load_latency, inputs=(OP(rdi),),
             outputs=(("ld", "stack"),), kind=KIND_LOAD),
        KUop(fu="int_alu", latency=1, inputs=(UOP(0), UOP(1)),
             outputs=(FLAGS,)),
        KUop(fu="int_alu", latency=1, inputs=(OP(rsi),),
             outputs=(OP(rsi),)),
        KUop(fu="int_alu", latency=1, inputs=(OP(rdi),),
             outputs=(OP(rdi),)),
    ]


@rule("pushf")
def _pushf(form, uarch):
    rsp = 0
    return [
        KUop(fu="int_alu", latency=1, inputs=(FLAGS,), outputs=()),
        KUop(fu="store_addr", latency=1, inputs=(OP(rsp),),
             outputs=(("staddr", "stack"),), kind=KIND_STORE_ADDR),
        KUop(fu="store_data", latency=1, inputs=(UOP(0),),
             outputs=(("mem", "stack"),), kind=KIND_STORE_DATA),
    ]


@rule("popf")
def _popf(form, uarch):
    rsp = 0
    return [
        KUop(fu="load", latency=uarch.load_latency, inputs=(OP(rsp),),
             outputs=(("ld", "stack"),), kind=KIND_LOAD),
        KUop(fu="shift", latency=1, inputs=(("ld", "stack"),),
             outputs=(UOP(2),)),
        KUop(fu="shift", latency=1, inputs=(UOP(1),), outputs=(FLAGS,)),
    ]


@rule("leave")
def _leave(form, uarch):
    rbp, rsp = 0, 1
    return [
        KUop(fu="int_alu", latency=1, inputs=(OP(rbp),),
             outputs=(OP(rsp),)),
        KUop(fu="load", latency=uarch.load_latency, inputs=(OP(rbp),),
             outputs=(OP(rbp), ("ld", "stack")), kind=KIND_LOAD),
    ]


@rule("cmpxchg16b")
def _cmpxchg16b(form, uarch):
    mem_slot = 0
    ins = auto_inputs(form)
    plan = [
        KUop(fu="load", latency=uarch.load_latency,
             inputs=(ADDR(mem_slot),), outputs=(("ld", mem_slot),),
             kind=KIND_LOAD),
        KUop(fu="int_alu", latency=2,
             inputs=(("ld", mem_slot),) + tuple(
                 r for r in ins if r[0] == "op" and r[1] != mem_slot
             ),
             outputs=(OP(1), OP(2), FLAGS)),
        KUop(fu="store_addr", latency=1, inputs=(ADDR(mem_slot),),
             outputs=(("staddr", mem_slot),), kind=KIND_STORE_ADDR),
        KUop(fu="store_data", latency=1, inputs=(UOP(1),),
             outputs=(("mem", mem_slot),), kind=KIND_STORE_DATA),
    ]
    for _ in range(4):
        plan.append(
            KUop(fu="int_alu", latency=1, inputs=(UOP(1),), outputs=())
        )
    return plan


@rule("serializing")
def _serializing(form, uarch):
    plan = []
    for _ in range(4):
        plan.append(
            KUop(fu="int_alu", latency=1, inputs=(), outputs=())
        )
    plan.append(
        KUop(fu="int_alu", latency=1, inputs=auto_inputs(form),
             outputs=auto_outputs(form))
    )
    return plan


@rule("fence")
def _fence(form, uarch):
    return [KUop(fu=frozenset(), latency=1, inputs=(), outputs=())]


@rule("rdtsc")
def _rdtsc(form, uarch):
    plan = [
        KUop(fu="int_alu", latency=5, inputs=(),
             outputs=auto_outputs(form)),
    ]
    for _ in range(5):
        plan.append(KUop(fu="int_alu", latency=1, inputs=(), outputs=()))
    return plan


@rule("nop")
def _nop(form, uarch):
    return [KUop(fu=frozenset(), latency=0, inputs=(), outputs=())]


@rule("pause")
def _pause(form, uarch):
    return [
        KUop(fu=frozenset(), latency=0, inputs=(), outputs=())
        for _ in range(4)
    ]


@rule("unsupported")
def _unsupported(form, uarch):
    raise AssertionError("unsupported instructions have no entry")


# ---------------------------------------------------------------------------
# Vector: moves and cross-file transfers
# ---------------------------------------------------------------------------


@rule("vec_mov")
def _vec_mov(form, uarch):
    return single(form, "vec_logic", 1, domain=_vec_domain(form))


@rule("mmx_mov")
def _mmx_mov(form, uarch):
    return single(form, "mmx_alu", 1, domain=DOMAIN_IVEC)


@rule("vec_from_gpr")
def _vec_from_gpr(form, uarch):
    return single(form, "vec_gpr", 1, domain=DOMAIN_IVEC)


@rule("vec_to_gpr", "vec_movmsk")
def _vec_to_gpr(form, uarch):
    return single(form, "vec_gpr", 2, domain=DOMAIN_IVEC)


@rule("movq2dq")
def _movq2dq(form, uarch):
    if in_group(uarch, SKL_GROUP):
        # Section 7.3.3: one µop on port 0 plus one µop that can use ports
        # 0, 1 AND 5 (prior work reported 1*p0 + 1*p15).
        return [
            KUop(fu="vec_p0", latency=1, inputs=(OP(1),),
                 outputs=(UOP(1),), domain=DOMAIN_IVEC),
            KUop(fu="vec_int_alu", latency=1, inputs=(UOP(0),),
                 outputs=(OP(0),), domain=DOMAIN_IVEC),
        ]
    return [
        KUop(fu="vec_shuffle", latency=1, inputs=(OP(1),),
             outputs=(UOP(1),), domain=DOMAIN_IVEC),
        KUop(fu="vec_logic", latency=1, inputs=(UOP(0),),
             outputs=(OP(0),), domain=DOMAIN_IVEC),
    ]


@rule("movdq2q")
def _movdq2q(form, uarch):
    if in_group(uarch, HSW_GROUP, SKL_GROUP):
        # Section 7.3.4 (Haswell): 1*p5 + 1*p015.
        return [
            KUop(fu="vec_shuffle", latency=1, inputs=(OP(1),),
                 outputs=(UOP(1),), domain=DOMAIN_IVEC),
            KUop(fu="vec_logic", latency=1, inputs=(UOP(0),),
                 outputs=(OP(0),), domain=DOMAIN_IVEC),
        ]
    # Section 7.3.4 (Sandy Bridge): 1*p015 + 1*p5.
    return [
        KUop(fu="vec_logic", latency=1, inputs=(OP(1),),
             outputs=(UOP(1),), domain=DOMAIN_IVEC),
        KUop(fu="vec_shuffle", latency=1, inputs=(UOP(0),),
             outputs=(OP(0),), domain=DOMAIN_IVEC),
    ]


# ---------------------------------------------------------------------------
# Vector: integer
# ---------------------------------------------------------------------------


@rule("vec_int_alu", "vec_int_cmp", "mmx_alu")
def _vec_int_alu(form, uarch):
    fu = "mmx_alu" if form.operands[0].kind == OperandKind.MMX else \
        "vec_int_alu"
    return single(form, fu, 1, domain=DOMAIN_IVEC)


@rule("vec_logic")
def _vec_logic(form, uarch):
    return single(form, "vec_logic", 1, domain=_vec_domain(form))


@rule("vec_int_mul", "vec_psadbw")
def _vec_int_mul(form, uarch):
    latency = 3 if form.category == "vec_psadbw" else 5
    return single(form, "vec_int_mul", latency, domain=DOMAIN_IVEC)


@rule("vec_shift_imm")
def _vec_shift_imm(form, uarch):
    return single(form, "vec_shift", 1, domain=DOMAIN_IVEC)


@rule("vec_shift")
def _vec_shift(form, uarch):
    # Variable shifts: the count operand is needed one cycle later than the
    # data operand (Section 7.3.5: (V)PSLL/PSRL/PSRA are multi-latency).
    count_slot = max(
        i for i, s in enumerate(form.operands)
        if s.kind != OperandKind.IMM and s.read
    )
    kuop = KUop(
        fu="vec_shift",
        latency=1,
        inputs=auto_inputs(form),
        outputs=auto_outputs(form),
        input_delays={OP(count_slot): 1},
        domain=DOMAIN_IVEC,
    )
    return [kuop]


@rule("vec_shuffle", "vec_shuffle_imm", "avx_lane")
def _vec_shuffle(form, uarch):
    latency = 3 if form.category == "avx_lane" else 1
    return single(form, "vec_shuffle", latency, domain=_vec_domain(form))


@rule("vec_pshufb")
def _vec_pshufb(form, uarch):
    control_slot = max(
        i for i, s in enumerate(form.operands)
        if s.kind != OperandKind.IMM and s.read
    )
    fu = "mmx_alu" if form.operands[0].kind == OperandKind.MMX else \
        "vec_shuffle"
    kuop = KUop(
        fu=fu,
        latency=1,
        inputs=auto_inputs(form),
        outputs=auto_outputs(form),
        input_delays={OP(control_slot): 1},
        domain=DOMAIN_IVEC,
    )
    return [kuop]


@rule("vec_blend")
def _vec_blend(form, uarch):
    return single(form, "vec_logic", 1, domain=_vec_domain(form))


@rule("vec_blendv")
def _vec_blendv(form, uarch):
    mask_slot = max(
        i for i, s in enumerate(form.operands)
        if s.kind == OperandKind.VEC and s.read
    )
    domain = _vec_domain(form)
    if in_group(uarch, SKL_GROUP):
        kuop = KUop(
            fu="vec_blendv",
            latency=1,
            inputs=auto_inputs(form),
            outputs=auto_outputs(form),
            input_delays={OP(mask_slot): 1},
            domain=domain,
        )
        return [kuop]
    if in_group(uarch, HSW_GROUP):
        first = KUop(
            fu="vec_blendv", latency=1,
            inputs=tuple(r for r in auto_inputs(form)
                         if r != OP(mask_slot)),
            outputs=(UOP(1),), domain=domain,
        )
        second = KUop(
            fu="vec_logic", latency=1,
            inputs=(UOP(0), OP(mask_slot)),
            outputs=auto_outputs(form), domain=domain,
        )
        return [first, second]
    # Nehalem/Westmere/Sandy Bridge: two µops that can EACH use ports 0 and
    # 5 — the paper's Section 5.1 example of a usage (2*p05) that
    # isolation-based inference cannot distinguish from 1*p0 + 1*p5.
    first = KUop(
        fu="vec_blendv", latency=1,
        inputs=tuple(r for r in auto_inputs(form) if r != OP(mask_slot)),
        outputs=(UOP(1),), domain=domain,
    )
    second = KUop(
        fu="vec_blendv", latency=1,
        inputs=(UOP(0), OP(mask_slot)),
        outputs=auto_outputs(form), domain=domain,
    )
    return [first, second]


# ---------------------------------------------------------------------------
# Vector: floating point
# ---------------------------------------------------------------------------

_FP_ADD_LATENCY = {"NHM": 3, "WSM": 3, "SNB": 3, "IVB": 3, "HSW": 3,
                   "BDW": 3, "SKL": 4, "KBL": 4, "CFL": 4}
_FP_MUL_LATENCY = {"NHM": 4, "WSM": 4, "SNB": 5, "IVB": 5, "HSW": 5,
                   "BDW": 3, "SKL": 4, "KBL": 4, "CFL": 4}


@rule("vec_fp_add", "vec_fp_cmp", "vec_fp_minmax")
def _vec_fp_add(form, uarch):
    latency = _FP_ADD_LATENCY[uarch.name]
    if form.category in ("vec_fp_cmp", "vec_fp_minmax"):
        latency = min(latency, 3)
    return single(form, "vec_fp_add", latency, domain=DOMAIN_FVEC)


@rule("vec_fp_mul")
def _vec_fp_mul(form, uarch):
    return single(form, "vec_fp_mul", _FP_MUL_LATENCY[uarch.name],
                  domain=DOMAIN_FVEC)


@rule("fma")
def _fma(form, uarch):
    latency = 4 if in_group(uarch, SKL_GROUP) else 5
    return single(form, "fma", latency, domain=DOMAIN_FVEC)


@rule("vec_fp_div")
def _vec_fp_div(form, uarch):
    timing = uarch.fp_div
    kuop = KUop(
        fu="divider",
        latency=timing.slow_latency,
        inputs=auto_inputs(form),
        outputs=auto_outputs(form),
        divider_cycles=timing.slow_occupancy,
        domain=DOMAIN_FVEC,
    )
    return [kuop]


@rule("vec_fp_sqrt")
def _vec_fp_sqrt(form, uarch):
    timing = uarch.fp_sqrt
    kuop = KUop(
        fu="divider",
        latency=timing.slow_latency,
        inputs=auto_inputs(form),
        outputs=auto_outputs(form),
        divider_cycles=timing.slow_occupancy,
        domain=DOMAIN_FVEC,
    )
    return [kuop]


@rule("vec_fp_rcp")
def _vec_fp_rcp(form, uarch):
    return single(form, "vec_fp_mul", 5, domain=DOMAIN_FVEC)


@rule("vec_fp_hadd")
def _vec_fp_hadd(form, uarch):
    # Two shuffles feeding one add: 1*p_add + 2*p_shuffle.  On Skylake
    # this is the VHADDPD 1*p01 + 2*p5 of Section 7.2.
    ins = auto_inputs(form)
    return [
        KUop(fu="vec_shuffle", latency=1, inputs=ins, outputs=(UOP(2),),
             domain=DOMAIN_FVEC),
        KUop(fu="vec_shuffle", latency=1, inputs=ins, outputs=(UOP(2),),
             domain=DOMAIN_FVEC),
        KUop(fu="vec_fp_add", latency=3, inputs=(UOP(0), UOP(1)),
             outputs=auto_outputs(form), domain=DOMAIN_FVEC),
    ]


@rule("vec_fp_round")
def _vec_fp_round(form, uarch):
    ins = auto_inputs(form)
    return [
        KUop(fu="vec_fp_add", latency=4, inputs=ins, outputs=(UOP(1),),
             domain=DOMAIN_FVEC),
        KUop(fu="vec_fp_add", latency=4, inputs=(UOP(0),),
             outputs=auto_outputs(form), domain=DOMAIN_FVEC),
    ]


@rule("vec_dp")
def _vec_dp(form, uarch):
    ins = auto_inputs(form)
    return [
        KUop(fu="vec_fp_mul", latency=5, inputs=ins, outputs=(UOP(2),),
             domain=DOMAIN_FVEC),
        KUop(fu="vec_shuffle", latency=1, inputs=ins, outputs=(UOP(2),),
             domain=DOMAIN_FVEC),
        KUop(fu="vec_fp_add", latency=3, inputs=(UOP(0), UOP(1)),
             outputs=(UOP(3),), domain=DOMAIN_FVEC),
        KUop(fu="vec_fp_add", latency=3, inputs=(UOP(2),),
             outputs=auto_outputs(form), domain=DOMAIN_FVEC),
    ]


@rule("vec_cvt")
def _vec_cvt(form, uarch):
    return single(form, "vec_fp_add", 4, domain=DOMAIN_FVEC)


@rule("vec_cvt_gpr")
def _vec_cvt_gpr(form, uarch):
    gpr_slot = next(
        i for i, s in enumerate(form.operands)
        if s.kind in (OperandKind.GPR, OperandKind.MMX)
    )
    other = tuple(r for r in auto_inputs(form) if r != OP(gpr_slot))
    return [
        KUop(fu="vec_gpr", latency=1, inputs=(OP(gpr_slot),),
             outputs=(UOP(1),), domain=DOMAIN_IVEC),
        KUop(fu="vec_fp_add", latency=4, inputs=(UOP(0),) + other,
             outputs=auto_outputs(form), domain=DOMAIN_FVEC),
    ]


@rule("vec_cvt_to_gpr")
def _vec_cvt_to_gpr(form, uarch):
    return [
        KUop(fu="vec_fp_add", latency=4, inputs=auto_inputs(form),
             outputs=(UOP(1),), domain=DOMAIN_FVEC),
        KUop(fu="vec_gpr", latency=2, inputs=(UOP(0),),
             outputs=auto_outputs(form), domain=DOMAIN_IVEC),
    ]


# ---------------------------------------------------------------------------
# Vector: AES / CLMUL / SAD / extract-insert / tests
# ---------------------------------------------------------------------------


@rule("vec_aes")
def _vec_aes(form, uarch):
    state_slot = 0 if form.operands[0].read else 1
    key_slot = max(
        i for i, s in enumerate(form.operands) if s.read
    )
    one_source = state_slot == key_slot
    if in_group(uarch, PRE_SNB) or one_source:
        # Westmere (Section 7.3.1): three µops, 6 cycles for both operand
        # pairs.  AESIMC/AESKEYGENASSIST use the same decomposition.
        ins = auto_inputs(form)
        return [
            KUop(fu="vec_p0", latency=2, inputs=ins, outputs=(UOP(1),),
                 domain=DOMAIN_IVEC),
            KUop(fu="slow_int", latency=2, inputs=(UOP(0),),
                 outputs=(UOP(2),), domain=DOMAIN_IVEC),
            KUop(fu="vec_shuffle", latency=2, inputs=(UOP(1),),
                 outputs=auto_outputs(form), domain=DOMAIN_IVEC),
        ]
    if in_group(uarch, SNB_GROUP):
        # Sandy/Ivy Bridge (Section 7.3.1): lat(STATE->dst) = 8 but
        # lat(RoundKey->dst) = 1; the round key is only XORed in at the end.
        rounds = KUop(
            fu="vec_shuffle", latency=7, inputs=(OP(state_slot),),
            outputs=(UOP(1),), domain=DOMAIN_IVEC,
        )
        final_xor = KUop(
            fu="vec_p0", latency=1, inputs=(UOP(0), OP(key_slot)),
            outputs=auto_outputs(form), domain=DOMAIN_IVEC,
        )
        return [rounds, final_xor]
    # Haswell on (Section 7.3.1): a single 7-cycle µop; port 5 on
    # Haswell/Broadwell, port 0 on Skylake and its successors.
    return single(form, "vec_aes", 7, domain=DOMAIN_IVEC)


@rule("vec_clmul")
def _vec_clmul(form, uarch):
    if in_group(uarch, PRE_SNB, SNB_GROUP):
        ins = auto_inputs(form)
        return [
            KUop(fu="vec_int_mul", latency=7, inputs=ins,
                 outputs=(UOP(1),), domain=DOMAIN_IVEC),
            KUop(fu="vec_shuffle", latency=1, inputs=(UOP(0),),
                 outputs=auto_outputs(form), domain=DOMAIN_IVEC),
        ]
    return single(form, "vec_int_mul", 6, domain=DOMAIN_IVEC)


@rule("vec_mpsadbw")
def _vec_mpsadbw(form, uarch):
    src_slot = max(
        i for i, s in enumerate(form.operands)
        if s.kind != OperandKind.IMM and s.read
    )
    ins = auto_inputs(form)
    return [
        KUop(fu="vec_shuffle", latency=1, inputs=(OP(src_slot),),
             outputs=(UOP(1),), domain=DOMAIN_IVEC),
        KUop(fu="vec_int_mul", latency=3,
             inputs=(UOP(0),) + tuple(r for r in ins
                                      if r != OP(src_slot)),
             outputs=auto_outputs(form), domain=DOMAIN_IVEC),
    ]


@rule("vec_extract")
def _vec_extract(form, uarch):
    return [
        KUop(fu="vec_shuffle", latency=1, inputs=auto_inputs(form),
             outputs=(UOP(1),), domain=DOMAIN_IVEC),
        KUop(fu="vec_gpr", latency=2, inputs=(UOP(0),),
             outputs=auto_outputs(form), domain=DOMAIN_IVEC),
    ]


@rule("vec_insert")
def _vec_insert(form, uarch):
    gpr_slot = next(
        i for i, s in enumerate(form.operands) if s.kind == OperandKind.GPR
    )
    other = tuple(r for r in auto_inputs(form) if r != OP(gpr_slot))
    return [
        KUop(fu="vec_gpr", latency=1, inputs=(OP(gpr_slot),),
             outputs=(UOP(1),), domain=DOMAIN_IVEC),
        KUop(fu="vec_shuffle", latency=1, inputs=(UOP(0),) + other,
             outputs=auto_outputs(form), domain=DOMAIN_IVEC),
    ]


@rule("vec_ptest")
def _vec_ptest(form, uarch):
    return [
        KUop(fu="vec_logic", latency=1, inputs=auto_inputs(form),
             outputs=(UOP(1),), domain=DOMAIN_IVEC),
        KUop(fu="vec_gpr", latency=1, inputs=(UOP(0),),
             outputs=auto_outputs(form), domain=DOMAIN_IVEC),
    ]


@rule("vec_comis")
def _vec_comis(form, uarch):
    return single(form, "vec_fp_add", 2, domain=DOMAIN_FVEC)


@rule("vzeroupper")
def _vzeroupper(form, uarch):
    return [
        KUop(fu=frozenset(), latency=0, inputs=(), outputs=())
        for _ in range(4)
    ]


@rule("vzeroall")
def _vzeroall(form, uarch):
    return [
        KUop(fu=frozenset(), latency=0, inputs=(), outputs=())
        for _ in range(8)
    ]


# ---------------------------------------------------------------------------
# Later extensions: BMI, ADX, MOVBE, SSE4.2 strings, AVX2
# ---------------------------------------------------------------------------


@rule("movbe_load")
def _movbe_load(form, uarch):
    mem_slot = next(
        i for i, s in enumerate(form.operands)
        if s.kind == OperandKind.MEM
    )
    return [
        KUop(fu="load", latency=uarch.load_latency,
             inputs=(ADDR(mem_slot),), outputs=(("ld", mem_slot),),
             kind=KIND_LOAD),
        KUop(fu="slow_int", latency=1, inputs=(("ld", mem_slot),),
             outputs=auto_outputs(form)),
    ]


@rule("movbe_store")
def _movbe_store(form, uarch):
    mem_slot = next(
        i for i, s in enumerate(form.operands)
        if s.kind == OperandKind.MEM
    )
    data = tuple(
        OP(i) for i, s in enumerate(form.operands)
        if s.read and s.kind != OperandKind.IMM and i != mem_slot
    )
    return [
        KUop(fu="slow_int", latency=1, inputs=data, outputs=()),
        KUop(fu="store_addr", latency=1, inputs=(ADDR(mem_slot),),
             outputs=(("staddr", mem_slot),), kind=KIND_STORE_ADDR),
        KUop(fu="store_data", latency=1, inputs=(UOP(0),),
             outputs=(("mem", mem_slot),), kind=KIND_STORE_DATA),
    ]


@rule("crc32", "pdep")
def _crc32(form, uarch):
    return single(form, "slow_int", 3)


@rule("adx", "bmi_shift", "bmi_alu")
def _adx(form, uarch):
    fu = "shift" if form.category in ("adx", "bmi_shift") else "int_alu"
    return single(form, fu, 1)


@rule("bmi_alu2")
def _bmi_alu2(form, uarch):
    return single(form, "int_alu", 1)


@rule("bextr")
def _bextr(form, uarch):
    # Two µops on real hardware: shift + mask.
    return [
        KUop(fu="shift", latency=1, inputs=auto_inputs(form),
             outputs=()),
        KUop(fu="int_alu", latency=1, inputs=(UOP(0),),
             outputs=auto_outputs(form)),
    ]


@rule("mulx")
def _mulx(form, uarch):
    ins = auto_inputs(form)
    return [
        KUop(fu="slow_int", latency=4, inputs=ins,
             outputs=(OP(0),)),
        KUop(fu="slow_int", latency=4, inputs=ins,
             outputs=(OP(1),)),
    ]


@rule("cmpxchg")
def _cmpxchg(form, uarch):
    ins = auto_inputs(form)
    acc_slot = next(
        i for i, s in enumerate(form.operands) if s.implicit
    )
    return [
        KUop(fu="int_alu", latency=1, inputs=ins, outputs=(FLAGS,)),
        KUop(fu="int_alu", latency=1, inputs=(UOP(0),),
             outputs=(OP(0),)),
        KUop(fu="int_alu", latency=1, inputs=(UOP(0),),
             outputs=(OP(acc_slot),)),
    ]


@rule("vec_pmovx", "vec_broadcast")
def _vec_pmovx(form, uarch):
    return single(form, "vec_shuffle", 1, domain=DOMAIN_IVEC)


@rule("vec_extract_store")
def _vec_extract_store(form, uarch):
    mem_slot = next(
        i for i, s in enumerate(form.operands)
        if s.kind == OperandKind.MEM
    )
    data = tuple(
        OP(i) for i, s in enumerate(form.operands)
        if s.read and s.kind not in (OperandKind.IMM, OperandKind.MEM)
    )
    return [
        KUop(fu="vec_shuffle", latency=1, inputs=data, outputs=(),
             domain=DOMAIN_IVEC),
        KUop(fu="store_addr", latency=1, inputs=(ADDR(mem_slot),),
             outputs=(("staddr", mem_slot),), kind=KIND_STORE_ADDR),
        KUop(fu="store_data", latency=1, inputs=(UOP(0),),
             outputs=(("mem", mem_slot),), kind=KIND_STORE_DATA),
    ]


@rule("vec_phadd")
def _vec_phadd(form, uarch):
    ins = auto_inputs(form)
    return [
        KUop(fu="vec_shuffle", latency=1, inputs=ins, outputs=(),
             domain=DOMAIN_IVEC),
        KUop(fu="vec_shuffle", latency=1, inputs=ins, outputs=(),
             domain=DOMAIN_IVEC),
        KUop(fu="vec_int_alu", latency=1, inputs=(UOP(0), UOP(1)),
             outputs=auto_outputs(form), domain=DOMAIN_IVEC),
    ]


@rule("vec_phminpos")
def _vec_phminpos(form, uarch):
    return single(form, "vec_int_mul", 5, domain=DOMAIN_IVEC)


@rule("vec_string")
def _vec_string(form, uarch):
    ins = auto_inputs(form)
    reg_outs = tuple(
        OP(i) for i, s in enumerate(form.operands) if s.written
    )
    return [
        KUop(fu="vec_int_mul", latency=3, inputs=ins, outputs=(),
             domain=DOMAIN_IVEC),
        KUop(fu="slow_int", latency=3, inputs=(UOP(0),), outputs=(),
             domain=DOMAIN_IVEC),
        KUop(fu="vec_gpr", latency=2, inputs=(UOP(1),),
             outputs=reg_outs + (FLAGS,), domain=DOMAIN_IVEC),
    ]


@rule("vec_var_shift")
def _vec_var_shift(form, uarch):
    count_slot = max(
        i for i, s in enumerate(form.operands)
        if s.kind != OperandKind.IMM and s.read
    )
    return [
        KUop(
            fu="vec_shift",
            latency=1,
            inputs=auto_inputs(form),
            outputs=auto_outputs(form),
            input_delays={OP(count_slot): 1},
            domain=DOMAIN_IVEC,
        )
    ]


@rule("vec_gather")
def _vec_gather(form, uarch):
    """AVX2 gathers: one load µop per modeled lane plus merge µops.

    The VSIB index is an explicit vector operand; all lanes load through
    the base-register memory slot (see DESIGN.md).
    """
    mem_slot = next(
        i for i, s in enumerate(form.operands)
        if s.kind == OperandKind.MEM
    )
    index_slot = mem_slot + 1
    mask_slot = index_slot + 1
    lanes = 4
    plan = []
    for _ in range(lanes):
        plan.append(
            KUop(fu="load", latency=uarch.vec_load_latency,
                 inputs=(ADDR(mem_slot), OP(index_slot)),
                 outputs=(("ld", mem_slot),), kind=KIND_LOAD,
                 domain=DOMAIN_IVEC)
        )
    plan.append(
        KUop(fu="vec_int_alu", latency=1,
             inputs=tuple(UOP(k) for k in range(lanes))
             + (OP(0), OP(mask_slot)),
             outputs=(OP(0),), domain=DOMAIN_IVEC)
    )
    plan.append(
        KUop(fu="vec_logic", latency=1, inputs=(UOP(lanes),),
             outputs=(OP(mask_slot),), domain=DOMAIN_IVEC)
    )
    return plan


@rule("prefetch")
def _prefetch(form, uarch):
    mem_slot = 0
    return [
        KUop(fu="load", latency=1, inputs=(ADDR(mem_slot),),
             outputs=(("ld", mem_slot),), kind=KIND_LOAD)
    ]


@rule("clflush")
def _clflush(form, uarch):
    mem_slot = 0
    return [
        KUop(fu="store_addr", latency=1, inputs=(ADDR(mem_slot),),
             outputs=(("staddr", mem_slot),), kind=KIND_STORE_ADDR),
        KUop(fu="store_data", latency=1, inputs=(),
             outputs=(("mem", mem_slot),), kind=KIND_STORE_DATA),
    ]


@rule("vec_maskload")
def _vec_maskload(form, uarch):
    mem_slot = next(
        i for i, s in enumerate(form.operands)
        if s.kind == OperandKind.MEM
    )
    mask_slot = next(
        i for i, s in enumerate(form.operands)
        if s.kind == OperandKind.VEC and s.read
    )
    return [
        KUop(fu="load", latency=uarch.vec_load_latency,
             inputs=(ADDR(mem_slot),), outputs=(("ld", mem_slot),),
             kind=KIND_LOAD, domain=DOMAIN_FVEC),
        KUop(fu="vec_logic", latency=1,
             inputs=(("ld", mem_slot), OP(mask_slot)),
             outputs=auto_outputs(form), domain=DOMAIN_FVEC),
    ]


@rule("vec_maskstore")
def _vec_maskstore(form, uarch):
    mem_slot = next(
        i for i, s in enumerate(form.operands)
        if s.kind == OperandKind.MEM
    )
    sources = tuple(
        OP(i) for i, s in enumerate(form.operands)
        if s.read and s.kind == OperandKind.VEC
    )
    return [
        KUop(fu="vec_logic", latency=1, inputs=sources, outputs=(),
             domain=DOMAIN_FVEC),
        KUop(fu="store_addr", latency=1, inputs=(ADDR(mem_slot),),
             outputs=(("staddr", mem_slot),), kind=KIND_STORE_ADDR),
        KUop(fu="store_data", latency=1, inputs=(UOP(0),),
             outputs=(("mem", mem_slot),), kind=KIND_STORE_DATA),
    ]


# ---------------------------------------------------------------------------
# Finalization: memory wrapping and FU resolution
# ---------------------------------------------------------------------------


def supported_on(form: InstructionForm, uarch: UarchConfig) -> bool:
    """Whether the form exists on the given generation."""
    return uarch.supports_extension(form.extension)


def _resolve_ports(fu: Union[str, frozenset], uarch: UarchConfig):
    if isinstance(fu, frozenset):
        return fu
    return uarch.fu_ports(fu)


def _finalize(
    form: InstructionForm, uarch: UarchConfig, plan: Plan
) -> Tuple[UopSpec, ...]:
    """Resolve FU names, insert load/store µops, renumber temp refs."""
    mem_read_slots = [
        i for i, s in enumerate(form.operands)
        if s.kind == OperandKind.MEM and s.read
    ]
    mem_write_slots = [
        i for i, s in enumerate(form.operands)
        if s.kind == OperandKind.MEM and s.written
    ]
    agen_slots = {
        i for i, s in enumerate(form.operands)
        if s.kind == OperandKind.AGEN
    }
    explicit_loads = {
        ref[1]
        for k in plan
        if k.kind == KIND_LOAD
        for ref in k.outputs
        if ref[0] == "ld"
    }
    explicit_stores = {
        ref[1]
        for k in plan
        if k.kind == KIND_STORE_DATA
        for ref in k.outputs
        if ref[0] == "mem"
    }

    loads: List[UopSpec] = []
    load_for_slot = {}
    vec_load = any(
        s.kind in (OperandKind.VEC, OperandKind.MMX) for s in form.operands
    )
    for slot in mem_read_slots:
        if slot in explicit_loads or any(
            k.kind == KIND_LOAD for k in plan
        ):
            continue
        latency = uarch.vec_load_latency if vec_load else uarch.load_latency
        loads.append(
            UopSpec(
                ports=_resolve_ports("load", uarch),
                inputs=(ADDR(slot),),
                outputs=(("ld", slot),),
                latency=latency,
                kind=KIND_LOAD,
                domain=DOMAIN_INT,
            )
        )
        load_for_slot[slot] = len(loads) - 1

    kernel_base = len(loads)

    def remap_ref(ref: Ref, *, is_input: bool) -> Ref:
        if ref[0] == "op":
            slot = ref[1]
            if slot in agen_slots:
                return ADDR(slot)
            spec = form.operands[slot]
            if spec.kind == OperandKind.MEM:
                if is_input:
                    return ("ld", slot)
                return ("kmem", slot)  # resolved to a temp below
        if ref[0] == "uop":
            return ("uop", kernel_base + ref[1])
        return ref

    kernel: List[UopSpec] = []
    store_sources: Dict[int, Ref] = {}
    for idx, kuop in enumerate(plan):
        inputs = tuple(remap_ref(r, is_input=True) for r in kuop.inputs)
        outputs = []
        for ref in kuop.outputs:
            mapped = remap_ref(ref, is_input=False)
            if mapped[0] == "uop":
                # Temp results are implicit: every µop k exposes its
                # completion time as ("uop", k); listing it as an output in
                # a rule is purely documentary.
                continue
            if mapped[0] == "kmem":
                # This kernel µop produces the data for a store; route it
                # through a temp consumed by the store-data µop.
                store_sources[mapped[1]] = ("uop", kernel_base + idx)
                continue
            outputs.append(mapped)
        input_delays = {
            remap_ref(r, is_input=True): d
            for r, d in kuop.input_delays.items()
        }
        output_latencies = {
            remap_ref(r, is_input=False): lat
            for r, lat in kuop.output_latencies.items()
            if remap_ref(r, is_input=False)[0] != "kmem"
        }
        kernel.append(
            UopSpec(
                ports=_resolve_ports(kuop.fu, uarch),
                inputs=inputs,
                outputs=tuple(outputs),
                latency=kuop.latency,
                input_delays=input_delays,
                output_latencies=output_latencies,
                kind=kuop.kind,
                divider_cycles=kuop.divider_cycles,
                domain=kuop.domain,
            )
        )

    stores: List[UopSpec] = []
    for slot in mem_write_slots:
        if slot in explicit_stores:
            continue
        data_ref = store_sources.get(slot)
        if data_ref is None:
            # Pure store with no computing µop: the data comes straight
            # from the source operands (handled by the "store" rule, so
            # reaching here means a category forgot the slot).
            data_ref = ("ld", slot) if slot in load_for_slot else ()
            data_inputs = (data_ref,) if data_ref else ()
        else:
            data_inputs = (data_ref,)
        stores.append(
            UopSpec(
                ports=_resolve_ports("store_addr", uarch),
                inputs=(ADDR(slot),),
                outputs=(("staddr", slot),),
                latency=1,
                kind=KIND_STORE_ADDR,
            )
        )
        stores.append(
            UopSpec(
                ports=_resolve_ports("store_data", uarch),
                inputs=data_inputs,
                outputs=(("mem", slot),),
                latency=1,
                kind=KIND_STORE_DATA,
            )
        )
    return tuple(loads + kernel + stores)


def has_entry(form: InstructionForm, uarch: UarchConfig) -> bool:
    """Whether :func:`build_entry` returns an entry for *form* on
    *uarch*, without building it; ``KeyError`` for a category without a
    table rule, as there."""
    if not supported_on(form, uarch) or form.has_attribute(
        ATTR_UNSUPPORTED
    ):
        return False
    if form.category not in _RULES:
        raise KeyError(
            f"no table rule for category {form.category!r} ({form.uid})"
        )
    return True


def build_entry(
    form: InstructionForm, uarch: UarchConfig
) -> Optional[UarchEntry]:
    """Ground-truth entry for *form* on *uarch*; ``None`` if unavailable
    (exactly where :func:`has_entry` is false)."""
    if not has_entry(form, uarch):
        return None
    result = _RULES[form.category](form, uarch)
    if isinstance(result, tuple):
        plan, same_reg_plan = result
    else:
        plan, same_reg_plan = result, None
    uops = _finalize(form, uarch, plan)
    same_reg = (
        _finalize(form, uarch, same_reg_plan)
        if same_reg_plan is not None
        else None
    )
    zero_idiom = form.has_attribute(ATTR_ZERO_IDIOM)
    divider_class = None
    if form.category == "div":
        divider_class = "int_div"
    elif form.category == "vec_fp_div":
        divider_class = "fp_div"
    elif form.category == "vec_fp_sqrt":
        divider_class = "fp_sqrt"
    return UarchEntry(
        uops=uops,
        fused_uop_count=_fused_count(uops),
        same_reg_uops=same_reg,
        zero_idiom=zero_idiom,
        zero_idiom_eliminated=zero_idiom and uarch.zero_idiom_elimination,
        dep_breaking=(
            form.has_attribute(ATTR_DEP_BREAKING)
            or _strip_vex(form.mnemonic).startswith("PCMPGT")
        ),
        divider_class=divider_class,
        serializing=form.has_attribute("serializing"),
    )


def _strip_vex(mnemonic: str) -> str:
    return mnemonic[1:] if mnemonic.startswith("V") else mnemonic


def _fused_count(uops: Tuple[UopSpec, ...]) -> int:
    """µop count in the fused domain (the paper's future work).

    Load µops micro-fuse with the operation that consumes them (when one
    exists), and each store-address/store-data pair fuses into one µop.
    """
    total = len(uops)
    kinds = [u.kind for u in uops]
    has_compute = any(k == KIND_ALU and u.uses_port
                      for k, u in zip(kinds, uops))
    loads = kinds.count(KIND_LOAD)
    store_pairs = min(kinds.count(KIND_STORE_ADDR),
                      kinds.count(KIND_STORE_DATA))
    fused = total - store_pairs
    if has_compute:
        fused -= loads
    return max(1, fused) if total else 0
