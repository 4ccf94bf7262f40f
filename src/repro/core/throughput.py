"""Throughput: measured (Section 5.3.1) and computed from the port usage
as the optimum of a linear program (Section 5.3.2).

The measured (Fog-style, Definition 2) throughput runs sequences of 1, 2, 4,
and 8 independent instruction instances (longer sequences can be *slower*,
which is why several lengths are tried), plus a variant with
dependency-breaking instructions for instructions with implicit read+write
operands.  Divider instructions are measured with both high- and
low-throughput operand values.

The computed (Intel-style, Definition 1) throughput is the optimal value of

    minimize  max_p sum_pc f(p, pc)
    s.t.      f(p, pc) = 0            for p not in pc
              sum_p f(p, pc) = mu_pc  for each (pc, mu_pc)

whose optimum is the bottleneck bound of :func:`solve_port_assignment`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

from repro.core.codegen import (
    RegisterAllocator,
    form_fixed_canonicals,
    independent_sequence,
    instantiate,
)
from repro.core.experiment import ExperimentBatch, Plan
from repro.core.latency import DIVISOR_VALUE, FAST_DIVIDER_VALUE
from repro.core.result import PortUsage, ThroughputResult
from repro.isa.instruction import InstructionForm
from repro.isa.operands import Immediate, OperandKind, RegisterOperand
from repro.isa.registers import register_by_name, sized_view

_SEQUENCE_LENGTHS = (1, 2, 4, 8)


def measure_throughput(
    form: InstructionForm,
    backend,
    database=None,
) -> ThroughputResult:
    """Fog-style throughput over several independent-sequence lengths.

    One-shot wrapper around :func:`plan_throughput`.
    """
    from repro.measure.executor import ExperimentExecutor

    return ExperimentExecutor(backend).drive(
        plan_throughput(form, database)
    )


def plan_throughput(
    form: InstructionForm,
    database=None,
) -> Plan:
    """Plan the throughput measurements of Section 5.3.1 as one batch:
    the four sequence lengths, the dependency-breaking variant, and the
    fast/slow divider sequences where applicable."""
    batch = ExperimentBatch()
    lengths = []
    for length in _SEQUENCE_LENGTHS:
        code = independent_sequence(form, length)
        handle = batch.add(code, tag=f"tp:L{length}:{form.uid}")
        lengths.append((length, handle))

    # Variant with dependency-breaking instructions for implicit
    # read+write operands (Section 5.3.1).
    broken_handle = None
    if database is not None and _has_implicit_rw(form):
        broken = _sequence_with_breakers(form, database, 4)
        if broken is not None:
            code, per_copy_instructions = broken
            broken_handle = batch.add(code, tag=f"tp:breakers:{form.uid}")

    divider = []
    if form.category in ("div", "vec_fp_div", "vec_fp_sqrt") and \
            database is not None:
        for klass, value in (("fast", FAST_DIVIDER_VALUE),
                             ("slow", 0x7FFFFFFF)):
            code, init, copies = _divider_sequence(form, database, value)
            handle = batch.add(code, init, tag=f"tp:{klass}:{form.uid}")
            divider.append((klass, handle, copies))

    results = yield batch

    by_length: Dict[int, float] = {
        length: results[handle].cycles / length
        for length, handle in lengths
    }
    same_kind = min(by_length.values())
    best = same_kind
    if broken_handle is not None:
        cycles = results[broken_handle].cycles / per_copy_instructions
        if cycles < best:
            best = cycles

    fast = None
    for klass, handle, copies in divider:
        cycles = results[handle].cycles / copies
        if klass == "fast":
            fast = cycles
        else:
            best = cycles
            same_kind = cycles
    return ThroughputResult(
        measured=best,
        measured_same_kind=same_kind,
        by_sequence_length=by_length,
        measured_fast_values=fast,
    )


def _has_implicit_rw(form: InstructionForm) -> bool:
    return any(
        s.implicit and s.read and s.written for s in form.operands
    ) or bool(form.flags_read & form.flags_written)


def _sequence_with_breakers(form, database, length):
    """Independent instances interleaved with dependency breakers."""
    try:
        mov = database.by_uid("MOV_R64_I32")
        test = database.by_uid("TEST_R64_R64")
    except KeyError:
        return None
    allocator = RegisterAllocator(form_fixed_canonicals(form))
    code = []
    for _ in range(length):
        instr = instantiate(form, allocator)
        code.append(instr)
        for i, spec in enumerate(form.operands):
            if spec.implicit and spec.read and spec.written and \
                    spec.kind == OperandKind.GPR:
                operand = instr.operands[i]
                if isinstance(operand, RegisterOperand):
                    code.append(
                        mov.instantiate(
                            RegisterOperand(
                                sized_view(operand.register, 64)
                            ),
                            Immediate(7, 32),
                        )
                    )
        if form.flags_read & form.flags_written:
            try:
                reg = allocator.gpr(64)
            except RuntimeError:
                allocator = RegisterAllocator(form_fixed_canonicals(form))
                reg = allocator.gpr(64)
            code.append(
                test.instantiate(
                    RegisterOperand(reg), RegisterOperand(reg)
                )
            )
    return code, length


def _divider_sequence(form, database, value):
    """``(code, init, copies)`` of one pinned divider sequence.

    Implicit read+write operands (``RAX``/``RDX`` for DIV) serialize plain
    sequences, so dependency-breaking ``MOV reg, imm`` instructions re-pin
    the operand values between instances; the pin *value* selects the fast
    or the slow divider path (Section 5.2.5).
    """
    mov = database.by_uid("MOV_R64_I32")
    avx = form.is_avx
    if avx:
        vec_zero = database.by_uid("VPXOR_XMM_XMM_XMM")
        vec_pin = database.by_uid("VPOR_XMM_XMM_XMM")
    else:
        vec_zero = database.by_uid("PXOR_XMM_XMM")
        vec_pin = database.by_uid("POR_XMM_XMM")
    allocator_pin = None
    instances = independent_sequence(form, 4)
    code = []
    init: Dict[str, int] = {}
    for instr in instances:
        code.append(instr)
        for i, spec in enumerate(instr.form.operands):
            if not spec.read:
                continue
            operand = instr.operands[i]
            if not isinstance(operand, RegisterOperand):
                continue
            name = operand.register.canonical
            pin = (
                DIVISOR_VALUE
                if (i == 0 and form.category == "div")
                else value
            )
            init.setdefault(name, pin)
            if not spec.written:
                continue
            if spec.kind == OperandKind.GPR:
                code.append(
                    mov.instantiate(
                        RegisterOperand(
                            sized_view(operand.register, 64)
                        ),
                        Immediate(pin, 32),
                    )
                )
            elif spec.kind == OperandKind.VEC:
                # PXOR reg,reg breaks the dependency; POR reg,pin
                # restores the pinned value.
                if allocator_pin is None:
                    allocator_pin = register_by_name("XMM0")
                    init.setdefault(allocator_pin.canonical, pin)
                view = sized_view(operand.register, 128)
                if avx:
                    code.append(
                        vec_zero.instantiate(
                            RegisterOperand(view),
                            RegisterOperand(view),
                            RegisterOperand(view),
                        )
                    )
                    code.append(
                        vec_pin.instantiate(
                            RegisterOperand(view),
                            RegisterOperand(view),
                            RegisterOperand(allocator_pin),
                        )
                    )
                else:
                    code.append(
                        vec_zero.instantiate(
                            RegisterOperand(view),
                            RegisterOperand(view),
                        )
                    )
                    code.append(
                        vec_pin.instantiate(
                            RegisterOperand(view),
                            RegisterOperand(allocator_pin),
                        )
                    )
    return code, init, len(instances)


def compute_throughput_from_port_usage(
    port_usage: PortUsage, ports: Sequence[int]
) -> Optional[float]:
    """Intel-style throughput (Definition 1) from the inferred port usage.

    Returns ``None`` when the usage is empty (e.g. instructions whose µops
    never reach an execution port).
    """
    solution = solve_port_assignment(dict(port_usage.counts), ports)
    if solution is None:
        return None
    return solution[0]


def solve_port_assignment(
    counts: Dict[frozenset, float], ports: Sequence[int]
) -> Optional[tuple]:
    """Solve the LP of Section 5.3.2 exactly, without an LP solver.

    The optimum is the *bottleneck bound*: the maximum over port sets S
    of the µops whose combination lies inside S, divided by |S| (those
    µops can only go to the ports of S, and by max-flow/min-cut some
    assignment meets the densest such bound).  It is computed in
    :class:`~fractions.Fraction`s over the subsets of the usage's own
    ports.

    The loads come from peeling layers: the largest densest set S takes
    load = density on each of its ports, the combinations inside S are
    dropped, S is cut out of the rest, and the remainder is peeled
    again.  That is the unique most-balanced optimal assignment — the
    densities fall from layer to layer, so the first layer's is ``z``.

    Args:
        counts: µops per port combination.
        ports: all ports of the machine.

    Returns:
        ``(z, loads)`` where ``z`` is the minimized maximum port load and
        ``loads`` maps each port to its assigned µop share; ``None`` if the
        usage is empty.
    """
    remaining: Dict[int, Fraction] = {}
    for combination, mu in counts.items():
        mask = sum(1 << port for port in combination)
        remaining[mask] = remaining.get(mask, 0) + Fraction(mu)
    if not remaining:
        return None
    loads = {port: 0.0 for port in ports}
    z = None
    while remaining:
        density, tight = _densest_set(remaining)
        if z is None:
            z = density
        for port in ports:
            if tight >> port & 1:
                loads[port] = float(density)
        cut: Dict[int, Fraction] = {}
        for mask, mu in remaining.items():
            rest = mask & ~tight
            if rest:
                cut[rest] = cut.get(rest, 0) + mu
        remaining = cut
    return float(z), loads


def _densest_set(remaining: Dict[int, Fraction]) -> Tuple[Fraction, int]:
    """``(density, S)`` of the largest port set S (a bit mask) maximizing
    (µops whose combination lies inside S) / |S|.  The maximizers are
    closed under union, so the largest one is unique."""
    union = 0
    for mask in remaining:
        union |= mask
    best = (Fraction(-1), 0, 0)
    subset = union
    while subset:
        inside = sum(
            mu for mask, mu in remaining.items() if not mask & ~subset
        )
        size = bin(subset).count("1")
        best = max(best, (inside / size, size, subset))
        subset = (subset - 1) & union
    return best[0], best[2]
