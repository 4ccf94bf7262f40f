"""The cycle-accurate out-of-order core (the simulated hardware).

The model follows the split common to trace-driven simulators: architectural
values are emulated eagerly in program order (:mod:`repro.pipeline.semantics`)
while timing is resolved by a cycle loop over renamed µops.  The timing
model implements (Figure 1 / Section 3.1):

* a 4-wide in-order issue front end and 4-wide in-order retirement,
* register renaming at issue, including *move elimination* (only a fraction
  of eligible moves is actually eliminated, as the paper observes: roughly
  one third in a chain of dependent ``MOV``s) and *zero idioms*,
* a reservation station of limited size; each cycle every port accepts at
  most one ready µop, chosen oldest-first with least-loaded port binding,
* fully pipelined functional units except the divider, which a µop occupies
  for a value-dependent number of cycles (Section 5.2.5),
* per-operand-pair latencies realized through per-input delays and
  per-output latencies of the ground-truth µops,
* a bypass delay when a value crosses between the integer-vector and
  floating-point-vector domains (Section 5.2.1),
* a store buffer with store-to-load forwarding (Section 5.2.4),
* SSE/AVX transition stalls on the generations that have them.

Observability is restricted to what hardware performance counters provide
(Section 3.3): elapsed core cycles and the number of µops executed per port.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

from repro.isa.instruction import ATTR_MOVE, Instruction
from repro.isa.operands import Memory, OperandKind, RegisterOperand
from repro.pipeline.analytic import schedule_analytic, stream_template
from repro.pipeline.semantics import evaluate
from repro.pipeline.state import MachineState
from repro.uarch.model import UarchConfig
from repro.uarch.tables import build_entry
from repro.uarch.uops import DOMAIN_INT, KIND_LOAD, UarchEntry

#: Values at or below this are "fast" divider operands (Section 5.2.5).
_FAST_VALUE_LIMIT = 0xFFFFF

KERNEL_ANALYTIC = "analytic"
KERNEL_REFERENCE = "reference"


def kernel_mode(explicit: Optional[str] = None) -> str:
    """Resolve the timing-kernel selection.

    The default is the closed-form analytic tier, exact wherever it
    answers, which falls back to the per-cycle reference loop per run on
    a divider reorder (the one stream shape without a closed form).  An
    explicit ``"reference"`` selects that loop for every run (the
    differential-test oracle and the escape hatch when debugging a
    suspected closed-form mismatch).
    """
    mode = explicit or KERNEL_ANALYTIC
    if mode not in (KERNEL_ANALYTIC, KERNEL_REFERENCE):
        raise ValueError(
            f"unknown timing kernel {mode!r}; expected "
            f"{KERNEL_ANALYTIC!r} or {KERNEL_REFERENCE!r}"
        )
    return mode


@dataclass
class CounterValues:
    """A snapshot of the performance counters (Section 3.3).

    ``uops`` counts unfused-domain µops (what the per-port counters see);
    ``uops_fused`` counts fused-domain µops (micro-fusion of load+op and
    store pairs — the paper's future work).
    """

    cycles: int = 0
    port_uops: Dict[int, int] = field(default_factory=dict)
    uops: int = 0
    instructions: int = 0
    uops_fused: int = 0

    def __sub__(self, other: "CounterValues") -> "CounterValues":
        ports = {
            p: self.port_uops.get(p, 0) - other.port_uops.get(p, 0)
            for p in set(self.port_uops) | set(other.port_uops)
        }
        return CounterValues(
            cycles=self.cycles - other.cycles,
            port_uops=ports,
            uops=self.uops - other.uops,
            instructions=self.instructions - other.instructions,
            uops_fused=self.uops_fused - other.uops_fused,
        )

    def scaled(self, divisor: float) -> "CounterValues":
        return CounterValues(
            cycles=self.cycles / divisor,
            port_uops={p: c / divisor for p, c in self.port_uops.items()},
            uops=self.uops / divisor,
            instructions=self.instructions / divisor,
            uops_fused=self.uops_fused / divisor,
        )


class _RUop:
    """A renamed, in-flight µop."""

    __slots__ = (
        "ports",
        "deps",
        "complete_lat",
        "kind",
        "divider_cycles",
        "dispatch",
        "completion",
        "min_issue",
        "index",
        "_ready_cache",
    )

    def __init__(self, ports, complete_lat, kind, divider_cycles):
        self.ports = ports
        self.deps: List[Tuple[Optional["_RUop"], int]] = []
        self.complete_lat = complete_lat
        self.kind = kind
        self.divider_cycles = divider_cycles
        self.dispatch = -1
        self.completion = -1
        self.min_issue = 0
        self.index = -1
        self._ready_cache = -1

    def ready_time(self) -> int:
        """Cycle at which all inputs are available, or -1 if unknown.

        Once every producer has dispatched the value is final and can be
        cached (dispatch times never change), which removes the dominant
        cost of the cycle loop.
        """
        cached = self._ready_cache
        if cached >= 0:
            return cached
        ready = 0
        for producer, offset in self.deps:
            if producer is None:
                t = offset
            else:
                producer_dispatch = producer.dispatch
                if producer_dispatch < 0:
                    return -1
                t = producer_dispatch + offset
            if t > ready:
                ready = t
        self._ready_cache = ready
        return ready


class _EntryCache:
    """Caches ground-truth entries per (form uid, uarch)."""

    def __init__(self, uarch: UarchConfig):
        self._uarch = uarch
        self._cache: Dict[str, Optional[UarchEntry]] = {}

    def get(self, instruction: Instruction) -> Optional[UarchEntry]:
        uid = instruction.form.uid
        if uid not in self._cache:
            self._cache[uid] = build_entry(instruction.form, self._uarch)
        return self._cache[uid]


class RenameContext:
    """Resumable rename-stage state.

    :meth:`Core.rename_block` folds instruction blocks into a context one
    block at a time, so a caller can observe (and snapshot) the rename
    state at block boundaries — the analytic measure path uses this to
    prove that an unrolled block's rename output is periodic without
    renaming the whole unroll.

    ``emulate=False`` selects *structural* rename: architectural values
    are never computed (no :func:`~repro.pipeline.semantics.evaluate`
    call, no divider operand classification).  Values reach the
    dependence graph and the latencies in exactly two ways, and the
    caller supplies both:

    * store-to-load forwarding keys on addresses.  With stores the
      caller passes ``accesses``, one ``(reads, writes)`` pair of slot
      -> ``MemAccess`` maps per position of the block, which every
      renamed copy reuses — exact when every copy computes the same
      effective addresses (see
      :func:`repro.measure.extrapolate._fixed_addresses`);
    * divider µops take the latency and occupancy of their operands'
      value class (Section 5.2.5).  Before renaming a block the caller
      sets ``divider_fast``, one boolean per position of the block (read
      only at divider positions), to that copy's classes; unset, every
      divider µop is classified slow.
    """

    __slots__ = (
        "state",
        "emulate",
        "reg_writer",
        "flag_writer",
        "mem_writer",
        "uops",
        "move_elim_counter",
        "serialize_dep",
        "vec_mode",
        "frontend_release",
        "prev_form",
        "fused_total",
        "decode_cycle",
        "decode_slots",
        "complex_used",
        "accesses",
        "divider_fast",
    )

    def __init__(self, state: Optional[MachineState], emulate: bool = True,
                 accesses: Optional[Sequence[Tuple[Dict, Dict]]] = None):
        self.state = state
        self.emulate = emulate
        self.accesses = accesses
        self.divider_fast: Optional[Sequence[bool]] = None
        self.reg_writer: Dict[str, Tuple[Optional[_RUop], int, str]] = {}
        self.flag_writer: Dict[str, Tuple[Optional[_RUop], int]] = {}
        self.mem_writer: Dict[int, Tuple[_RUop, int]] = {}
        self.uops: List[_RUop] = []
        self.move_elim_counter = 0
        self.serialize_dep: Optional[_RUop] = None
        self.vec_mode = "clean"
        self.frontend_release = 0
        self.prev_form = None
        self.fused_total = 0
        self.decode_cycle = 0
        self.decode_slots = 0
        self.complex_used = False


class Core:
    """A simulated core of one microarchitecture generation.

    A ``Core`` is reusable: each :meth:`run` simulates one straight-line
    code block from a fresh architectural and pipeline state, exactly like
    one serialized measurement of Algorithm 2.
    """

    def __init__(self, uarch: UarchConfig,
                 enable_macro_fusion: bool = False,
                 enable_decoder_model: bool = False,
                 kernel: Optional[str] = None):
        """Args:
            uarch: the generation to simulate.
            enable_macro_fusion: model macro-fusion of flag-setting
                instructions with a following conditional branch.  Off by
                default — the paper's tool does not model fusion (it is
                listed as future work), and the mainline benchmarks match
                that setting; the fusion-characterization extension turns
                it on explicitly.
            enable_decoder_model: model the legacy decode pipe (three
                simple decoders, one complex decoder, Microcode ROM for
                instructions with more than four µops).  Also future
                work in the paper; off by default so that mainline
                measurements see an ideal front end, on for the
                decoder-characterization extension.
            kernel: timing-kernel override (``"analytic"`` or
                ``"reference"``); defaults to the analytic tier.  Both
                produce bit-identical counters.
        """
        self.uarch = uarch
        self.enable_macro_fusion = enable_macro_fusion
        self.enable_decoder_model = enable_decoder_model
        self.kernel = kernel_mode(kernel)
        self._entries = _EntryCache(uarch)
        self.last_fused_uops = 0
        #: Total cycles of the streams this core timed, by whichever
        #: kernel (for RunStatistics).
        self.cycles_simulated = 0
        #: Structural memo of the measure-level analytic fast path:
        #: digest of the relative rename templates -> closed-form unroll
        #: results (see repro.measure.extrapolate._analytic_unrolled).
        self.analytic_memo: Dict = {}
        #: Per-form cache of the fast-path guards (divider / store µops),
        #: filled lazily by repro.measure.extrapolate.
        self.fastpath_blockers: Dict = {}

    # ------------------------------------------------------------------
    # Rename: program-order construction of the µop dataflow graph
    # ------------------------------------------------------------------

    def _rename(
        self,
        instructions: Sequence[Instruction],
        state: MachineState,
    ) -> List[_RUop]:
        context = RenameContext(state)
        self.rename_block(instructions, context)
        return context.uops

    def rename_block(
        self,
        instructions: Sequence[Instruction],
        context: RenameContext,
    ) -> None:
        """Fold *instructions* into *context*, appending renamed µops.

        The incremental form of :meth:`_rename`: calling this once per
        block with a shared context renames exactly the concatenation of
        the blocks (the rename stage is a pure fold over its state).
        Also refreshes ``last_fused_uops`` from the context's cumulative
        total.
        """
        uarch = self.uarch
        state = context.state
        emulate = context.emulate
        reg_writer = context.reg_writer
        flag_writer = context.flag_writer
        mem_writer = context.mem_writer
        uops = context.uops
        move_elim_counter = context.move_elim_counter
        serialize_dep = context.serialize_dep
        # SSE/AVX transition state machine (Sandy Bridge .. Broadwell):
        # "clean" -> AVX-256 write -> "avx_dirty"; executing legacy SSE in
        # that state saves the upper halves (penalty, -> "sse_saved");
        # returning to AVX restores them (penalty, -> "avx_dirty").
        vec_mode = context.vec_mode
        frontend_release = context.frontend_release
        bypass = uarch.vec_bypass_delay
        prev_form = context.prev_form
        fused_total = context.fused_total
        # Legacy decoder model (extension): per cycle, up to four
        # instructions decode, at most one of them multi-µop (the complex
        # decoder); >4-µop instructions come from the Microcode ROM and
        # block the decoders for ceil(µops/4) cycles.
        decode_cycle = context.decode_cycle
        decode_slots = context.decode_slots
        complex_used = context.complex_used
        accesses = context.accesses
        divider_classes = context.divider_fast
        next_index = len(uops)

        for position, instruction in enumerate(instructions):
            form = instruction.form
            entry = self._entries.get(instruction)
            if entry is None:
                raise ValueError(
                    f"{form.uid} is not supported on {uarch.name}"
                )
            same_regs = instruction.same_register_operands()

            # Macro-fusion (extension; the paper's future work): a
            # fusible flag-writing instruction directly followed by a
            # conditional branch reading (a subset of) its flags executes
            # as a single µop — the branch contributes none of its own.
            if (
                self.enable_macro_fusion
                and form.category == "branch"
                and prev_form is not None
                and prev_form.mnemonic in uarch.macro_fusible
                and form.flags_read
                and form.flags_read <= prev_form.flags_written
            ):
                if emulate:
                    evaluate(instruction, state)
                prev_form = form
                continue
            fused_total += entry.fused_uops
            prev_form = form

            # SSE/AVX transition stall (Sandy Bridge .. Broadwell).
            if uarch.sse_avx_transition_penalty:
                if form.category in ("vzeroupper", "vzeroall"):
                    vec_mode = "clean"
                elif form.is_avx:
                    wide = any(
                        s.kind == OperandKind.VEC and s.width == 256
                        for s in form.operands
                    )
                    if vec_mode == "sse_saved":
                        frontend_release += \
                            uarch.sse_avx_transition_penalty
                        vec_mode = "avx_dirty"
                    elif wide:
                        vec_mode = "avx_dirty"
                elif form.is_sse and vec_mode == "avx_dirty":
                    frontend_release += uarch.sse_avx_transition_penalty
                    vec_mode = "sse_saved"

            # Divider value dependence, classified before execution.
            divider_fast = False
            if entry.divider_class is not None:
                if emulate:
                    divider_fast = divider_operands_fast(instruction, state)
                elif divider_classes is not None:
                    divider_fast = divider_classes[position]

            # Architectural execution (also yields memory addresses).
            # Structural rename skips it: addresses matter only for
            # store-to-load forwarding, and store bodies hand in the
            # per-position accesses their copies all share.
            if emulate:
                reads, writes = split_accesses(evaluate(instruction, state))
            elif accesses is not None:
                reads, writes = accesses[position]
            else:
                reads = {}
                writes = {}

            specs = entry.uops_for(same_regs)
            break_reg_deps = same_regs and (
                entry.dep_breaking or entry.zero_idiom
            )
            if (
                entry.zero_idiom_eliminated
                and same_regs
                and not form.has_memory_operand
            ):
                specs = specs[:1]
                eliminated_idiom = True
            else:
                eliminated_idiom = False

            # Move elimination: candidate reg-to-reg moves lose their µop's
            # execution (the rename stage aliases the destination), but
            # only one third of candidates succeeds, matching the paper's
            # observation for chains of dependent MOVs.
            eliminate_move = False
            if (
                form.has_attribute(ATTR_MOVE)
                and uarch.move_elimination
                and not form.has_memory_operand
                and form.operands[0].width >= 32
                and not same_regs
            ):
                eliminate_move = move_elim_counter % 3 == 0
                move_elim_counter += 1

            if self.enable_decoder_model:
                n_uops = len(specs)
                if n_uops > 4:
                    # Microcode ROM: exclusive use of the front end.
                    if decode_slots or complex_used:
                        decode_cycle += 1
                    decode_cycle += (n_uops + 3) // 4
                    decode_slots = 4  # nothing else this cycle
                    complex_used = True
                elif n_uops > 1:
                    if complex_used or decode_slots >= 4:
                        decode_cycle += 1
                        decode_slots = 0
                    complex_used = True
                    decode_slots += 1
                else:
                    if decode_slots >= 4:
                        decode_cycle += 1
                        decode_slots = 0
                        complex_used = False
                    decode_slots += 1

            local: List[_RUop] = []
            local_refs: Dict[Tuple, Tuple[_RUop, int]] = {}
            effective_latency: List[int] = []

            for k, spec in enumerate(specs):
                base_latency = spec.latency
                divider_cycles = spec.divider_cycles
                if entry.divider_class is not None and \
                        spec.divider_cycles > 0:
                    timing = uarch.divider_timing(entry.divider_class)
                    base_latency, divider_cycles = timing.timing(
                        divider_fast
                    )
                if eliminated_idiom or (eliminate_move and spec.uses_port):
                    ports = frozenset()
                    complete_lat = 0
                    base_latency = 0
                    divider_cycles = 0
                else:
                    ports = spec.ports
                    complete_lat = base_latency
                    for lat in spec.output_latencies.values():
                        if lat > complete_lat:
                            complete_lat = lat
                effective_latency.append(base_latency)
                ruop = _RUop(
                    ports,
                    complete_lat,
                    spec.kind,
                    divider_cycles if not eliminated_idiom else 0,
                )
                ruop.min_issue = max(frontend_release, decode_cycle)
                deps = ruop.deps

                if serialize_dep is not None:
                    deps.append(
                        (serialize_dep, serialize_dep.complete_lat)
                    )

                for ref in spec.inputs:
                    kind = ref[0]
                    if kind == "op":
                        if eliminated_idiom or (
                            break_reg_deps
                            and form.operands[ref[1]].is_register
                        ):
                            continue
                        operand = instruction.operands[ref[1]]
                        if isinstance(operand, RegisterOperand):
                            writer = reg_writer.get(
                                operand.register.canonical
                            )
                            if writer is not None:
                                extra = spec.input_delay(ref)
                                producer, offset, domain = writer
                                if (
                                    producer is not None
                                    and domain != spec.domain
                                    and domain != DOMAIN_INT
                                    and spec.domain != DOMAIN_INT
                                ):
                                    extra += bypass
                                deps.append(
                                    (producer, offset + extra)
                                )
                    elif kind == "flags":
                        for flag in form.flags_read:
                            writer = flag_writer.get(flag)
                            if writer is not None:
                                deps.append(writer)
                    elif kind == "addr":
                        slot = ref[1]
                        _add_address_deps(
                            instruction, slot, reg_writer, deps
                        )
                    elif kind in ("ld", "mem", "staddr", "uop"):
                        local_ref = local_refs.get(ref)
                        if local_ref is not None:
                            producer, offset = local_ref
                            deps.append(
                                (producer, offset + spec.input_delay(ref))
                            )

                # Loads: pointer into memory + store-to-load forwarding.
                if spec.kind == KIND_LOAD:
                    access = None
                    for ref in chain(spec.outputs, spec.inputs):
                        if ref[0] in ("ld", "addr") and ref[1] in reads:
                            access = reads[ref[1]]
                            break
                    if access is None and reads:
                        access = next(iter(reads.values()))
                    if access is not None:
                        forward = mem_writer.get(access.address)
                        if forward is not None:
                            producer, offset = forward
                            deps.append(
                                (
                                    producer,
                                    offset
                                    + uarch.store_forward_latency
                                    - ruop.complete_lat,
                                )
                            )

                ruop.index = next_index
                next_index += 1
                uops.append(ruop)
                local.append(ruop)
                # Register intra-instruction result refs.
                local_refs[("uop", k)] = (ruop, effective_latency[k])
                for out in spec.outputs:
                    okind = out[0]
                    olat = spec.output_latencies.get(
                        out, effective_latency[k]
                    )
                    if okind in ("ld", "staddr", "mem"):
                        local_refs[out] = (ruop, olat)

            # Publish architectural outputs (program order, last µop wins).
            for k, spec in enumerate(specs):
                ruop = local[k]
                for out in spec.outputs:
                    okind = out[0]
                    olat = spec.output_latencies.get(
                        out, effective_latency[k]
                    )
                    if ruop.ports == frozenset() and (
                        eliminated_idiom or eliminate_move
                    ):
                        olat = 0
                    if okind == "op":
                        operand = instruction.operands[out[1]]
                        if isinstance(operand, RegisterOperand):
                            canonical = operand.register.canonical
                            if eliminate_move:
                                # Alias the destination to the source's
                                # producer: a zero-latency rename.
                                src = instruction.operands[1]
                                writer = reg_writer.get(
                                    src.register.canonical
                                )
                                reg_writer[canonical] = writer or (
                                    None,
                                    0,
                                    DOMAIN_INT,
                                )
                            else:
                                reg_writer[canonical] = (
                                    ruop,
                                    olat,
                                    spec.domain,
                                )
                    elif okind == "flags":
                        for flag in form.flags_written:
                            flag_writer[flag] = (ruop, olat)
                    elif okind == "mem":
                        access = writes.get(out[1])
                        if access is not None:
                            mem_writer[access.address] = (ruop, olat)

            if entry.serializing:
                serialize_dep = uops[-1] if uops else None

        context.move_elim_counter = move_elim_counter
        context.serialize_dep = serialize_dep
        context.vec_mode = vec_mode
        context.frontend_release = frontend_release
        context.prev_form = prev_form
        context.fused_total = fused_total
        context.decode_cycle = decode_cycle
        context.decode_slots = decode_slots
        context.complex_used = complex_used
        self.last_fused_uops = fused_total

    # ------------------------------------------------------------------
    # Timing: the cycle loop
    # ------------------------------------------------------------------

    def _timing(self, uops: List[_RUop]) -> CounterValues:
        """Resolve the timing of a renamed µop stream.

        The closed-form recurrence answers where it can.  With
        ``kernel="reference"``, or on a divider reorder (a younger
        divider µop could take the divider first), the per-cycle
        reference loop times the stream instead.  The closed form plays
        the stream as one template (:func:`stream_template`), which
        writes nothing but ``uop.index``.  Both produce
        bit-identical counters (pinned by tests/test_sim_differential.py
        and tests/test_sim_fuzz.py).
        """
        if self.kernel != KERNEL_REFERENCE:
            timed = schedule_analytic(
                self.uarch, (stream_template(uops),), (0,)
            )
            if timed is not None:
                self.cycles_simulated += timed.cycles
                return CounterValues(
                    cycles=timed.cycles,
                    port_uops=timed.ports[0],
                    uops=len(uops),
                    instructions=0,
                )
        return self._timing_reference(uops)

    def _timing_reference(self, uops: List[_RUop]) -> CounterValues:
        uarch = self.uarch
        issue_width = uarch.issue_width
        retire_width = uarch.retire_width
        rob_size = uarch.rob_size
        rs_size = uarch.rs_size
        ports = uarch.ports

        n = len(uops)
        for index, uop in enumerate(uops):
            uop.index = index

        port_counts: Dict[int, int] = {p: 0 for p in ports}
        issue_ptr = 0
        retire_ptr = 0
        in_rob = 0
        in_rs = 0
        # Port binding happens at ISSUE time (as on real Intel cores,
        # which bind µops to ports at allocation based on load counters);
        # each port then dispatches its oldest ready µop per cycle.
        port_queues: Dict[int, List[_RUop]] = {p: [] for p in ports}
        portless: List[_RUop] = []
        divider_free = 0
        cycle = 0
        guard = 0
        max_cycles = 200 * n + 10_000

        while retire_ptr < n:
            progress = False

            # Retire in order.
            retired = 0
            while (
                retired < retire_width
                and retire_ptr < n
                and 0 <= uops[retire_ptr].completion <= cycle
            ):
                retire_ptr += 1
                in_rob -= 1
                retired += 1
                progress = True

            # Issue in order; bind each µop to its least-loaded port.
            issued = 0
            while (
                issued < issue_width
                and issue_ptr < n
                and in_rob < rob_size
                and in_rs < rs_size
            ):
                uop = uops[issue_ptr]
                if uop.min_issue > cycle:
                    break
                issue_ptr += 1
                in_rob += 1
                issued += 1
                progress = True
                if uop.ports:
                    port = -1
                    best_count = -1
                    for p in uop.ports:
                        count = port_counts[p]
                        if port < 0 or count < best_count or (
                            count == best_count and p < port
                        ):
                            port = p
                            best_count = count
                    port_counts[port] += 1
                    port_queues[port].append(uop)
                    in_rs += 1
                else:
                    portless.append(uop)

            # NOPs / eliminated µops complete in the ROB without using
            # an execution port.
            if portless:
                still_portless: List[_RUop] = []
                for uop in portless:
                    ready = uop.ready_time()
                    if 0 <= ready <= cycle:
                        uop.dispatch = cycle
                        uop.completion = cycle + uop.complete_lat
                        progress = True
                    else:
                        still_portless.append(uop)
                portless = still_portless

            # Dispatch: every port takes its oldest ready µop.
            for port, queue in port_queues.items():
                for index, uop in enumerate(queue):
                    ready = uop.ready_time()
                    if ready < 0 or ready > cycle:
                        continue
                    if uop.divider_cycles and divider_free > cycle:
                        continue
                    uop.dispatch = cycle
                    uop.completion = cycle + uop.complete_lat
                    if uop.divider_cycles:
                        divider_free = cycle + uop.divider_cycles
                    del queue[index]
                    in_rs -= 1
                    progress = True
                    break

            cycle += 1
            if not progress:
                guard += 1
                next_event = self._next_event(
                    uops, portless, port_queues, retire_ptr, n,
                    divider_free, cycle, issue_ptr,
                )
                if next_event > cycle:
                    cycle = next_event
                if guard > max_cycles:
                    raise RuntimeError(
                        "simulator deadlock: no progress "
                        f"(cycle={cycle}, retired={retire_ptr}/{n})"
                    )

        total_cycles = cycle
        self.cycles_simulated += total_cycles
        return CounterValues(
            cycles=total_cycles,
            port_uops=port_counts,
            uops=n,
            instructions=0,
        )

    @staticmethod
    def _next_event(
        uops, portless, port_queues, retire_ptr, n, divider_free, cycle,
        issue_ptr
    ) -> int:
        """Earliest future cycle at which anything can change.

        Iterates the live containers directly — the stall path used to
        concatenate ``portless`` with every port queue into a fresh list
        on each no-progress cycle, which dominated long stalls.
        """
        best = None

        def consider(t: Optional[int]) -> None:
            nonlocal best
            if t is not None and t >= cycle and (best is None or t < best):
                best = t

        def consider_uop(uop) -> None:
            ready = uop.ready_time()
            if ready >= 0:
                consider(max(ready, cycle))
                if uop.divider_cycles:
                    consider(divider_free)

        if retire_ptr < n and uops[retire_ptr].completion >= 0:
            consider(uops[retire_ptr].completion)
        for uop in portless:
            consider_uop(uop)
        for queue in port_queues.values():
            for uop in queue:
                consider_uop(uop)
        if issue_ptr < n:
            consider(uops[issue_ptr].min_issue)
        return best if best is not None else cycle

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run(
        self,
        instructions: Sequence[Instruction],
        init: Optional[Dict[str, int]] = None,
    ) -> CounterValues:
        """Execute a straight-line block from a fresh serialized state.

        Returns the performance-counter deltas for the block, i.e. what one
        pair of counter reads around ``AsmCode`` in Algorithm 2 observes.
        """
        state = MachineState.initial(init)
        uops = self._rename(instructions, state)
        counters = self._timing(uops)
        counters.instructions = len(instructions)
        counters.uops_fused = self.last_fused_uops
        return counters

    def supports(self, instruction_or_form) -> bool:
        form = getattr(instruction_or_form, "form", instruction_or_form)
        return build_entry(form, self.uarch) is not None


def split_accesses(accesses) -> Tuple[Dict, Dict]:
    """``(reads, writes)``: one instruction's memory accesses by slot."""
    reads = {a.slot: a for a in accesses if a.kind == "R"}
    writes = {a.slot: a for a in accesses if a.kind == "W"}
    return reads, writes


def _add_address_deps(instruction, slot, reg_writer, deps) -> None:
    """Dependencies through the address registers of a memory operand."""
    if slot == "stack":
        writer = reg_writer.get("RSP")
        if writer is not None:
            deps.append((writer[0], writer[1]))
        return
    operand = instruction.operands[slot]
    if not isinstance(operand, Memory):
        if isinstance(operand, RegisterOperand):
            writer = reg_writer.get(operand.register.canonical)
            if writer is not None:
                deps.append((writer[0], writer[1]))
        return
    for reg in (operand.base, operand.index):
        if reg is not None:
            writer = reg_writer.get(reg.canonical)
            if writer is not None:
                deps.append((writer[0], writer[1]))


def divider_operands_fast(
    instruction: Instruction, state: MachineState
) -> bool:
    """Whether the source values fall in the divider's fast class."""
    for spec, operand in zip(
        instruction.form.operands, instruction.operands
    ):
        if not spec.read:
            continue
        if isinstance(operand, RegisterOperand):
            value = state.read_register(operand.register)
        elif isinstance(operand, Memory):
            value = state.load(
                state.effective_address(operand), spec.width
            )
        else:
            continue
        if value > _FAST_VALUE_LIMIT:
            return False
    return True


def simulate(
    instructions: Sequence[Instruction],
    uarch: UarchConfig,
    init: Optional[Dict[str, int]] = None,
) -> CounterValues:
    """Convenience one-shot simulation (fresh :class:`Core`)."""
    return Core(uarch).run(instructions, init)
