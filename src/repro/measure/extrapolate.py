"""The measurement ladder: exact counters of unrolled-block runs.

:class:`~repro.measure.backend.HardwareBackend` implements Algorithm 2 by
running the block under test unrolled ``unroll_small`` and
``unroll_large`` times.  :func:`unrolled_counters` serves both unroll
factors from two rungs, cheapest first:

1. **Closed form** (:func:`_analytic_unrolled`).  Rename is a
   deterministic fold over a small state, so the block is renamed
   *structurally* (no value emulation) copy by copy until two
   rename-state snapshots match — a proof that the renamed stream is
   periodic from there on.  The transient plus one period become
   relative templates, and the analytic recurrence schedules the probe
   by playing them in order
   (:func:`~repro.pipeline.analytic.schedule_analytic`).  Counters of
   each target are read off the probe as a prefix, or extrapolated from
   its periodic tail — in exact integer arithmetic, so the values are
   bit-identical to a full simulation.  The recurrence answers every
   stream but a divider reorder (see divider bodies below).
2. **Full simulation**: ``core.run(code * t)`` per target, which is what
   the paper's protocol literally does.  It serves the bodies the
   closed form declines — addresses that move between copies
   (:func:`_fixed_addresses`), the fusion and decoder front-end
   extensions, rename states with no period within
   :data:`SNAPSHOT_BUDGET`, and divider reorders — each counted per
   reason in :class:`~repro.stats.RunStatistics`.

``kernel="reference"`` skips the closed form and runs every target on
the seed per-cycle loop: the oracle of the differential tests.

The observation that a repeated basic block settles into a periodic
steady state is the same one uops.info's own loop-based throughput
protocol and PALMED's saturating-kernel design rely on.

Reading targets off one probe rests on the *prefix property* of the
simulated core: counters observed at a copy boundary of a longer unroll
equal the counters of simulating exactly that many copies.  Port binding
is a pure function of issue order, issue/retire are in order, and a port
always dispatches its oldest ready µop — so a younger µop can never
delay an older one, and the recurrence schedules each µop from older
µops alone.  The non-pipelined divider is the one exception: its
occupancy can let a younger divider µop (ready while the older's
operands were still in flight) take the divider first.  The recurrence
detects that case and returns ``None``; everywhere else the prefix
property holds, divider µops included.  Divider bodies are also the
value-dependent case (Section 5.2.5): the closed form serves them by
emulating only the backward slice of the divider operands
(:func:`_value_slice`) to get each copy's value class, proving the
rename period over the rename state *and* that class sequence, and
scheduling the longest target's stream once; every target is read off
it as a prefix.  A divider reorder declines the body,
counted in ``divider_reorders``, and the full rung serves it.

Divider-free bodies extrapolate.  The timing period of the probe is
detected on a trailing window and *verified* before use: the periodic
prediction must reproduce a probe twice as long (capped at the longest
unroll target) per-copy signature by signature.  A transient whose
deltas merely look periodic for a while — e.g. a reservation-station
fill pattern that repeats until the window drains — fails the check, and
detection restarts on the longer probe.  The recurrence is resumable, so
a longer probe schedules only the copies it adds to the shorter one.
When no period survives, the stream is extended to the longest target
and every target is a prefix.  When one doubling would reach the longest
target anyway, the first probe is simply that long
(:func:`_first_probe`) and every target is a prefix.
"""

from __future__ import annotations

import hashlib
from itertools import chain
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.isa.operands import Memory
from repro.pipeline.analytic import (
    ProbeResult,
    encode_uops,
    schedule_analytic,
)
from repro.pipeline.core import (
    KERNEL_REFERENCE,
    Core,
    CounterValues,
    RenameContext,
    divider_operands_fast,
    split_accesses,
)
from repro.pipeline.semantics import evaluate
from repro.pipeline.state import MachineState
from repro.stats import RunStatistics
from repro.uarch.uops import KIND_STORE_ADDR, KIND_STORE_DATA

#: Minimum number of copies in a probe.  Large enough that
#: issue-rate transients (ROB/RS fill, SSE/AVX transition stalls on the
#: first copies, move-elimination phase-in) have settled and a trailing
#: window of clean periods is observable.
MIN_PROBE = 18

#: Longest per-copy period the detector searches for.
MAX_PERIOD = 4

#: Trailing copies that must repeat for a period to be accepted.
def _window(period: int) -> int:
    return max(6, 3 * period)


#: Copies structurally renamed while searching for a rename-state period
#: (the analytic tier's probe budget; see :func:`_analytic_unrolled`).
SNAPSHOT_BUDGET = 12

#: Categories whose implicit stack or string accesses move with a
#: pointer register every copy updates (RSP, RSI, RDI).
_MOVING_ACCESS_CATEGORIES = frozenset(
    ("push", "pop", "call", "ret", "string_rep")
)


def _first_probe(targets: Sequence[int]) -> int:
    """Copies of the first probe for the sorted unroll *targets*.

    The probe must be long enough for transients to settle
    (:data:`MIN_PROBE`) and to cover the short target.  Verifying a
    period doubles it, so when twice the probe reaches the longest
    target anyway, one probe of exactly that length serves every
    target as a prefix — exact with no period at all.
    """
    probe = min(targets[-1], max(MIN_PROBE, targets[0] + 2))
    return targets[-1] if targets[-1] <= 2 * probe else probe


def _form_blockers(core: Core, instruction) -> Tuple[bool, bool]:
    """(divider, stores) fast-path guard flags for one instruction form.

    Pure functions of the form's ground-truth entry, so they are cached
    per form on the core (one dict probe per instruction thereafter).
    """
    form = instruction.form
    flags = core.fastpath_blockers.get(form)
    if flags is not None:
        return flags
    entry = core._entries.get(instruction)
    if entry is None:
        flags = (True, True)  # unsupported: let the simulation raise
    else:
        divider = entry.divider_class is not None or any(
            spec.divider_cycles
            for spec in chain(entry.uops, entry.same_reg_uops or ())
        )
        stores = any(
            spec.kind in (KIND_STORE_ADDR, KIND_STORE_DATA)
            or any(out[0] == "mem" for out in spec.outputs)
            for spec in chain(entry.uops, entry.same_reg_uops or ())
        )
        flags = (divider, stores)
    core.fastpath_blockers[form] = flags
    return flags


def _uses_divider(core: Core, code: Sequence) -> bool:
    """Static guard: any µop of *code* can occupy the divider.

    Divider timing is operand-value dependent and its occupancy can
    reorder divider µops, so these bodies never extrapolate: the
    closed-form path schedules the longest target from its class-aware
    templates and reads every target off it, and a declined body
    simulates each target.
    """
    return any(_form_blockers(core, i)[0] for i in code)


def _uses_stores(core: Core, code: Sequence) -> bool:
    """Static guard: any µop of *code* writes memory.

    Stores make rename value-dependent (store-to-load forwarding keys on
    effective addresses), so the structural-rename fast path takes them
    only when :func:`_fixed_addresses` holds.
    """
    return any(_form_blockers(core, i)[1] for i in code)


def _fixed_addresses(code: Sequence) -> bool:
    """Static guard: every copy of *code* computes the same addresses.

    True when no instruction writes RSP or the base or index register
    of any memory operand of the body (implicit operands included), and
    the body has no access through a pointer register the instruction
    itself advances (push, pop, call, ret, REP string moves).  Register
    values that feed addresses then never change, so the accesses of
    the first copy are those of every copy.  Pointer chases through
    memory fail the guard and are simulated in full.
    """
    address_registers = {"RSP"}
    for instruction in code:
        if instruction.form.category in _MOVING_ACCESS_CATEGORIES:
            return False
        for operand in instruction.operands:
            if isinstance(operand, Memory):
                for reg in (operand.base, operand.index):
                    if reg is not None:
                        address_registers.add(reg.canonical)
    return not any(
        address_registers.intersection(instruction.registers_written())
        for instruction in code
    )


#: The one resource that stands for every status flag in the slice.
_FLAGS = "flags"


def _granules(accesses) -> Iterator[int]:
    """The 8-byte memory granules the given ``MemAccess``es touch."""
    for access in accesses:
        for g in range(max(1, access.width // 64)):
            yield access.address + 8 * g


def _value_slice(
    code: Sequence,
    accesses: Sequence[Tuple[Dict, Dict]],
    roots: Sequence[int],
) -> List[int]:
    """Positions of *code* whose values can reach the *roots*' operands.

    A loop-carried backward slice over the fixed per-position
    ``(reads, writes)`` accesses of one copy: starting from everything
    the root instructions (the divider positions, always members) read,
    any instruction that writes a resource in the set joins the slice
    and adds its own reads, until nothing changes.  Position order is
    ignored, since in an unrolled body a write anywhere reaches later
    copies.  Resources, all conservative:

    * canonical registers; a written register also counts as read,
      because a partial write merges with the old value;
    * one flags resource, written by every instruction (a handler may
      set flags its form does not declare), read by flag-reading forms;
    * memory, per 8-byte granule of the fixed accesses.

    Every writer of what the slice reads is in the slice, so emulating
    only the slice in program order reproduces each value a slice
    instruction reads exactly as full emulation does.  Address
    registers are read but never written (:func:`_fixed_addresses`).
    """
    reads: List[set] = []
    writes: List[set] = []
    for instruction, (mem_reads, mem_writes) in zip(code, accesses):
        written = set(instruction.registers_written())
        read = set(instruction.registers_read()) | written
        if instruction.form.flags_read:
            read.add(_FLAGS)
        written.add(_FLAGS)
        read.update(_granules(mem_reads.values()))
        written.update(_granules(mem_writes.values()))
        reads.append(read)
        writes.append(written)
    members = set(roots)
    live = set().union(*(reads[p] for p in roots))
    grown = True
    while grown:
        grown = False
        for p, written in enumerate(writes):
            if p not in members and not written.isdisjoint(live):
                members.add(p)
                live |= reads[p]
                grown = True
    return sorted(members)


def _divider_classes(
    core: Core,
    code: Sequence,
    accesses: Sequence[Tuple[Dict, Dict]],
    init: Optional[Dict[str, int]],
    copies: int,
) -> List[Tuple[bool, ...]]:
    """Each copy's divider value classes, one boolean per position.

    Emulates only :func:`_value_slice` of the divider positions, for
    ``copies`` copies from a fresh initial state, classifying each
    divider's operands right before it executes — the values full
    emulation would see, at O(slice x copies) ``evaluate`` calls.
    """
    roots = []
    for p, instruction in enumerate(code):
        entry = core._entries.get(instruction)
        if entry is not None and entry.divider_class is not None:
            roots.append(p)
    dividers = set(roots)
    positions = _value_slice(code, accesses, roots)
    state = MachineState.initial(init)
    row = [False] * len(code)
    classes = []
    for _ in range(copies):
        for p in positions:
            if p in dividers:
                row[p] = divider_operands_fast(code[p], state)
            evaluate(code[p], state)
        classes.append(tuple(row))
    return classes


def _rename_snapshot(context: RenameContext) -> Tuple:
    """Canonical relative view of everything rename carries forward.

    Producer references are encoded as *ages* (distance from the current
    stream end), so two equal snapshots at copies ``k`` and ``k - p``
    prove — rename being a deterministic fold of this state over the
    block — that the rename output is exactly periodic with period ``p``
    from copy ``k - p + 1`` on.  No heuristic window needed.
    """
    n = len(context.uops)
    regs = tuple(sorted(
        (
            name,
            -1 if writer[0] is None else n - writer[0].index,
            writer[1],
            writer[2],
        )
        for name, writer in context.reg_writer.items()
    ))
    flags = tuple(sorted(
        (
            name,
            -1 if writer[0] is None else n - writer[0].index,
            writer[1],
        )
        for name, writer in context.flag_writer.items()
    ))
    stores = tuple(sorted(
        (address, n - producer.index, offset)
        for address, (producer, offset) in context.mem_writer.items()
    ))
    serialize = context.serialize_dep
    return (
        regs,
        flags,
        stores,
        -1 if serialize is None else n - serialize.index,
        context.move_elim_counter % 3,
        context.vec_mode,
    )


def _copy_template(
    context: RenameContext, start: int, fr_base: int, fused_base: int
) -> Tuple:
    """Relative encoding of one renamed copy, replayable at any offset:
    its µops (:func:`~repro.pipeline.analytic.encode_uops`, ``min_issue``
    relative to the copy's starting ``frontend_release``), then the
    copy's ``frontend_release`` and fused-µop deltas."""
    return (
        encode_uops(context.uops[start:], fr_base),
        context.frontend_release - fr_base,
        context.fused_total - fused_base,
    )


def _template_order(
    start: int, copies: int, transient: int, period: int
) -> List[int]:
    """Template index (0-based) for copies ``start + 1`` to ``copies``."""
    base = transient - period
    return [
        c - 1 if c <= transient else base + (c - base - 1) % period
        for c in range(start + 1, copies + 1)
    ]


def _analytic_unrolled(
    core: Core,
    code: Sequence,
    init: Optional[Dict[str, int]],
    targets: Sequence[int],
    stats: RunStatistics,
) -> Optional[Dict[int, CounterValues]]:
    """Serve every unroll target in closed form, or ``None`` to fall back.

    The plan: structurally rename the block copy by copy until two
    rename-state snapshots match (proof of exact periodicity), encode
    the transient plus one period as relative templates, and schedule
    the probe by playing them through the analytic recurrence — no
    kernel run, no value emulation, and rename cost
    bounded by :data:`SNAPSHOT_BUDGET` copies instead of the unroll
    factor.  Guards: stores or dividers whose addresses can move between
    copies (:func:`_fixed_addresses`) and the fusion/decoder extensions
    (front-end state not covered by the snapshot) return ``None``, as
    does a missing snapshot match or a divider reorder; each decline
    counts once in *stats* under its reason.

    ``init`` is consulted only for store and divider bodies: one copy is
    evaluated from it to learn the effective addresses every copy
    shares.  Divider bodies also emulate the divider operands' backward
    slice (:func:`_divider_classes`); each copy is renamed with its own
    value classes, and a snapshot match counts only if the class
    sequence repeats with the same period up to the longest target.
    Their timing step differs: the longest target's stream is scheduled
    once and every target read off it as a prefix, with no period
    extrapolation.  Otherwise values influence
    neither the dependence graph nor any latency, so the counters are
    identical for every initial state.
    """
    if core.enable_macro_fusion or core.enable_decoder_model:
        stats.declined_front_end += 1
        return None
    divider = _uses_divider(core, code)
    accesses = classes = None
    if divider or _uses_stores(core, code):
        if not _fixed_addresses(code):
            stats.declined_moving_addresses += 1
            return None
        state = MachineState.initial(init)
        accesses = [split_accesses(evaluate(i, state)) for i in code]
    if divider:
        classes = _divider_classes(
            core, code, accesses, init, max(targets[-1], SNAPSHOT_BUDGET)
        )

    context = RenameContext(None, emulate=False, accesses=accesses)
    snapshots: List[Tuple] = []
    templates: List[Tuple] = []
    transient = period = 0
    for k in range(1, SNAPSHOT_BUDGET + 1):
        start = len(context.uops)
        fr_base = context.frontend_release
        fused_base = context.fused_total
        if classes is not None:
            context.divider_fast = classes[k - 1]
        core.rename_block(code, context)
        templates.append(
            _copy_template(context, start, fr_base, fused_base)
        )
        snapshot = _rename_snapshot(context)
        for p in range(1, len(snapshots) + 1):
            if snapshots[-p] == snapshot and (
                classes is None
                or all(
                    classes[j] == classes[j - p]
                    for j in range(k, targets[-1])
                )
            ):
                transient, period = k, p
                break
        if period:
            break
        snapshots.append(snapshot)
    if not period:
        stats.declined_no_period += 1
        return None

    block_len = len(code)
    # Structural memo: experiments that differ only in register choice
    # (or store address, or divider operands of the same value classes)
    # rename to identical relative templates, so the schedule and every
    # derived counter are shared.  Keyed per core, which also scopes it
    # to one uarch/extension configuration, and by digest, so an entry
    # costs its results rather than its templates.
    key = hashlib.sha256(repr(
        (tuple(templates), transient, period, tuple(targets), block_len)
    ).encode("utf-8")).digest()
    memo = core.analytic_memo
    hit = memo.get(key)
    if hit is not None:
        results, served = hit
        # Replays which rung served each target; a hit simulates nothing.
        stats.merge(served)
        return results

    uarch_ports = core.uarch.ports
    latest: Optional[ProbeResult] = None

    def schedule(copies: int) -> Optional[ProbeResult]:
        """The stream extended to ``copies`` copies in closed form (as
        scheduled when it has them); ``None`` on a divider reorder."""
        nonlocal latest
        done = latest.copies if latest is not None else 0
        if copies > done:
            latest = schedule_analytic(
                core.uarch,
                templates,
                _template_order(done, copies, transient, period),
                latest,
            )
            assert latest is not None or classes is not None, (
                "only the divider reorders"
            )
        return latest

    served = RunStatistics()
    if classes is None:
        results = _periodic_targets(
            schedule, targets, block_len, uarch_ports, served
        )
    else:
        probe = schedule(targets[-1])
        if probe is None:
            stats.divider_reorders += 1
            return None
        results = {
            t: _prefix_counters(probe, t, block_len, uarch_ports)
            for t in targets
        }
    served.runs_analytic = len(targets)
    served.cycles_analytic = sum(int(results[t].cycles) for t in targets)
    stats.merge(served)
    memo[key] = (results, served)
    return results


def _periodic_targets(
    schedule: Callable[[int], ProbeResult],
    targets: Sequence[int],
    block_len: int,
    ports: Sequence[int],
    served: RunStatistics,
) -> Dict[int, CounterValues]:
    """Every target of a divider-free body off one scheduled stream.

    *schedule* extends one stream, so each probe — the first
    (:func:`_first_probe`), each doubling, the longest target —
    schedules only the copies it adds.  Targets beyond the final probe
    are extrapolated from its verified timing period and count in
    ``runs_extrapolated`` / ``cycles_extrapolated`` of *served*; with no
    period, the stream is extended to the longest target and every
    target is a prefix.
    """
    probe = schedule(_first_probe(targets))
    timing_period = None
    if targets[-1] > probe.copies:
        probe, timing_period = _verified_period(
            probe, schedule, targets[-1]
        )
        if timing_period is None:
            # Not periodic within the probe window: extend the stream to
            # the longest target (cost is O(µops), not O(cycles)).
            probe = schedule(targets[-1])
    results: Dict[int, CounterValues] = {}
    for t in targets:
        if t <= probe.copies:
            results[t] = _prefix_counters(probe, t, block_len, ports)
        else:
            results[t] = _extrapolated_counters(
                probe, timing_period, t, block_len, ports
            )
            served.runs_extrapolated += 1
            served.cycles_extrapolated += (
                results[t].cycles - probe.finish[-1] - 1
            )
    return results


def _signatures(probe: ProbeResult) -> List[Tuple]:
    """Per-copy steady-state signature: everything that must repeat."""
    signatures: List[Tuple] = []
    previous = -1
    for k in range(probe.copies):
        finish = probe.finish[k]
        signatures.append(
            (
                finish - previous,
                tuple(sorted(probe.ports[k].items())),
                probe.uops[k],
                probe.fused[k],
            )
        )
        previous = finish
    return signatures


def _detect_period(signatures: List[Tuple]) -> Optional[int]:
    """Smallest period whose trailing window repeats exactly."""
    n = len(signatures)
    for period in range(1, MAX_PERIOD + 1):
        window = _window(period)
        if window + period > n:
            break
        if all(
            signatures[j] == signatures[j - period]
            for j in range(n - window, n)
        ):
            return period
    return None


def _continuation_matches(
    probe: ProbeResult, period: int, bigger: ProbeResult
) -> bool:
    """Does *probe*'s periodic tail predict *bigger*'s extra copies?"""
    pattern = _signatures(probe)[probe.copies - period:]
    signatures = _signatures(bigger)
    return all(
        signatures[k] == pattern[(k - probe.copies) % period]
        for k in range(probe.copies, bigger.copies)
    )


def _verified_period(
    probe: ProbeResult,
    make_probe: Callable[[int], ProbeResult],
    limit: int,
) -> Tuple[ProbeResult, Optional[int]]:
    """Detect a period and require it to survive a doubled probe.

    :func:`_detect_period` can be fooled by a transient whose per-copy
    deltas are themselves periodic for a stretch — a reservation-station
    fill pattern, say — before the true steady state appears.  A
    candidate period is therefore accepted only if its periodic
    prediction reproduces, signature by signature, a probe twice as
    long; on a mismatch detection restarts on the longer probe.  Growth
    is geometric and capped at ``limit`` (the longest unroll target),
    where every target becomes an exact prefix and periodicity is moot.

    Returns ``(probe, period)``: the final — possibly grown — probe and
    the verified period (``None`` when no period survived).
    """
    while True:
        period = _detect_period(_signatures(probe))
        if period is None or probe.copies >= limit:
            return probe, period
        bigger = make_probe(min(2 * probe.copies, limit))
        if _continuation_matches(probe, period, bigger):
            return bigger, period
        probe = bigger


def _prefix_counters(
    probe: ProbeResult, copies: int, block_len: int, ports: Sequence[int]
) -> CounterValues:
    """Exact counters of a ``copies``-copy run read off the probe prefix."""
    port_uops = {p: 0 for p in ports}
    uops = 0
    fused = 0
    for k in range(copies):
        for port, count in probe.ports[k].items():
            port_uops[port] += count
        uops += probe.uops[k]
        fused += probe.fused[k]
    return CounterValues(
        cycles=probe.finish[copies - 1] + 1 if copies else 0,
        port_uops=port_uops,
        uops=uops,
        instructions=copies * block_len,
        uops_fused=fused,
    )


def _extrapolated_counters(
    probe: ProbeResult,
    period: int,
    copies: int,
    block_len: int,
    ports: Sequence[int],
) -> CounterValues:
    """Counters of a run longer than the probe, via the periodic tail."""
    base = _prefix_counters(probe, probe.copies, block_len, ports)
    signatures = _signatures(probe)
    pattern = signatures[probe.copies - period:]
    full, rem = divmod(copies - probe.copies, period)

    cycles = base.cycles
    port_uops = dict(base.port_uops)
    uops = base.uops
    fused = base.uops_fused
    for weight, signature in chain(
        ((full, s) for s in pattern),
        ((1, s) for s in pattern[:rem]),
    ):
        delta, port_items, uop_count, fused_count = signature
        cycles += weight * delta
        for port, count in port_items:
            port_uops[port] += weight * count
        uops += weight * uop_count
        fused += weight * fused_count
    return CounterValues(
        cycles=cycles,
        port_uops=port_uops,
        uops=uops,
        instructions=copies * block_len,
        uops_fused=fused,
    )


def unrolled_counters(
    core: Core,
    code: Sequence,
    init: Optional[Dict[str, int]],
    targets: Sequence[int],
) -> Tuple[Dict[int, CounterValues], RunStatistics]:
    """Exact counters of ``code * t`` for every unroll factor in *targets*.

    The ladder, cheapest rung first: the closed form
    (:func:`_analytic_unrolled`), then full simulation of each target.
    The reference kernel skips the closed form.  Each returned
    :class:`CounterValues` is bit-identical to
    ``core.run(list(code) * t, init)``; the returned
    :class:`~repro.stats.RunStatistics` records which rung served each
    target, what it simulated, and why the closed form declined.
    """
    stats = RunStatistics()
    targets = sorted(set(targets))
    if code and targets and core.kernel != KERNEL_REFERENCE:
        analytic = _analytic_unrolled(core, code, init, targets, stats)
        if analytic is not None:
            return analytic, stats
    stats.runs_full += len(targets)
    return {t: core.run(list(code) * t, init) for t in targets}, stats
