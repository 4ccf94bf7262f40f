"""Steady-state extrapolation of unrolled-block simulations.

:class:`~repro.measure.backend.HardwareBackend` implements Algorithm 2 by
simulating the block under test unrolled ``unroll_small`` and
``unroll_large`` times.  But the simulated pipeline reaches a steady
state after a handful of copies: the per-copy deltas of the retire cycle,
the port-binding counts, and the µop counts become periodic (period > 1
arises from e.g. the every-third-MOV move-elimination counter or a
port-imbalanced binding rotation).  Once the period is known, the
counters of the long unroll follow analytically — in exact integer
arithmetic, so the extrapolated values are bit-identical to a full
simulation.

The observation that a repeated basic block settles into a periodic
steady state is the same one uops.info's own loop-based throughput
protocol and PALMED's saturating-kernel design rely on.

Everything here rests on the *prefix property* of the simulated core:
counters observed at a copy boundary of a longer unroll equal the
counters of simulating exactly that many copies.  Port binding is a pure
function of issue order, issue/retire are in order, and a port always
dispatches its oldest ready µop — so a younger µop can never delay an
older one.  The single exception is the non-pipelined divider, whose
occupancy lets a younger µop (dispatched while the older's operands were
still in flight) stall an older divider µop; divider bodies therefore
never extrapolate and are never read off a probe prefix.  They are also
the value-dependent case (Section 5.2.5): the closed-form path serves
them by emulating only the backward slice of the divider operands
(:func:`_value_slice`) to get each copy's value class, proving the
rename period over the rename state *and* that class sequence, and
scheduling every unroll target on its own exact-length synthesized
stream.  A period
detected on the probe window is additionally *verified* before use: the
probe is doubled (capped at the longest unroll target) and the periodic
prediction must reproduce the longer probe's per-copy signatures
exactly.  A transient whose deltas merely look periodic for a while —
e.g. a reservation-station fill pattern that repeats until the window
drains — fails the check, and detection restarts on the longer probe.
When no period survives within the longest target the caller falls back
to full simulation, so extrapolation is an optimization, never a
semantic change.  When one doubling would reach the longest target
anyway, the first probe is simply that long (:func:`_probe_copies`) and
every target is a prefix.
"""

from __future__ import annotations

import hashlib
from itertools import chain
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.isa.operands import Memory
from repro.pipeline.analytic import schedule_arrays
from repro.pipeline.event_kernel import timing_event_arrays
from repro.pipeline.core import (
    KERNEL_ANALYTIC,
    KERNEL_REFERENCE,
    Core,
    CounterValues,
    ProbeResult,
    RenameContext,
    divider_operands_fast,
    split_accesses,
)
from repro.pipeline.semantics import evaluate
from repro.pipeline.state import MachineState
from repro.stats import RunStatistics
from repro.uarch.uops import KIND_STORE_ADDR, KIND_STORE_DATA

#: Minimum number of copies simulated by the instrumented probe.  Large
#: enough that issue-rate transients (ROB/RS fill, SSE/AVX transition
#: stalls on the first copies, move-elimination phase-in) have settled
#: and a trailing window of clean periods is observable.
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


def _probe_copies(targets: Sequence[int]) -> int:
    """Copies of the first probe for the sorted unroll *targets*.

    The probe must be long enough for transients to settle
    (:data:`MIN_PROBE`) and to cover the short target.  Verifying a
    period doubles it, so when twice the probe reaches the longest
    target anyway, one probe of exactly that length serves every
    target as a prefix — cheaper, and exact with no period at all.
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

    Divider occupancy breaks the prefix property and divider timing is
    operand-value dependent, so these bodies never extrapolate: the
    closed-form path schedules each target at full length from its
    class-aware templates, and every other rung simulates each target.
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
    memory fail the guard and keep the emulating probe.
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
    """Relative encoding of one renamed copy, replayable at any offset.

    Per µop: candidate ports (sorted — binding is order-independent),
    completion latency, ``min_issue`` relative to the copy's starting
    ``frontend_release``, deps as (age, offset) pairs, and divider
    occupancy.  Per copy:
    the ``frontend_release`` and fused-µop deltas.
    """
    items = []
    for uop in context.uops[start:]:
        items.append((
            tuple(sorted(uop.ports)),
            uop.complete_lat,
            uop.min_issue - fr_base,
            tuple(
                (
                    None if producer is None else uop.index - producer.index,
                    offset,
                )
                for producer, offset in uop.deps
            ),
            uop.divider_cycles,
        ))
    return (
        tuple(items),
        context.frontend_release - fr_base,
        context.fused_total - fused_base,
    )


def _template_order(copies: int, transient: int, period: int) -> List[int]:
    """Template index (0-based) for each of ``copies`` copies."""
    base = transient - period
    return [
        c - 1 if c <= transient else base + (c - base - 1) % period
        for c in range(1, copies + 1)
    ]


def _synthesize(templates: List[Tuple], order: List[int]):
    """Parallel scheduling arrays for the given template sequence."""
    ports: List[Tuple] = []
    lat: List[int] = []
    mins: List[int] = []
    deps: List[List[Tuple[Optional[int], int]]] = []
    divider: List[int] = []
    boundaries: List[int] = []
    frontend_release = 0
    g = 0
    for ti in order:
        items, fr_delta, _fused = templates[ti]
        for pset, complete_lat, min_rel, rel_deps, occupancy in items:
            ports.append(pset)
            lat.append(complete_lat)
            mins.append(frontend_release + min_rel)
            deps.append([
                (None if rel is None else g - rel, offset)
                for rel, offset in rel_deps
            ])
            divider.append(occupancy)
            g += 1
        frontend_release += fr_delta
        boundaries.append(g)
    return ports, lat, mins, deps, divider, boundaries


def _full_length_counters(
    core: Core, templates: List[Tuple], order: List[int], block_len: int
) -> CounterValues:
    """Counters of exactly the synthesized ``order`` stream.

    Scheduled on the array event kernel, which models divider occupancy
    (there is no closed form for it) — the same µop stream ``Core.run``
    would time, without µop objects or value emulation.
    """
    *arrays, _boundaries = _synthesize(templates, order)
    cycles, port_counts, _finishes, _bound = timing_event_arrays(
        core.uarch, *arrays
    )
    core.cycles_simulated += cycles
    return CounterValues(
        cycles=cycles,
        port_uops=port_counts,
        uops=len(arrays[1]),
        instructions=len(order) * block_len,
        uops_fused=sum(templates[ti][2] for ti in order),
    )


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
    the transient plus one period as relative templates, synthesize the
    probe-length µop stream from them, and schedule it with the analytic
    recurrence — no kernel run, no value emulation, and rename cost
    bounded by :data:`SNAPSHOT_BUDGET` copies instead of the unroll
    factor.  Guards: stores or dividers whose addresses can move between
    copies (:func:`_fixed_addresses`) and the fusion/decoder extensions
    (front-end state not covered by the snapshot) return ``None``, as
    does a missing snapshot match.

    ``init`` is consulted only for store and divider bodies: one copy is
    evaluated from it to learn the effective addresses every copy
    shares.  Divider bodies also emulate the divider operands' backward
    slice (:func:`_divider_classes`); each copy is renamed with its own
    value classes, and a snapshot match counts only if the class
    sequence repeats with the same period up to the longest target.
    Their timing step differs: divider occupancy breaks the prefix
    property, so each target is scheduled on its own exact-length
    synthesized stream (:func:`_full_length_counters`).  Otherwise
    values influence neither the dependence graph nor any latency, so
    the counters are identical for every initial state.
    """
    if core.enable_macro_fusion or core.enable_decoder_model:
        return None
    divider = _uses_divider(core, code)
    accesses = classes = None
    if divider or _uses_stores(core, code):
        if not _fixed_addresses(code):
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
        stats.probe_copies -= served.probe_copies
        return results

    served = RunStatistics()
    if classes is not None:
        results = {
            t: _full_length_counters(
                core, templates, _template_order(t, transient, period),
                block_len,
            )
            for t in targets
        }
        served.runs_full = len(targets)
        stats.merge(served)
        memo[key] = (results, served)
        return results

    uarch_ports = core.uarch.ports
    closed_form = True

    def build_probe(n: int) -> ProbeResult:
        """Synthesize and schedule an ``n``-copy probe off the templates."""
        nonlocal closed_form
        order = _template_order(n, transient, period)
        arrays = _synthesize(templates, order)
        ports_a, lat_a, mins_a, deps_a, _divider_a, boundaries_a = arrays
        scheduled = (
            schedule_arrays(
                core.uarch, ports_a, lat_a, mins_a, deps_a, boundaries_a
            )
            if closed_form else None
        )
        if scheduled is None:
            # No closed form (a per-port ready-order inversion) — but
            # the synthesized stream is still exact, so run it through
            # the array event kernel: no value emulation, no µop
            # objects, and rename still bounded by the snapshot budget.
            closed_form = False
            total_cycles, _counts, finishes, bound_arr = timing_event_arrays(
                core.uarch, *arrays
            )
            core.cycles_simulated += total_cycles
            served.probe_copies += n
            bounds = [b if b >= 0 else None for b in bound_arr]
        else:
            total_cycles, _counts, finishes, bounds = scheduled

        per_ports: List[Dict[int, int]] = []
        per_uops: List[int] = []
        per_fused: List[int] = []
        g = 0
        for ti in order:
            items, _fr, fused_delta = templates[ti]
            counts: Dict[int, int] = {}
            for _ in items:
                bound = bounds[g]
                if bound is not None:
                    counts[bound] = counts.get(bound, 0) + 1
                g += 1
            per_ports.append(counts)
            per_uops.append(len(items))
            per_fused.append(fused_delta)
        return ProbeResult(
            copies=n,
            finish=list(finishes or []),
            ports=per_ports,
            uops=per_uops,
            fused=per_fused,
            total_cycles=total_cycles,
        )

    probe = build_probe(_probe_copies(targets))

    results: Dict[int, CounterValues] = {}
    beyond = [t for t in targets if t > probe.copies]
    timing_period = None
    if beyond:
        probe, timing_period = _verified_period(
            probe, build_probe, targets[-1]
        )
        beyond = [t for t in targets if t > probe.copies]
    if beyond and timing_period is None:
        # The schedule is not periodic within the probe window: extend
        # to each long target exactly (cost is O(µops), not O(cycles)).
        for t in beyond:
            probe_t = build_probe(t)
            results[t] = _prefix_counters(probe_t, t, block_len, uarch_ports)
    for t in targets:
        if t in results:
            continue
        if t <= probe.copies:
            results[t] = _prefix_counters(probe, t, block_len, uarch_ports)
        else:
            results[t] = _extrapolated_counters(
                probe, timing_period, t, block_len, uarch_ports
            )
            if not closed_form:
                # Only a simulated probe's tail counts as extrapolated,
                # matching the event-probe path's accounting.
                served.runs_extrapolated += 1
                served.cycles_extrapolated += (
                    results[t].cycles - probe.total_cycles
                )
    if closed_form:
        served.runs_analytic = len(targets)
        served.cycles_analytic = sum(int(results[t].cycles) for t in targets)
    else:
        served.runs_probe = len(targets)
    stats.merge(served)
    memo[key] = (results, served)
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

    The ladder, cheapest rung first.  With the analytic kernel (the
    default) the whole ladder is attempted in closed form
    (:func:`_analytic_unrolled`): structural rename with a
    snapshot-proved period plus the analytic recurrence, no kernel run
    at all (divider bodies: one synthesized full-length stream per
    target).  Otherwise (or on analytic fallback) one instrumented probe
    simulation of :func:`_probe_copies` copies serves every target
    either as an integer prefix of the probe or by extrapolating the
    periodic steady state.  Last, full simulation per target when
    neither applies (reference kernel, divider bodies the closed form
    declined, no period surviving verification).  Each returned
    :class:`CounterValues` is bit-identical to
    ``core.run(list(code) * t, init)``; the returned
    :class:`~repro.stats.RunStatistics` records which rung served each
    target and what it simulated.
    """
    stats = RunStatistics()
    targets = sorted(set(targets))

    def simulate(t: int) -> CounterValues:
        stats.runs_full += 1
        return core.run(list(code) * t, init)

    if not code or not targets or core.kernel == KERNEL_REFERENCE:
        return {t: simulate(t) for t in targets}, stats
    if core.kernel == KERNEL_ANALYTIC:
        analytic = _analytic_unrolled(core, code, init, targets, stats)
        if analytic is not None:
            return analytic, stats
    if _uses_divider(core, code):
        # Declined by the closed form (or not attempted): no prefix or
        # periodic tail is exact for divider bodies.
        return {t: simulate(t) for t in targets}, stats

    def run_probe(n: int) -> ProbeResult:
        stats.probe_copies += n
        return core.run_instrumented(code, n, init)

    probe = run_probe(_probe_copies(targets))
    block_len = len(code)
    ports = core.uarch.ports

    results: Dict[int, CounterValues] = {}
    beyond = [t for t in targets if t > probe.copies]
    period = None
    if beyond:
        probe, period = _verified_period(probe, run_probe, targets[-1])
        beyond = [t for t in targets if t > probe.copies]
        if beyond and period is None:
            # No steady state survived verification: simulate the long
            # unrolls in full (the probe still serves the short ones as
            # prefixes).
            for t in beyond:
                results[t] = simulate(t)
    for t in targets:
        if t in results:
            continue
        stats.runs_probe += 1
        if t <= probe.copies:
            results[t] = _prefix_counters(probe, t, block_len, ports)
        else:
            counters = _extrapolated_counters(
                probe, period, t, block_len, ports
            )
            stats.runs_extrapolated += 1
            stats.cycles_extrapolated += counters.cycles - probe.total_cycles
            results[t] = counters
    return results, stats
