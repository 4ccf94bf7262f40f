"""Algorithm 1: inferring the port usage of an instruction.

For each port combination (sorted by size), the instruction under test is
concatenated with ``blockRep`` copies of the combination's blocking
instruction; the µops measured on the combination's ports, minus the
blocking µops and minus the µops already attributed to strict subsets, can
execute on exactly that combination.

The two optimizations described in the paper are implemented: combinations
that share no port with the isolation run are skipped, and the loop exits
early once all of the instruction's µops are attributed.

The ``blockRep`` blockers of one measurement are built once per register
cycle, not once per copy (:func:`_blocking_code`): the blocker depends on
the instruction under test only through the registers it reserves, so
one allocator's run of distinct instances, repeated, is the whole
stream.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.blocking import BlockingInstructions
from repro.core.codegen import (
    RegisterAllocator,
    form_fixed_canonicals,
    independent_sequence,
    instantiate,
    used_ports,
)
from repro.core.experiment import ExperimentBatch, Plan
from repro.core.result import PortUsage
from repro.isa.instruction import Instruction, InstructionForm

#: Maximum number of ports on the modeled generations (Section 5.1.2 uses
#: blockRep = maxLatency * max number of ports; Algorithm 1 shows 8).
_MAX_PORTS = 8


def infer_port_usage(
    form: InstructionForm,
    backend,
    blocking: BlockingInstructions,
    max_latency: Optional[float] = None,
) -> PortUsage:
    """Infer the port usage of *form* on *backend* (Algorithm 1).

    One-shot wrapper around :func:`plan_port_usage`.
    """
    from repro.measure.executor import ExperimentExecutor

    return ExperimentExecutor(backend).drive(
        plan_port_usage(form, blocking, max_latency)
    )


def plan_port_usage(
    form: InstructionForm,
    blocking: BlockingInstructions,
    max_latency: Optional[float] = None,
) -> Plan:
    """Plan Algorithm 1 for *form*: one isolation round, then one
    blocking measurement per live port combination.

    The per-combination rounds are adaptive — strict-subset counts feed
    the next subtraction, and the loop exits early once every µop is
    attributed — so they are yielded one at a time rather than as one
    batch.
    """
    context = blocking.context_for(form)

    first = ExperimentBatch()
    iso_code = independent_sequence(form, 4)
    iso = first.add(iso_code, tag=f"ports:iso:{form.uid}")
    chain = None
    if max_latency is None:
        # Algorithm 1 (line 4) sizes blockRep from the instruction's
        # maximum latency, which the latency phase normally provides.
        # Estimate it with one self-chained run: a single instance
        # repeated back-to-back is an upper-bound critical path.
        chain = first.add(
            _self_chain_code(form), tag=f"ports:chain:{form.uid}"
        )
    results = yield first

    isolation = results[iso].scaled(len(iso_code))
    total_uops = isolation.uops
    ports_in_isolation = used_ports(isolation)
    if chain is not None:
        max_latency = max(1.0, results[chain].cycles)
    # blockRep must both outlast the instruction's critical path (the
    # paper's maxLatency * maxPorts term) and outnumber its µops on every
    # blocked port, so that no µop can sneak onto a blocked port.
    block_rep = max(
        8,
        int(round(_MAX_PORTS * max_latency)),
        int(round(_MAX_PORTS * (total_uops + 1))),
    )

    combinations = sorted(
        blocking.combinations(context), key=lambda c: (len(c), sorted(c))
    )

    uops_for_combination: List = []  # [(combination, count)]
    attributed = 0
    for combination in combinations:
        if not combination & ports_in_isolation:
            continue  # optimization: cannot hold µops of this instruction
        blocker_form = blocking.blocker(context, combination)
        if blocker_form is None:
            continue
        batch = ExperimentBatch()
        handle = batch.add(
            _blocking_code(form, blocker_form, block_rep),
            tag=f"ports:block:{form.uid}:{'.'.join(map(str, sorted(combination)))}",
        )
        results = yield batch
        counters = results[handle]
        measured = sum(
            counters.port_uops.get(p, 0.0) for p in combination
        )
        blocker_uops = block_rep  # each copy holds 1 µop on these ports
        uops = measured - blocker_uops
        for prior_combination, prior_uops in uops_for_combination:
            if prior_combination < combination:
                uops -= prior_uops
        count = int(round(uops))
        if count > 0:
            uops_for_combination.append((combination, count))
            attributed += count
        if attributed >= round(total_uops):
            break  # optimization: every µop accounted for

    return PortUsage(dict(uops_for_combination))


def _self_chain_code(form: InstructionForm) -> List[Instruction]:
    """One instance of the form, to be repeated by the measurement
    protocol; self-chaining yields a latency upper bound."""
    return [instantiate(form)]


def _blocking_code(
    form: InstructionForm,
    blocker_form: InstructionForm,
    block_rep: int,
) -> List[Instruction]:
    """``blockRep`` independent copies of the blocker, then the instruction.

    Blocker operands are chosen independent of the instruction under test
    and of subsequent blocker instances (Section 5.1.2).  The blockers are
    one *register cycle* repeated: the instances one fresh allocator,
    reserving the instruction's registers and the blocker's fixed ones,
    builds until it runs out of registers (or ``blockRep`` are built),
    then the same instances again from the start.  A blocker with no
    allocatable operand (``NOP``, ``CMC``, ...) never runs out, so the
    cycle is capped at ``blockRep``.  The repeats share their
    :class:`~repro.isa.instruction.Instruction` objects.
    """
    allocator = RegisterAllocator(
        form_fixed_canonicals(form) | form_fixed_canonicals(blocker_form)
    )
    instruction = instantiate(form, allocator)
    cycle_allocator = RegisterAllocator(
        allocator.reserved() | form_fixed_canonicals(blocker_form)
    )
    cycle: List[Instruction] = []
    while len(cycle) < block_rep:
        try:
            cycle.append(instantiate(blocker_form, cycle_allocator))
        except RuntimeError:
            break
    if not cycle:
        raise RuntimeError(
            f"blocker {blocker_form.uid} has no free register beside "
            f"{form.uid}"
        )
    blockers = [cycle[i % len(cycle)] for i in range(block_rep)]
    return blockers + [instruction]
