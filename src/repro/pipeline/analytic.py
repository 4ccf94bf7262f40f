"""Analytic timing: a closed-form single-pass schedule of renamed µops.

The fast tier of the simulated core's timing; the per-cycle reference
loop in :mod:`repro.pipeline.core` is the other.  The simulated core's
schedule is computable by one forward recurrence in age order — no event
loop, no per-cycle scan:

* **Issue** is in order, ``issue_width`` per cycle, gated by ROB and
  reservation-station occupancy.  Each gate is a monotone lower bound on
  the issue cycle, so the issue cycle is simply their maximum.
* **Port binding** happens at issue (least-loaded, smallest port id on
  ties) and therefore depends only on older µops — replayed exactly.
* **Dispatch** per port is oldest-ready-first, one µop per cycle: fixed
  priority scheduling of unit jobs.  A µop's dispatch cycle is the first
  cycle at or after its effective ready cycle that no *older* µop on its
  port took, so it depends on older µops only and the age-order pass
  computes it exactly (see :func:`schedule_analytic`).
* **Retire** is in order, ``retire_width`` per cycle: again a maximum of
  monotone bounds.
* **The divider** is one more resource of the same pass: a divider µop
  cannot dispatch before the previous divider µop frees it.  That is
  exact while divider µops take the divider in age order; the pass
  returns ``None`` (and the caller runs the reference loop) when a
  younger divider µop could take it first.

The subtlety is intra-cycle phase ordering (retire -> issue -> portless
completion -> per-port dispatch in canonical port order): a value
produced in a later phase of cycle ``c`` is visible to earlier phases
only at ``c + 1``.  The recurrence reproduces the reference loop's
visibility rules from the producers' dispatch cycles and phases alone.

The pass reads *templates*: one renamed copy of a block, encoded
relative to its own start (:func:`encode_uops`), played in a given
order.  A dependency is an age, resolved against the running µop index,
so one template serves every copy it encodes and nothing is expanded.
``Core._timing`` plays a whole renamed stream as one template
(:func:`stream_template`).  Because every µop's schedule depends only on
older µops, the schedule of a prefix of a stream is the prefix of the
stream's schedule: the counters gathered at a copy boundary equal the
counters of scheduling just those copies.  The pass keeps its state in
the :class:`ProbeResult` it returns, so a longer stream resumes a
shorter one and schedules only the copies it adds; the measurement
ladder reads every unroll target off one stream this way.

Equivalence contract: identical counters to the reference loop, pinned
by tests/test_sim_differential.py and the generative harness in
tests/test_sim_fuzz.py.
"""

from __future__ import annotations

from heapq import heappush, heapreplace
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple


def encode_uops(uops, fr_base: int = 0) -> Tuple:
    """Template items of renamed µops, replayable at any stream offset.

    Per µop: candidate ports, sorted (the pass binds the first
    least-loaded one: the smallest id on ties), completion latency,
    ``min_issue`` relative to *fr_base*, deps as ``(age, offset)`` pairs
    — the producer's distance back in the stream by ``uop.index``,
    ``None`` for a constant input — and divider occupancy.
    """
    return tuple(
        (
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
        )
        for uop in uops
    )


def stream_template(uops) -> Tuple:
    """A whole renamed stream as one template ``(items, 0, 0)``, to be
    played once.  Numbers the µops (``uop.index``), the only field it
    writes, so the reference loop can still time the same stream."""
    for index, uop in enumerate(uops):
        uop.index = index
    return encode_uops(uops), 0, 0


class ProbeResult(NamedTuple):
    """Per-copy observations of one scheduled template stream.

    Everything is an exact integer; index ``k`` describes copy ``k``.
    ``cycles`` is the stream's total as the reference loop counts it, and
    ``finish[k]`` the cycle in which the last µop of copy ``k`` retired
    (``-1`` before the first µop), so the counters of a *prefix* of
    ``t`` copies are ``cycles = finish[t-1] + 1`` plus the sums of the
    per-copy columns: ``ports[k]`` (µops bound to each port, every port
    a key), ``uops[k]`` and ``fused[k]``.  ``state`` is what
    :func:`schedule_analytic` resumes from.
    """

    cycles: int
    finish: List[int]
    ports: List[Dict[int, int]]
    uops: List[int]
    fused: List[int]
    state: "_Recurrence"

    @property
    def copies(self) -> int:
        return len(self.finish)


class _Recurrence:
    """Everything the pass carries from one µop to the next."""

    __slots__ = (
        "issue", "disp", "phase", "retire", "port_counts", "taken",
        "rs_top", "divider_free", "idle_end", "divider_disp",
        "frontend_release", "copies",
    )

    def __init__(self, port_order: Sequence[int]):
        #: Per µop so far: issue, dispatch, dispatch phase, retire.
        self.issue: List[int] = []
        self.disp: List[int] = []
        self.phase: List[int] = []
        self.retire: List[int] = []
        #: µops bound to each port so far (binding reads the loads).
        self.port_counts: Dict[int, int] = {p: 0 for p in port_order}
        #: Per port, the first-free-slot map of the cycles older µops
        #: took (see :func:`schedule_analytic`).
        self.taken: Dict[int, Dict[int, int]] = {p: {} for p in port_order}
        #: The ``rs_size`` largest dispatch cycles of port-bound µops so far.
        self.rs_top: List[int] = []
        #: Divider state: the cycle it frees, the end of its latest idle
        #: stretch, and the latest divider dispatch per port position.
        self.divider_free = 0
        self.idle_end = 0
        self.divider_disp: Dict[int, int] = {}
        self.frontend_release = 0
        self.copies = 0


def schedule_analytic(
    uarch,
    templates: Sequence[Tuple],
    order: Sequence[int],
    resume: Optional[ProbeResult] = None,
) -> Optional[ProbeResult]:
    """One-pass closed-form schedule; ``None`` on a divider reorder.

    Plays ``templates[i]`` for each ``i`` in *order*, one copy each.  A
    template is ``(items, frontend_release delta, fused-µop delta)``,
    its items as :func:`encode_uops` writes them; a copy's ``min_issue``
    values are relative to the front-end release accumulated over the
    copies before it.  With *resume*, the latest result of a stream, the
    copies continue that stream and the result covers all of them; the
    earlier result keeps its columns but cannot be resumed again.  On
    ``None`` the state is spent.

    **Dispatch.**  Each port dispatches its oldest ready µop per cycle.
    A µop's effective ready cycle ``eff`` (inputs visible to its port's
    dispatch phase, and issued) depends on older µops only.  From
    ``eff`` on the µop is ready every cycle until it dispatches, so at
    each cycle ``c >= eff`` where no older µop of its port dispatched,
    the port dispatches it or an older µop — it, then.  And at each
    earlier cycle ``c >= eff`` an older µop took the port.  Hence the
    dispatch cycle is the first cycle ``>= eff`` that no older µop of the
    port took, a function of older µops only.  Each port keeps a
    first-free-slot map over the cycles older µops took: each taken
    cycle ``s`` maps to a later cycle ``t`` such that every cycle in
    ``[s, t)`` is taken, and a lookup halves the path it walks (each
    visited cycle skips to its grandparent).

    **Reservation station.**  At the issue phase of cycle ``c`` a
    port-bound predecessor still holds its slot unless it dispatched at
    ``c - 1`` or earlier, so issue needs fewer than ``rs_size``
    predecessors dispatching at ``c`` or later: ``c`` must exceed the
    ``rs_size``-th largest older dispatch cycle, kept in a min-heap of
    the ``rs_size`` largest.

    **Divider.**  The pass schedules the divider µops in age order: a
    divider µop is eligible from ``max(eff, divider_free)``, where the
    previous divider µop set ``divider_free = d + divider_cycles``.
    Call that schedule *S* and the simulated core *R*.  *S* is exactly
    the core *M* that grants the divider in age order (the argument
    above, with eligibility in place of readiness), and *R* and *M* act
    identically until *R* first lets a divider µop ``j`` dispatch, at
    cycle ``c`` on port position ``pos_j``, while an older divider µop
    ``i`` has not.  Up to that point the histories agree, so in *S*:
    ``eff_j <= c``; no divider µop dispatched before that point covers
    ``c`` (in *R* the divider was free for ``j``); and ``i`` — hence
    every divider µop the age order places after it — dispatches later:
    ``d_i > c``, or ``d_i == c`` on a later port.  Either

    1. ``d_i > c``: cycle ``c`` is divider-idle in *S*, with
       ``eff_j <= c < d_i``.  Idle stretches of *S* end at a divider
       dispatch, so this holds iff ``eff_j`` lies before the end of the
       latest idle stretch that ended at an older divider dispatch; or
    2. ``d_i == c`` and ``pos_i > pos_j``: ``eff_j <= d_i`` for an
       older divider µop on a later port (ports dispatch in canonical
       order within a cycle).

    The pass returns ``None`` when either holds for any divider µop, so
    wherever it answers *R* never reorders the divider and ``S == R``.
    The test is conservative (it ignores whether ``j``'s own port was
    free), and older-only, so the prefix property holds throughout.
    """
    issue_width = uarch.issue_width
    retire_width = uarch.retire_width
    rob_size = uarch.rob_size
    rs_size = uarch.rs_size
    port_order = tuple(uarch.ports)
    port_pos = {p: i for i, p in enumerate(port_order)}

    if resume is None:
        state = _Recurrence(port_order)
        finish: List[int] = []
        per_ports: List[Dict[int, int]] = []
        per_uops: List[int] = []
        per_fused: List[int] = []
    else:
        state = resume.state
        if state.copies != resume.copies:
            raise ValueError("only the latest result of a stream resumes")
        finish = list(resume.finish)
        per_ports = list(resume.ports)
        per_uops = list(resume.uops)
        per_fused = list(resume.fused)

    state.copies = -1  # spent until this call completes
    issue = state.issue
    disp = state.disp
    phase = state.phase
    retire = state.retire
    k = len(issue)
    added = [0] * sum(len(templates[ti][0]) for ti in order)
    for column in (issue, disp, phase, retire):
        column.extend(added)
    port_counts = state.port_counts
    taken = state.taken
    rs_top = state.rs_top
    rs_full = len(rs_top) == rs_size
    divider_free = state.divider_free
    idle_end = state.idle_end
    divider_disp = state.divider_disp
    frontend_release = state.frontend_release
    copy_start = dict(port_counts)
    last_issue = issue[k - 1] if k else 0
    last_retire = retire[k - 1] if k else 0

    for ti in order:
        items, fr_delta, fused_delta = templates[ti]
        for pset, complete_lat, min_rel, rel_deps, occupancy in items:
            # --- Issue: max of monotone lower bounds ---------------
            c = frontend_release + min_rel
            if last_issue > c:
                c = last_issue
            if k >= issue_width:
                t = issue[k - issue_width] + 1
                if t > c:
                    c = t
            if k >= rob_size:
                # The ROB slot frees in the retire phase of the same
                # cycle.
                t = retire[k - rob_size]
                if t > c:
                    c = t
            if rs_full:
                t = rs_top[0] + 1
                if t > c:
                    c = t
            issue[k] = last_issue = c

            # --- Bind at issue: least-loaded, smallest id on ties --
            if pset:
                # Sorted candidates: the first least-loaded one has the
                # smallest id among the ties.
                best = pset[0]
                best_count = port_counts[best]
                for p in pset:
                    count = port_counts[p]
                    if count < best_count:
                        best = p
                        best_count = count
                port_counts[best] = best_count + 1
                phi = port_pos[best]
            else:
                phi = -1

            # --- Effective ready cycle, phase-adjusted -------------
            # ready = max over inputs of producer dispatch + offset; the
            # last producer's dispatch cycle/phase decides whether the
            # µop is still visible to its own dispatch phase that same
            # cycle.
            if not rel_deps:
                eff = c  # no inputs: ready from its issue cycle on
            else:
                ready = 0
                cstar = -1
                pstar = -2
                for age, offset in rel_deps:
                    if age is None:
                        t = offset
                    else:
                        j = k - age
                        dj = disp[j]
                        t = dj + offset
                        if dj > cstar:
                            cstar = dj
                            pstar = phase[j]
                        elif dj == cstar and phase[j] > pstar:
                            pstar = phase[j]
                    if t > ready:
                        ready = t
                if cstar < c:
                    # Every producer dispatched before the issue phase: the
                    # ready time is known at issue and visible to this cycle.
                    eff = ready if ready > c else c
                elif ready > cstar:
                    # Wake-up lands in a strictly later cycle: always visible.
                    eff = ready
                elif pstar < phi or (pstar == -1 and phi == -1):
                    # Same-cycle wake-up from an earlier phase (or from the
                    # same portless pass, which scans in age order).
                    eff = cstar
                else:
                    eff = cstar + 1

            # --- Dispatch ------------------------------------------
            if phi < 0:
                d = eff  # portless: the ROB completes any number per cycle
            else:
                if occupancy:
                    if eff < idle_end or any(
                        pos > phi and eff <= cycle
                        for pos, cycle in divider_disp.items()
                    ):
                        return None  # a younger divider µop could go first
                    if divider_free > eff:
                        eff = divider_free
                # The first cycle at or after eff that no older µop of
                # the port took.
                slots = taken[best]
                d = eff
                nxt = slots.get(d)
                while nxt is not None:
                    after = slots.get(nxt)
                    if after is None:
                        d = nxt
                        break
                    slots[d] = after
                    d = after
                    nxt = slots.get(d)
                slots[d] = d + 1
                if occupancy:
                    if d > divider_free:
                        idle_end = d
                    divider_free = d + occupancy
                    divider_disp[phi] = d
                if rs_full:
                    if d > rs_top[0]:
                        heapreplace(rs_top, d)
                else:
                    heappush(rs_top, d)
                    rs_full = len(rs_top) == rs_size
            disp[k] = d
            phase[k] = phi

            # --- Retire: max of monotone lower bounds --------------
            # completion is set during the dispatch phase of cycle d,
            # after the retire phase — a zero-latency µop retires at
            # d + 1.
            completion = d + complete_lat
            r = completion if completion > d else d + 1
            if last_retire > r:
                r = last_retire
            if k >= retire_width:
                t = retire[k - retire_width] + 1
                if t > r:
                    r = t
            retire[k] = last_retire = r
            k += 1

        # --- Copy boundary: the per-copy columns -------------------
        frontend_release += fr_delta
        finish.append(retire[k - 1] if k else -1)
        copy_end = dict(port_counts)
        per_ports.append({p: copy_end[p] - copy_start[p] for p in port_order})
        copy_start = copy_end
        per_uops.append(len(items))
        per_fused.append(fused_delta)

    state.divider_free = divider_free
    state.idle_end = idle_end
    state.frontend_release = frontend_release
    state.copies = len(finish)
    return ProbeResult(
        retire[k - 1] + 1 if k else 0,
        finish,
        per_ports,
        per_uops,
        per_fused,
        state,
    )
