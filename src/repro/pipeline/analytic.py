"""Analytic timing: a closed-form single-pass schedule of renamed µops.

The third (fastest) tier of the timing ladder.  The simulated core's
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
  computes it exactly (see ``schedule_arrays``).
* **Retire** is in order, ``retire_width`` per cycle: again a maximum of
  monotone bounds.
* **The divider** is one more resource of the same pass: a divider µop
  cannot dispatch before the previous divider µop frees it.  That is
  exact while divider µops take the divider in age order; the pass
  returns ``None`` (and the caller runs the event kernel) when a younger
  divider µop could take it first.

The subtlety is intra-cycle phase ordering (retire -> issue -> portless
completion -> per-port dispatch in canonical port order): a value
produced in a later phase of cycle ``c`` is visible to earlier phases
only at ``c + 1``.  The recurrence reproduces the reference loop's
visibility rules from the producers' dispatch cycles and phases alone.

Because every µop's schedule depends only on older µops, the schedule of
a prefix of a stream is the prefix of the stream's schedule: counters at
a copy boundary (``boundaries``) equal the counters of scheduling just
those copies.  The measurement ladder reads every unroll target off one
synthesized stream this way.

Equivalence contract: identical counters to the reference loop and the
event kernel, pinned by tests/test_sim_differential.py and the
generative harness in tests/test_sim_fuzz.py.
"""

from __future__ import annotations

from heapq import heappush, heapreplace
from typing import Dict, List, Optional, Sequence, Tuple

#: Dependency representation: (producer µop index or None, cycle offset).
DepList = List[Tuple[Optional[int], int]]


def extract_arrays(uops):
    """Structure-of-arrays view of a renamed µop stream.

    Assigns ``uop.index`` and returns parallel lists
    ``(ports, lat, min_issue, deps, divider)`` indexed by µop id; shared
    by this module's recurrence and the event kernel's scheduling loop.
    Deps are rewritten as ``(producer index | None, offset)`` pairs.
    """
    for index, uop in enumerate(uops):
        uop.index = index
    ports = []
    lat = []
    min_issue = []
    deps: List[DepList] = []
    divider = []
    for uop in uops:
        ports.append(uop.ports)
        lat.append(uop.complete_lat)
        min_issue.append(uop.min_issue)
        divider.append(uop.divider_cycles)
        deps.append(
            [
                (None if producer is None else producer.index, offset)
                for producer, offset in uop.deps
            ]
        )
    return ports, lat, min_issue, deps, divider


def _first_free(taken: Dict[int, int], slot: int) -> int:
    """First cycle at or after *slot* missing from *taken*.

    ``taken`` maps each taken dispatch cycle ``s`` to a later cycle
    ``t`` such that every cycle in ``[s, t)`` is taken; the walk halves
    its path as it goes (each visited cycle skips to its grandparent).
    """
    nxt = taken.get(slot)
    while nxt is not None:
        after = taken.get(nxt)
        if after is None:
            return nxt
        taken[slot] = after
        slot = after
        nxt = taken.get(slot)
    return slot


def schedule_arrays(
    uarch,
    ports: Sequence,
    lat: Sequence[int],
    min_issue: Sequence[int],
    deps: Sequence[DepList],
    divider: Optional[Sequence[int]] = None,
    boundaries: Optional[List[int]] = None,
):
    """One-pass closed-form schedule; ``None`` on a divider reorder.

    Arguments are parallel arrays indexed by µop id (see
    :func:`extract_arrays`); ``ports[k]`` is any iterable of candidate
    port ids (empty for portless µops) and ``divider[k]`` the divider
    occupancy in cycles (all zero when omitted).  Returns
    ``(cycles, port_counts, finishes, bounds)``: total cycles and
    per-port µop counts as the event kernel reports them, ``finishes[b]``
    the retire cycle of the µop closing ``boundaries[b]`` (a cumulative
    µop count; ``-1`` for an empty prefix), and ``bounds`` the port each
    µop was bound to (``None`` for portless).

    **Dispatch.**  Each port dispatches its oldest ready µop per cycle.
    A µop's effective ready cycle ``eff`` (inputs visible to its port's
    dispatch phase, and issued) depends on older µops only.  From
    ``eff`` on the µop is ready every cycle until it dispatches, so at
    each cycle ``c >= eff`` where no older µop of its port dispatched,
    the port dispatches it or an older µop — it, then.  And at each
    earlier cycle ``c >= eff`` an older µop took the port.  Hence the
    dispatch cycle is the first cycle ``>= eff`` that no older µop of the
    port took, a function of older µops only.  Each port keeps a
    first-free-slot map over the cycles older µops took
    (:func:`_first_free`).

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

    n = len(lat)
    port_counts: Dict[int, int] = {p: 0 for p in port_order}
    finishes: Optional[List[int]] = (
        [-1] * len(boundaries) if boundaries is not None else None
    )
    if n == 0:
        return 0, port_counts, finishes, []
    if divider is not None and not any(divider):
        divider = None

    issue = [0] * n
    disp = [0] * n
    phase = [0] * n
    retire = [0] * n
    bounds: List[Optional[int]] = [None] * n
    #: Per port, the first-free-slot map of the cycles older µops took.
    taken: Dict[int, Dict[int, int]] = {p: {} for p in port_order}
    #: The ``rs_size`` largest dispatch cycles of port-bound µops so far.
    rs_top: List[int] = []
    #: Divider state: the cycle it frees, the end of its latest idle
    #: stretch, and the latest divider dispatch per port position.
    divider_free = 0
    idle_end = 0
    divider_disp: Dict[int, int] = {}

    for k in range(n):
        # --- Issue: max of monotone lower bounds -------------------
        c = min_issue[k]
        if k:
            t = issue[k - 1]
            if t > c:
                c = t
        if k >= issue_width:
            t = issue[k - issue_width] + 1
            if t > c:
                c = t
        if k >= rob_size:
            # The ROB slot frees in the retire phase of the same cycle.
            t = retire[k - rob_size]
            if t > c:
                c = t
        if len(rs_top) == rs_size:
            t = rs_top[0] + 1
            if t > c:
                c = t
        issue[k] = c

        # --- Bind at issue: least-loaded, smallest id on ties ------
        pset = ports[k]
        if pset:
            best = -1
            best_count = -1
            for p in pset:
                count = port_counts[p]
                if best < 0 or count < best_count or (
                    count == best_count and p < best
                ):
                    best = p
                    best_count = count
            port_counts[best] += 1
            bounds[k] = best
            phi = port_pos[best]
        else:
            phi = -1

        # --- Effective ready cycle, phase-adjusted -----------------
        # ready = max over inputs of producer dispatch + offset; the
        # last producer's dispatch cycle/phase decides whether the µop
        # is still visible to its own dispatch phase that same cycle.
        ready = 0
        cstar = -1
        pstar = -2
        for j, offset in deps[k]:
            if j is None:
                t = offset
            else:
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

        # --- Dispatch ----------------------------------------------
        if phi < 0:
            d = eff  # portless: the ROB completes any number per cycle
        else:
            occupancy = divider[k] if divider is not None else 0
            if occupancy:
                if eff < idle_end or any(
                    pos > phi and eff <= cycle
                    for pos, cycle in divider_disp.items()
                ):
                    return None  # a younger divider µop could go first
                if divider_free > eff:
                    eff = divider_free
            slots = taken[best]
            d = _first_free(slots, eff)
            slots[d] = d + 1
            if occupancy:
                if d > divider_free:
                    idle_end = d
                divider_free = d + occupancy
                divider_disp[phi] = d
            if len(rs_top) < rs_size:
                heappush(rs_top, d)
            elif d > rs_top[0]:
                heapreplace(rs_top, d)
        disp[k] = d
        phase[k] = phi

        # --- Retire: max of monotone lower bounds ------------------
        # completion is set during the dispatch phase of cycle d, after
        # the retire phase — a zero-latency µop retires at d + 1.
        completion = d + lat[k]
        r = completion if completion > d else d + 1
        if k:
            t = retire[k - 1]
            if t > r:
                r = t
        if k >= retire_width:
            t = retire[k - retire_width] + 1
            if t > r:
                r = t
        retire[k] = r

    if finishes is not None:
        for b, boundary in enumerate(boundaries):
            finishes[b] = retire[boundary - 1] if boundary else -1
    return retire[n - 1] + 1, port_counts, finishes, bounds


def schedule_analytic(uarch, uops):
    """Closed-form schedule of renamed ``_RUop`` objects.

    Returns ``(cycles, port_counts)`` exactly like ``timing_event``, or
    ``None`` on a divider reorder (see :func:`schedule_arrays`).
    Nothing but ``uop.index`` is written, so on ``None`` the event
    kernel can run the same stream.
    """
    result = schedule_arrays(uarch, *extract_arrays(uops))
    if result is None:
        return None
    return result[:2]
