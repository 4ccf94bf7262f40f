"""Analytic timing: a closed-form single-pass schedule of renamed µops.

The third (fastest) tier of the timing ladder.  For µop streams without
divider occupancy the simulated core's schedule is computable by one
forward recurrence in age order — no event loop, no per-cycle scan:

* **Issue** is in order, ``issue_width`` per cycle, gated by ROB and
  reservation-station occupancy.  Each gate is a monotone lower bound on
  the issue cycle, so the issue cycle is simply their maximum.
* **Port binding** happens at issue (least-loaded, smallest port id on
  ties) and therefore depends only on older µops — replayed exactly.
* **Dispatch** per port is oldest-ready-first, one µop per cycle.  When
  the effective ready cycles of the µops bound to one port are
  non-decreasing in age order, dispatch degenerates to a FIFO:
  ``d = max(ready, previous_dispatch + 1)``.  The pass *verifies* this
  monotonicity per port and aborts (returns ``None``) on a violation,
  falling back to the event kernel — so the recurrence is exact wherever
  it answers at all.
* **Retire** is in order, ``retire_width`` per cycle: again a maximum of
  monotone bounds.

The subtlety is intra-cycle phase ordering (retire -> issue -> portless
completion -> per-port dispatch in canonical port order): a value
produced in a later phase of cycle ``c`` is visible to earlier phases
only at ``c + 1``.  The recurrence reproduces the reference loop's
visibility rules from the producers' dispatch cycles and phases alone —
see ``schedule_arrays``.

Divider µops are excluded up front: the non-pipelined divider lets a
younger µop stall an older one, which has no closed form here (and is
the value-dependent case anyway).

Equivalence contract: identical counters to the reference loop and the
event kernel, pinned by tests/test_sim_differential.py and the
generative harness in tests/test_sim_fuzz.py.
"""

from __future__ import annotations

from bisect import insort
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


def schedule_arrays(
    uarch,
    ports: Sequence,
    lat: Sequence[int],
    min_issue: Sequence[int],
    deps: Sequence[DepList],
    boundaries: Optional[List[int]] = None,
):
    """One-pass closed-form schedule; ``None`` when no closed form exists.

    Arguments are parallel arrays indexed by µop id (see
    :func:`extract_arrays`); ``ports[k]`` is any iterable of candidate
    port ids (empty for portless µops).  µops must be free of divider
    occupancy — the caller guards.  Returns
    ``(cycles, port_counts, finishes, bounds)`` with the same meaning as
    the event kernel plus ``bounds`` (the port each µop was bound to,
    ``None`` for portless), or ``None`` if a port's effective ready
    cycles decrease in age order (oldest-ready-first would reorder, which
    the FIFO recurrence cannot express).
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

    issue = [0] * n
    disp = [0] * n
    phase = [0] * n
    retire = [0] * n
    bounds: List[Optional[int]] = [None] * n
    #: Per port: effective ready cycle of the youngest bound µop (the
    #: FIFO invariant) and the cycle of its latest dispatch.
    last_ready = {p: 0 for p in port_order}
    last_disp = {p: -1 for p in port_order}
    #: Sorted dispatch cycles of all port-bound µops so far, for the
    #: reservation-station occupancy bound at issue.
    pb_disp: List[int] = []

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
        # RS: at the issue phase of cycle c, a port-bound predecessor
        # still occupies its slot unless it dispatched at c-1 or
        # earlier; at least m_req of them must have left.
        m_req = len(pb_disp) - rs_size + 1
        if m_req > 0:
            t = pb_disp[m_req - 1] + 1
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
            port = bounds[k]
            if eff < last_ready[port]:
                # A younger µop ready before an older one on the same
                # port: oldest-ready-first may reorder. No closed form.
                return None
            last_ready[port] = eff
            t = last_disp[port] + 1
            d = eff if eff > t else t
            last_disp[port] = d
            insort(pb_disp, d)
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
    ``None`` when the stream has no closed form (divider µops, or a
    per-port ready-order inversion).  Nothing but ``uop.index`` is
    written, so on ``None`` the event kernel can run the same stream.
    """
    ports, lat, min_issue, deps, divider = extract_arrays(uops)
    if any(divider):
        return None
    result = schedule_arrays(uarch, ports, lat, min_issue, deps)
    if result is None:
        return None
    return result[:2]
