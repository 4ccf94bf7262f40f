"""Event-driven timing kernel for the simulated out-of-order core.

The reference timing loop in :mod:`repro.pipeline.core` advances cycle by
cycle and rescans every port queue on each active cycle; its cost is
O(cycles x reservation-station occupancy).  For the dependent chains the
latency generators of Section 5.2 produce, the reservation station is
full of µops that are *not* ready, and those rescans dominate the whole
tool's runtime.

This kernel replaces the scans with a ready-event scheduler:

* a heap of candidate cycles (``events``) — the only cycles processed are
  those where something can change (a µop becomes ready, completes, the
  front end can issue again, the divider frees up);
* per-port ready heaps ordered by µop age, fed by a wake-up bucket map
  indexed by the cycle at which a µop's inputs become available;
* consumer edges with pending-producer counts, so a µop is (re)scheduled
  exactly when its last producer dispatches.

It is not a kernel mode of its own.  :meth:`repro.pipeline.core.Core._timing`
runs it on the streams the closed form (:mod:`repro.pipeline.analytic`)
declines — a divider µop that could take the divider before an older
one.  That is its only caller: every other stream has a closed form.

Cost scales with µop events (issue/dispatch/complete/retire), not with
cycles or occupancy.  Per-µop state lives in preallocated parallel int
lists indexed by µop id (``disp`` / ``comp`` / ``bound`` / latency /
dependency-index pairs, extracted once up front by
:func:`repro.pipeline.analytic.extract_arrays`) rather than attribute
reads on the renamed µop objects — the scheduling loop touches only
plain ints and lists.

Equivalence contract: for the same renamed µop stream this kernel
produces **bit-identical** counters (total cycles and per-port µop
counts) to the reference loop.  The subtle part is intra-cycle phase
ordering, which the reference fixes as retire -> issue -> portless
completion -> per-port dispatch (ports in canonical order, oldest ready
µop first, divider-blocked µops skipped).  A value produced in a later
phase (or a later port) of cycle ``c`` is only visible to earlier phases
at ``c + 1``; the scheduler reproduces this by routing same-cycle wakeups
to either the current cycle's remaining ports or a ``c + 1`` bucket.
``kernel="reference"`` keeps the original loop selectable as the
oracle; tests/test_sim_differential.py and tests/test_sim_fuzz.py time
fresh renames of one stream with this kernel, the closed form and the
reference loop.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Tuple

from repro.pipeline.analytic import extract_arrays

#: ``bound`` sentinels: not yet issued, and issued without a port.
_UNBOUND = -2
_PORTLESS = -1


def timing_event(uarch, uops) -> Tuple[int, Dict[int, int]]:
    """Schedule renamed µops; returns ``(cycles, port_counts)``."""
    return timing_event_arrays(uarch, *extract_arrays(uops))


def timing_event_arrays(
    uarch,
    port_sets,
    lat,
    min_issue,
    deps,
    divider,
) -> Tuple[int, Dict[int, int]]:
    """The scheduling loop proper, on parallel arrays indexed by µop id.

    Takes the same array layout as the analytic recurrence (see
    :func:`repro.pipeline.analytic.extract_arrays`).  Returns
    ``(cycles, port_counts)``.
    """
    issue_width = uarch.issue_width
    retire_width = uarch.retire_width
    rob_size = uarch.rob_size
    rs_size = uarch.rs_size
    port_order = tuple(uarch.ports)
    port_pos = {p: i for i, p in enumerate(port_order)}

    n = len(lat)
    port_counts: Dict[int, int] = {p: 0 for p in port_order}
    if n == 0:
        return 0, port_counts

    # Structure-of-arrays µop state, preallocated and indexed by µop id.
    disp = [-1] * n
    comp = [-1] * n
    bound = [_UNBOUND] * n
    ready_cache = [-1] * n

    #: consumer edges / pending-producer counts, built lazily at issue.
    consumers: List[List[int]] = [[] for _ in range(n)]
    pending: List[int] = [0] * n

    ready: Dict[int, List[int]] = {p: [] for p in port_order}
    bucket: Dict[int, List[int]] = {}
    portless: List[int] = []
    events: List[int] = []
    push = lambda t: heapq.heappush(events, t)  # noqa: E731

    issue_ptr = 0
    retire_ptr = 0
    in_rob = 0
    in_rs = 0
    divider_free = 0
    last_retire = 0

    def ready_time(idx: int) -> int:
        """Cycle at which all inputs are available, or -1 if unknown.

        Once every producer has dispatched the value is final and can be
        cached (dispatch times never change).
        """
        cached = ready_cache[idx]
        if cached >= 0:
            return cached
        value = 0
        for j, offset in deps[idx]:
            if j is None:
                t = offset
            else:
                dj = disp[j]
                if dj < 0:
                    return -1
                t = dj + offset
            if t > value:
                value = t
        ready_cache[idx] = value
        return value

    def schedule_known(idx: int, t: int, c: int, pos: int) -> None:
        """Place a µop whose ready time ``t`` just became known.

        ``pos`` encodes the current intra-cycle phase: ``-2`` for the
        issue phase, ``-1`` for the portless phase, a port position
        during dispatch.  It decides whether the µop is still visible to
        the remainder of cycle ``c`` (the reference computes ready times
        live while scanning).
        """
        b = bound[idx]
        if b < 0:  # portless: completes in the ROB
            if pos == -2:
                # Issued this cycle; the portless pass runs next.
                if t > c:
                    push(t)
            elif pos == -1:
                # Producer dispatched in the portless pass; consumers sit
                # later in the list and are seen by the same pass.
                if t > c:
                    push(t)
            else:
                # Producer dispatched on a port: the portless pass of
                # cycle c is already over.
                push(t if t > c else c + 1)
            return
        if t > c:
            bucket.setdefault(t, []).append(idx)
            push(t)
        elif pos == -2 or pos == -1 or port_pos[b] > pos:
            # Still visible to this cycle's dispatch phase.
            heapq.heappush(ready[b], idx)
        else:
            # This port's dispatch slot for cycle c is already decided.
            bucket.setdefault(c + 1, []).append(idx)
            push(c + 1)

    def notify(pidx: int, c: int, pos: int) -> None:
        """Producer ``pidx`` dispatched at cycle ``c``: wake consumers."""
        waiters = consumers[pidx]
        if not waiters:
            return
        for cidx in waiters:
            pending[cidx] -= 1
            if pending[cidx] == 0:
                schedule_known(cidx, ready_time(cidx), c, pos)
        consumers[pidx] = []

    push(min_issue[0])
    current = -1

    while retire_ptr < n:
        if not events:
            raise RuntimeError(
                "simulator deadlock (event kernel): no pending events "
                f"(retired={retire_ptr}/{n})"
            )
        c = heapq.heappop(events)
        while events and events[0] == c:
            heapq.heappop(events)
        if c <= current:
            continue
        current = c

        # Move woken µops into their port's ready heap.
        woken = bucket.pop(c, None)
        if woken is not None:
            for idx in woken:
                heapq.heappush(ready[bound[idx]], idx)

        # --- Retire in order -----------------------------------------
        retired = 0
        while retired < retire_width and retire_ptr < n:
            completion = comp[retire_ptr]
            if completion < 0 or completion > c:
                break
            retire_ptr += 1
            in_rob -= 1
            retired += 1
            last_retire = c
        if (
            retired == retire_width
            and retire_ptr < n
            and 0 <= comp[retire_ptr] <= c
        ):
            push(c + 1)

        # --- Issue in order; bind to the least-loaded port -----------
        issued = 0
        while (
            issued < issue_width
            and issue_ptr < n
            and in_rob < rob_size
            and in_rs < rs_size
        ):
            if min_issue[issue_ptr] > c:
                push(min_issue[issue_ptr])
                break
            idx = issue_ptr
            issue_ptr += 1
            in_rob += 1
            issued += 1
            pset = port_sets[idx]
            if pset:
                port = -1
                best_count = -1
                for p in pset:
                    count = port_counts[p]
                    if port < 0 or count < best_count or (
                        count == best_count and p < port
                    ):
                        port = p
                        best_count = count
                port_counts[port] += 1
                bound[idx] = port
                in_rs += 1
            else:
                bound[idx] = _PORTLESS
                portless.append(idx)
            t = ready_time(idx)
            if t >= 0:
                schedule_known(idx, t, c, -2)
            else:
                count = 0
                for j, _offset in deps[idx]:
                    if j is not None and disp[j] < 0:
                        consumers[j].append(idx)
                        count += 1
                pending[idx] = count
        else:
            if issued == issue_width and issue_ptr < n:
                # Width exhausted: the next µop can issue no earlier than
                # the next cycle, or its own front-end release if that is
                # later still (nothing else would schedule that wake-up).
                nxt = min_issue[issue_ptr]
                push(nxt if nxt > c else c + 1)

        # --- Portless µops complete in the ROB -----------------------
        if portless:
            still: List[int] = []
            for idx in portless:
                t = ready_time(idx)
                if 0 <= t <= c:
                    disp[idx] = c
                    completion = c + lat[idx]
                    comp[idx] = completion
                    push(completion if completion > c else c + 1)
                    notify(idx, c, -1)
                else:
                    still.append(idx)
            portless = still

        # --- Dispatch: every port takes its oldest ready µop ---------
        dispatched_any = False
        for pos, port in enumerate(port_order):
            heap = ready[port]
            if not heap:
                continue
            stash: List[int] = []
            chosen = -1
            while heap:
                idx = heapq.heappop(heap)
                if divider[idx] and divider_free > c:
                    stash.append(idx)
                    continue
                chosen = idx
                break
            for idx in stash:
                heapq.heappush(heap, idx)
            if stash:
                push(divider_free)
            if chosen < 0:
                continue
            disp[chosen] = c
            completion = c + lat[chosen]
            comp[chosen] = completion
            if divider[chosen]:
                divider_free = c + divider[chosen]
            in_rs -= 1
            dispatched_any = True
            push(completion if completion > c else c + 1)
            notify(chosen, c, pos)
            if heap:
                push(c + 1)
        if dispatched_any and issue_ptr < n:
            # Freed reservation-station slots admit issue next cycle.
            push(c + 1)

    return last_retire + 1, port_counts
