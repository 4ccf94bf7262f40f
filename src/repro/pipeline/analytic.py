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
counters of scheduling just those copies.

The pass stops early at a *proved* steady state (:class:`_SteadyState`):
two equal canonical snapshots of its state, ``p`` copies apart, before
the same remaining template order, prove that every later copy repeats
the copy ``p`` earlier, shifted in time.  The measurement ladder reads
each unroll target off the scheduled copies as a prefix, or extrapolates
it exactly from the last ``p`` of them.

Equivalence contract: identical counters to the reference loop, pinned
by tests/test_sim_differential.py and the generative harness in
tests/test_sim_fuzz.py.
"""

from __future__ import annotations

from bisect import bisect_right
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
    ``cycles`` is the scheduled copies' total as the reference loop
    counts it, and ``finish[k]`` the cycle in which the last µop of copy
    ``k`` retired (``-1`` before the first µop), so the counters of a
    *prefix* of ``t`` copies are ``cycles = finish[t-1] + 1`` plus the
    sums of the per-copy columns: ``ports[k]`` (µops bound to each port,
    every port a key), ``uops[k]`` and ``fused[k]``.  ``period`` is the
    proved timing period (``0`` if none): the pass stopped after
    ``copies`` copies, and every later copy of the order repeats the
    copy ``period`` earlier — finish delta, ports, µops and fused µops.
    """

    cycles: int
    finish: List[int]
    ports: List[Dict[int, int]]
    uops: List[int]
    fused: List[int]
    period: int

    @property
    def copies(self) -> int:
        return len(self.finish)


#: Longest timing period, in copies, the steady-state proof looks for.
MAX_LAG = 12


class _Snapshot(NamedTuple):
    """The pass's state at a copy boundary."""

    copies: int
    uops: int
    #: B: the issue cycle of the latest µop.  Every later µop issues,
    #: becomes ready and dispatches at or after it.
    base: int
    #: Everything but the port loads and the front-end release,
    #: relative to ``base`` and clamped where no later decision can tell
    #: values apart (:class:`_SteadyState`).
    state: Tuple
    loads: Dict[int, int]
    frontend_release: int


class _SteadyState:
    """Proves a template stream periodic from two snapshots of the pass.

    Let snapshots S1 and S2 be taken ``p`` copies apart, with the same
    template order remaining after each.  Every input of a later µop's
    issue, binding, dispatch, retire and divider test is read from
    ``state`` (relative to B, so a shift of time preserves it), the port
    loads, or the front-end release.  When the three agree in the sense
    of :meth:`proves`, the copies after S2 are the copies after S1
    shifted by ``B2 - B1``, and S3, ``p`` copies after S2, relates to S2
    as S2 to S1: by induction every later copy repeats the copy ``p``
    earlier.

    ``state`` holds, relative to B:

    * the window of the last ``window`` µops (every dependency age and
      the ROB): dispatch cycle and phase, a dispatch at or below
      ``B - reach`` (``reach`` = 1 + the largest dependency offset)
      collapsed to one value, since it readies its consumers before B.
      The µops older than the ROB retired by B, so each port's taken
      cycles at or after B are the window's.  So are the reservation
      station's: a µop that issues at ``c >= B`` waits for ``rs_size``
      port-bound µops dispatching at ``c`` or later, all of them in the
      window or younger, so the heap adds nothing;
    * the retire cycles above B (retire is monotone, so they are a
      suffix); a retire cycle at or below B never delays a later µop;
    * the last ``issue_width`` issue cycles, clamped at ``B - 1``;
    * ``divider_free`` and ``idle_end`` clamped at B, and the divider
      dispatches at or after B.  A later divider µop is eligible at or
      after B, so the reorder tests read nothing below it.  (With
      ``divider_free`` at B, a dispatch at B leaves ``idle_end`` below B
      instead of moving it to B: the same once clamped.)

    Two quantities grow without bound, and may differ between S1 and S2
    only away from any decision (:meth:`proves`): the port loads, and
    the front-end lead ``frontend_release - B``.  A constant-ready input
    (dependency age ``None``) must lie at or before B1.
    """

    def __init__(self, uarch, templates: Sequence[Tuple], order: Sequence[int]):
        items = [item for ti in set(order) for item in templates[ti][0]]
        deps = {dep for item in items for dep in item[3]}
        ages = [age for age, _ in deps if age is not None]
        self.order = order
        self.issue_width = uarch.issue_width
        self.window = max([uarch.rob_size] + ages)
        self.reach = 1 + max(
            (offset for age, offset in deps if age is not None), default=0
        )
        self.constant = max(
            (offset for age, offset in deps if age is None), default=0
        )
        #: The front-end never binds a copy whose release lies this far
        #: behind B (less the release the period adds).
        self.lead = -1 - max((item[2] for item in items), default=0)
        # Ports that share a candidate set, joined transitively: binding
        # compares loads within a component only.
        component = {p: {p} for p in uarch.ports}
        for pset in {item[0] for item in items}:
            merged = set().union(*(component[p] for p in pset))
            for p in merged:
                component[p] = merged
        self.components = {
            tuple(sorted(ports)) for ports in component.values()
            if len(ports) > 1
        }
        #: The latest copy each per-copy signature was seen at.
        self.seen: Dict[Tuple[int, int], int] = {}
        self.snapshots: Dict[int, _Snapshot] = {}

    def period(
        self, finish: List[int], uops: int, k: int, disp, phase, retire,
        issue, divider_free, idle_end, divider_disp, port_counts,
        frontend_release,
    ) -> int:
        """The period proved at the boundary after ``k`` µops, or 0.

        A snapshot is taken only when the last copy's ``(finish delta,
        µops)`` repeats at some lag up to :data:`MAX_LAG`, once the
        window is filled."""
        copies = len(finish)
        signature = (
            finish[-1] - (finish[-2] if copies > 1 else -1), uops
        )
        last = self.seen.get(signature, -MAX_LAG)
        self.seen[signature] = copies
        if (
            copies - last > MAX_LAG or k < self.window
            or copies == len(self.order)
        ):
            return 0
        base = issue[k - 1]
        start = k - self.window
        floor = base - self.reach
        state = (
            # Phases of the collapsed dispatches too: in a steady state
            # they repeat anyway, and a finer state is still sound.
            tuple(d - base if d > floor else None for d in disp[start:k]),
            tuple(phase[start:k]),
            tuple(
                r - base
                for r in retire[bisect_right(retire, base, start, k):k]
            ),
            tuple(max(c - base, -1) for c in issue[k - self.issue_width:k]),
            max(divider_free - base, 0),
            max(idle_end - base, 0),
            tuple(sorted(
                (pos, d - base) for pos, d in divider_disp.items()
                if d >= base
            )),
        )
        now = _Snapshot(
            copies, k, base, state, dict(port_counts), frontend_release
        )
        snapshots = self.snapshots = {
            c: s for c, s in self.snapshots.items() if c >= copies - MAX_LAG
        }
        snapshots[copies] = now
        for lag in range(1, MAX_LAG + 1):
            before = snapshots.get(copies - lag)
            if before is not None and self.proves(before, now):
                return lag
        return 0

    def proves(self, first: _Snapshot, second: _Snapshot) -> bool:
        """Do the copies after *second* repeat those after *first*?

        ``state`` must be equal, the remaining order too, and every
        constant-ready input at or before B1.  Port loads: within each
        component the ports sort alike by (load, id), and a gap between
        consecutive ports may differ only if it was at least C (the
        µops between the snapshots) at *first* and did not shrink; in
        the C µops after either snapshot the lower port then stays
        strictly below, and the gap keeps growing after *second*.
        Front-end lead: it may differ only if it did not grow and at
        *first* lay so far behind B that, over the period's release, no
        µop's front-end bound reaches the issue cycle; it then keeps
        falling.  (The release deltas of templates are non-negative,
        as rename's front-end release never falls.)
        """
        if first.state != second.state or self.constant > first.base:
            return False
        order = self.order
        rest = len(order) - second.copies
        if order[second.copies:] != order[first.copies:first.copies + rest]:
            return False
        lead = first.frontend_release - first.base
        later_lead = second.frontend_release - second.base
        if later_lead != lead and not (later_lead < lead <= self.lead - (
            second.frontend_release - first.frontend_release
        )):
            return False
        between = second.uops - first.uops
        before, after = first.loads, second.loads
        for ports in self.components:
            ranked = sorted(ports, key=lambda p: (before[p], p))
            if ranked != sorted(ports, key=lambda p: (after[p], p)):
                return False
            for low, high in zip(ranked, ranked[1:]):
                gap = before[high] - before[low]
                later_gap = after[high] - after[low]
                if later_gap != gap and not between <= gap <= later_gap:
                    return False
        return True


def schedule_analytic(
    uarch,
    templates: Sequence[Tuple],
    order: Sequence[int],
) -> Optional[ProbeResult]:
    """One-pass closed-form schedule; ``None`` on a divider reorder.

    Plays ``templates[i]`` for each ``i`` in *order*, one copy each, and
    stops early once :class:`_SteadyState` proves the rest periodic
    (``ProbeResult.period``).  A template is ``(items, frontend_release
    delta, fused-µop delta)``, its items as :func:`encode_uops` writes
    them; a copy's ``min_issue`` values are relative to the front-end
    release accumulated over the copies before it.

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
    It reads the snapshot's state, so past a proof it never fires.
    """
    issue_width = uarch.issue_width
    retire_width = uarch.retire_width
    rob_size = uarch.rob_size
    rs_size = uarch.rs_size
    port_order = tuple(uarch.ports)
    port_pos = {p: i for i, p in enumerate(port_order)}
    steady = (
        _SteadyState(uarch, templates, order) if len(order) > 1 else None
    )

    finish: List[int] = []
    per_ports: List[Dict[int, int]] = []
    per_uops: List[int] = []
    per_fused: List[int] = []
    #: Per µop: issue, dispatch, dispatch phase, retire.
    size = sum(len(templates[ti][0]) for ti in order)
    issue = [0] * size
    disp = [0] * size
    phase = [0] * size
    retire = [0] * size
    k = 0
    #: µops bound to each port so far (binding reads the loads), and per
    #: port the first-free-slot map of the cycles older µops took.
    port_counts: Dict[int, int] = {p: 0 for p in port_order}
    taken: Dict[int, Dict[int, int]] = {p: {} for p in port_order}
    #: The ``rs_size`` largest dispatch cycles of port-bound µops so far.
    rs_top: List[int] = []
    rs_full = False
    #: Divider state: the cycle it frees, the end of its latest idle
    #: stretch, and the latest divider dispatch per port position.
    divider_free = 0
    idle_end = 0
    divider_disp: Dict[int, int] = {}
    frontend_release = 0
    copy_start = dict(port_counts)
    last_issue = 0
    last_retire = 0
    period = 0

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
        if steady is not None:
            period = steady.period(
                finish, len(items), k, disp, phase, retire, issue,
                divider_free, idle_end, divider_disp, port_counts,
                frontend_release,
            )
            if period:
                break

    return ProbeResult(
        retire[k - 1] + 1 if k else 0,
        finish,
        per_ports,
        per_uops,
        per_fused,
        period,
    )
