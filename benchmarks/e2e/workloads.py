"""Workloads of the end-to-end sweep benchmark and their seeded form lists.

Every workload sweeps :data:`FORMS_PER_LAUNCH` forms drawn from the
stratified sample ``repro sweep --sample 40`` would characterize.  The
sample is thinned to that size evenly along a cost ranking (divider
forms first, then by µop and operand count), so each launch keeps the
sample's spread from one-µop ALU forms to the divider tail.  The seed
then moves every pick to another *sibling*: a form of the same
category with the same operand kinds and widths (``DIV_M16`` ↔
``IDIV_M16``).  Siblings cost about the same to characterize, so
seeds change the inputs without changing how much work a launch is;
rotating within whole categories would swap a 0.5 s ``DIV_R8`` for a
16 s ``IDIV_M64``.  ``size=0`` keeps the whole sample, and seed 0 of
that is exactly the CLI's form list; a ``size`` below
:data:`FORMS_PER_LAUNCH` picks a subset of the full-size launch.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List

#: The ``repro sweep --sample`` target the forms are drawn from.
SAMPLE_TARGET = 40

#: Forms characterized per launch: enough that ten lie beyond the p75
#: form latency, small enough that a cold launch fits one run.
FORMS_PER_LAUNCH = 40


@dataclass(frozen=True)
class Workload:
    uarch: str
    #: ``"default"`` (``MeasurementConfig()``) or ``"paper"``
    #: (``MeasurementConfig.paper()``: unroll 10/110, 3 repeats).
    config: str
    jobs: int
    #: Launches reuse one cache filled before the timed runs.
    warm: bool


#: Why each workload exists: ``BENCHMARK.json`` and README.md.
WORKLOADS: Dict[str, Workload] = {
    "skl-default-cold": Workload("SKL", "default", 1, False),
    "nhm-paper-cold": Workload("NHM", "paper", 1, False),
    "skl-default-warm": Workload("SKL", "default", 1, True),
    "skl-default-queue2": Workload("SKL", "default", 2, False),
}


def sibling_key(form):
    """Forms that rotate into each other's slot under another seed."""
    return (
        form.category,
        tuple((spec.kind.name, spec.width) for spec in form.operands),
    )


def _cost_rank(form, uarch):
    """Sort key, costliest first: divider forms, then µops + operands."""
    from repro.uarch.tables import build_entry

    entry = build_entry(form, uarch)
    return (
        entry.divider_class is None,
        -(len(entry.uops) + len(form.operands)),
        form.uid,
    )


def _slots(supported, uarch, size: int) -> List:
    from repro.analysis.sampling import stratified_sample

    slots = sorted(
        stratified_sample(supported, SAMPLE_TARGET),
        key=lambda form: _cost_rank(form, uarch),
    )
    if size <= 0:
        return slots
    # Thin in two steps so a smaller launch (a smoke test) is a subset
    # of the full-size one, and so of the reference.
    for n in (FORMS_PER_LAUNCH, size):
        if 0 < n < len(slots):
            slots = [slots[i * len(slots) // n] for i in range(n)]
    return slots


def _groups(supported):
    groups = defaultdict(list)
    for form in sorted(supported, key=lambda form: form.uid):
        groups[sibling_key(form)].append(form)
    return groups


def seeded_forms(
    supported, uarch, seed: int, size: int = FORMS_PER_LAUNCH
) -> List:
    """The forms one launch characterizes, sorted by uid."""
    groups = _groups(supported)
    picks = []
    for form in _slots(supported, uarch, size):
        members = groups[sibling_key(form)]
        picks.append(members[(members.index(form) + seed) % len(members)])
    return sorted(picks, key=lambda form: form.uid)


def population(supported, uarch) -> List:
    """Every form some seed can pick (what the reference XML covers)."""
    groups = _groups(supported)
    members = {
        form.uid: form
        for slot in _slots(supported, uarch, FORMS_PER_LAUNCH)
        for form in groups[sibling_key(slot)]
    }
    return [members[uid] for uid in sorted(members)]
