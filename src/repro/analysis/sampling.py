"""Deterministic stratified sampling of instruction forms.

Characterizing every variant on every generation takes the paper's tool
50-110 minutes on real hardware; on the pure-Python simulator a full run is
correspondingly slower, so the benchmarks and ``repro sweep --sample``
use a stratified sample (one form out of every *k*, spread across
categories).
"""

from __future__ import annotations

from typing import Dict, List

from repro.isa.instruction import InstructionForm


def stratified_sample(
    forms: List[InstructionForm],
    target: int,
) -> List[InstructionForm]:
    """About *target* forms, covering every category proportionally."""
    if target <= 0 or target >= len(forms):
        return list(forms)
    by_category: Dict[str, List[InstructionForm]] = {}
    for form in sorted(forms, key=lambda f: f.uid):
        by_category.setdefault(form.category, []).append(form)
    fraction = target / len(forms)
    sample: List[InstructionForm] = []
    for category in sorted(by_category):
        members = by_category[category]
        take = max(1, round(len(members) * fraction))
        stride = max(1, len(members) // take)
        sample.extend(members[::stride][:take])
    return sample

