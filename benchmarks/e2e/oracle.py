"""Correctness checks of the end-to-end benchmark's outputs.

Two references, both independent of the run being checked:

* ``reference/<uarch>-<config>.xml`` holds the serial sweep of every
  form any seed can pick (:func:`workloads.population`), written by
  ``run.py --write-references``.  A launch's XML must be byte-identical
  to the document those forms' blocks make — for every seed and every
  workload, so queue-mode and warm outputs are held to the serial
  result too.  A form whose block differs (or that was quarantined)
  counts as failed.
* The simulator's hidden ground truth: port usage must equal
  ``build_entry(...).port_usage()`` and exact register/flag latency
  pairs must lie within 1.1 cycles of
  :func:`repro.analysis.latency_truth.expected_latency` (the rule of
  ``examples/ground_truth_validation.py``).
"""

from __future__ import annotations

import pathlib
import re
import xml.etree.ElementTree as ET
from typing import Dict, List, Tuple

REFERENCE_DIR = pathlib.Path(__file__).resolve().parent / "reference"

#: One ``<instruction>`` element as ``write_xml`` indents it.
_BLOCK = re.compile(
    r'^  <instruction string="([^"]+)".*?^  </instruction>\n',
    re.MULTILINE | re.DOTALL,
)

#: Forms ``examples/ground_truth_validation.py`` leaves out.
_SKIP_ATTRIBUTES = ("system", "serializing", "rep", "control_flow")
_UNTIMED_CATEGORIES = ("div", "vec_fp_div", "vec_fp_sqrt")

#: Latency slots compared against the analytical DAG value.
_REGISTER_KINDS = ("GPR", "VEC", "MMX")
_TOLERANCE = 1.1


def reference_path(uarch: str, config: str) -> pathlib.Path:
    return REFERENCE_DIR / f"{uarch.lower()}-{config}.xml"


class Reference:
    """A reference document split into per-form blocks."""

    def __init__(self, text: str):
        matches = list(_BLOCK.finditer(text))
        if not matches:
            raise ValueError("reference holds no <instruction> blocks")
        self.head = text[: matches[0].start()]
        self.tail = text[matches[-1].end():]
        self.blocks = {match.group(1): match.group(0) for match in matches}

    @classmethod
    def load(cls, uarch: str, config: str) -> "Reference":
        return cls(reference_path(uarch, config).read_text(encoding="utf-8"))

    def expected(self, uids) -> str:
        """The document a sweep of *uids* must write."""
        return self.head + "".join(
            self.blocks[uid] for uid in sorted(uids)
        ) + self.tail

    def mismatches(self, text: str, uids) -> List[str]:
        """Requested forms whose output block differs from the reference
        (missing from the output, quarantined, or unknown to the
        reference); empty when *text* is the expected document."""
        if all(uid in self.blocks for uid in uids) and text == self.expected(
            uids
        ):
            return []
        produced = {
            match.group(1): match.group(0) for match in _BLOCK.finditer(text)
        }
        bad = [
            uid for uid in uids
            if uid not in self.blocks or produced.get(uid) != self.blocks[uid]
        ]
        # A document that differs outside the form blocks (head, tail,
        # extra elements) fails every form: its layout is wrong.
        return bad or sorted(uids)


def _slot(form, label):
    if label == "flags":
        return "flags"
    for index in range(len(form.operands)):
        if form.operand_label(index) == label:
            return index
    return None


def exact_fractions(text: str, uarch) -> Tuple[Dict[str, int], float, float]:
    """Ground-truth agreement of one output document.

    Returns ``(counts, port_usage_exact_frac, latency_exact_frac)``;
    ``counts`` holds the checked and exact numbers of each.
    """
    from repro.analysis.latency_truth import expected_latency
    from repro.core.result import PortUsage
    from repro.isa.database import load_default_database
    from repro.uarch.tables import build_entry

    database = load_default_database()
    counts = {"ports": 0, "ports_exact": 0, "latency": 0, "latency_exact": 0}
    for instruction in ET.fromstring(text).iter("instruction"):
        form = database.by_uid(instruction.get("string"))
        measurement = instruction.find(
            f"architecture[@name='{uarch.name}']/measurement"
        )
        if measurement is None or any(
            form.has_attribute(attribute) for attribute in _SKIP_ATTRIBUTES
        ):
            continue
        ports = measurement.get("ports")
        if ports is not None:
            truth = PortUsage(build_entry(form, uarch).port_usage())
            counts["ports"] += 1
            counts["ports_exact"] += ports == truth.notation()
        if form.has_memory_operand or form.category in _UNTIMED_CATEGORIES:
            continue
        for latency in measurement.iter("latency"):
            if any(latency.get(key) for key in ("kind", "same_reg",
                                                "value_class")):
                continue
            source = _slot(form, latency.get("start_op"))
            target = _slot(form, latency.get("target_op"))
            if source is None or target is None or any(
                slot != "flags"
                and form.operands[slot].kind.name not in _REGISTER_KINDS
                for slot in (source, target)
            ):
                continue
            expected = expected_latency(form, uarch, source, target)
            if expected is None:
                continue
            counts["latency"] += 1
            counts["latency_exact"] += (
                abs(float(latency.get("cycles")) - expected) <= _TOLERANCE
            )
    return (
        counts,
        counts["ports_exact"] / counts["ports"] if counts["ports"] else 0.0,
        counts["latency_exact"] / counts["latency"]
        if counts["latency"] else 0.0,
    )


def warm_violations(stats) -> List[str]:
    """What a warm launch's ``--stats-json`` payload must not show."""
    problems = []
    if stats.get("experiments_measured", 0):
        problems.append(
            f"experiments_measured={stats['experiments_measured']}"
        )
    if stats.get("cache_misses", 0):
        problems.append(f"cache_misses={stats['cache_misses']}")
    return problems
