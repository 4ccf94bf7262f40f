"""Machine-readable XML output (Section 6.4).

The results of the characterization are stored in an XML file modeled on
the uops.info format: one ``<instruction>`` element per variant, with one
``<architecture>`` element per generation, each holding a ``<measurement>``
(hardware) and optionally ``<iaca>`` elements (per analyzed IACA version),
with ``ports=``, ``uops=``, ``TP=`` attributes and per-operand-pair
``<latency>`` children.

Quarantined forms (see :class:`~repro.core.runner.FormFailure`) appear as
annotated ``<failure>`` elements instead of silently vanishing, so a
results file always accounts for every requested variant.  A run without
failures produces byte-identical output to the pre-quarantine format.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Mapping, Optional

from repro.core.result import InstructionCharacterization
from repro.isa.database import InstructionDatabase


def results_to_xml(
    results_by_uarch: Mapping[
        str, Mapping[str, InstructionCharacterization]
    ],
    database: Optional[InstructionDatabase] = None,
    iaca_results: Optional[
        Mapping[str, Mapping[str, Mapping[str, object]]]
    ] = None,
    failures: Optional[Mapping[str, Mapping[str, object]]] = None,
) -> ET.Element:
    """Build the results document.

    Args:
        results_by_uarch: {uarch name: {form uid: characterization}}.
        database: used to annotate forms with extension/category metadata.
        iaca_results: optional {uarch: {version: {form uid: result}}} from
            the IACA backend, stored alongside hardware measurements.
        failures: optional {uarch name: {form uid: FormFailure}} of
            quarantined forms, emitted as ``<failure>`` elements.
    """
    failures = failures or {}
    root = ET.Element("root")
    all_uids = sorted(
        {uid for results in results_by_uarch.values() for uid in results}
        | {uid for per_uarch in failures.values() for uid in per_uarch}
    )
    for uid in all_uids:
        instruction = ET.SubElement(root, "instruction")
        instruction.set("string", uid)
        if database is not None and uid in database:
            form = database.by_uid(uid)
            instruction.set("mnemonic", form.mnemonic)
            instruction.set("extension", form.extension)
            instruction.set("category", form.category)
        for uarch_name in sorted(
            set(results_by_uarch) | set(failures)
        ):
            results = results_by_uarch.get(uarch_name, {})
            quarantined = failures.get(uarch_name, {})
            if uid not in results and uid not in quarantined:
                continue
            architecture = ET.SubElement(instruction, "architecture")
            architecture.set("name", uarch_name)
            if uid in results:
                outcome = results[uid]
                measurement = ET.SubElement(architecture, "measurement")
                _fill_measurement(measurement, outcome)
            else:
                failure = ET.SubElement(architecture, "failure")
                _fill_failure(failure, quarantined[uid])
                continue
            if iaca_results is not None:
                for version, per_form in sorted(
                    iaca_results.get(uarch_name, {}).items()
                ):
                    if uid in per_form:
                        iaca = ET.SubElement(architecture, "iaca")
                        iaca.set("version", version)
                        _fill_iaca(iaca, per_form[uid])
    return root


def _fill_measurement(
    element: ET.Element, outcome: InstructionCharacterization
) -> None:
    element.set("uops", f"{outcome.uop_count:g}")
    if outcome.port_usage is not None:
        element.set("ports", outcome.port_usage.notation())
    if outcome.throughput is not None:
        element.set("TP", f"{outcome.throughput.measured:.2f}")
        if outcome.throughput.computed_from_ports is not None:
            element.set(
                "TP_ports",
                f"{outcome.throughput.computed_from_ports:.2f}",
            )
    if outcome.latency is not None:
        for (src, dst), value in sorted(outcome.latency.pairs.items()):
            latency = ET.SubElement(element, "latency")
            latency.set("start_op", src)
            latency.set("target_op", dst)
            latency.set("cycles", f"{value.cycles:g}")
            if value.kind != "exact":
                latency.set("kind", value.kind)
            if value.chain:
                latency.set("chain", value.chain)
        for (src, dst), value in sorted(
            outcome.latency.same_register.items()
        ):
            latency = ET.SubElement(element, "latency")
            latency.set("start_op", src)
            latency.set("target_op", dst)
            latency.set("cycles", f"{value.cycles:g}")
            latency.set("same_reg", "1")
        for (src, dst), value in sorted(
            outcome.latency.fast_values.items()
        ):
            latency = ET.SubElement(element, "latency")
            latency.set("start_op", src)
            latency.set("target_op", dst)
            latency.set("cycles", f"{value.cycles:g}")
            latency.set("value_class", "fast")


def _fill_failure(element: ET.Element, failure) -> None:
    """Annotate one quarantined form (a
    :class:`~repro.core.runner.FormFailure`)."""
    element.set("phase", failure.phase)
    element.set("error_type", failure.error_type)
    element.set("attempts", str(failure.attempts))
    element.set("message", failure.message)


def _fill_iaca(element: ET.Element, result) -> None:
    uops = result.get("uops") if isinstance(result, dict) else None
    ports = result.get("ports") if isinstance(result, dict) else None
    if uops is not None:
        element.set("uops", f"{uops:g}")
    if ports is not None:
        element.set("ports", ports)


def write_xml(root: ET.Element, path: str) -> None:
    """Serialize with indentation for human inspection."""
    _indent(root)
    ET.ElementTree(root).write(path, encoding="unicode",
                               xml_declaration=True)


def _indent(element: ET.Element, level: int = 0) -> None:
    pad = "\n" + "  " * level
    if len(element):
        if not element.text or not element.text.strip():
            element.text = pad + "  "
        for child in element:
            _indent(child, level + 1)
            if not child.tail or not child.tail.strip():
                child.tail = pad + "  "
        if not element[-1].tail or not element[-1].tail.strip():
            element[-1].tail = pad
    elif level and (not element.tail or not element.tail.strip()):
        element.tail = pad
