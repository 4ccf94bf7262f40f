"""The IACA-style static analyzer, as a measurement backend.

IACA treats the analyzed code as the body of a loop and reports
steady-state throughput and port bindings for many iterations (Section 6.3)
— which is exactly what the paper's measurement protocol averages, so the
same inference algorithms run unchanged on top of it.

Faithfully to the original (Section 7.2), the analysis ignores dependencies
on status flags (the CMC example), dependencies through memory (the
store/load example), and latency differences between operand pairs.  µops
are bound to ports by the same min-max LP used in Section 5.3.2, i.e. the
scheduler is assumed perfect.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.iaca.tables import IacaEntry, iaca_entry
from repro.isa.instruction import Instruction, InstructionForm
from repro.pipeline.core import CounterValues
from repro.uarch.model import UarchConfig

#: All IACA versions that ever existed in this reproduction.
ALL_VERSIONS = ("2.1", "2.2", "2.3", "3.0")

#: Versions that still support latency analysis (dropped in 2.2+).
LATENCY_VERSIONS = ("2.1",)


def iaca_versions_for(uarch: UarchConfig) -> Tuple[str, ...]:
    """The IACA versions supporting this generation (Table 1, column 4)."""
    return tuple(uarch.iaca_versions)


class IacaBackend:
    """A measurement backend that runs code "on top of IACA"."""

    def __init__(self, uarch: UarchConfig, version: str):
        if version not in ALL_VERSIONS:
            raise ValueError(f"unknown IACA version: {version}")
        if version not in uarch.iaca_versions:
            raise ValueError(
                f"IACA {version} does not support {uarch.full_name}"
            )
        self.uarch = uarch
        self.version = version
        self.name = f"iaca{version}-{uarch.name}"
        self._entries: Dict[str, Optional[IacaEntry]] = {}

    # ------------------------------------------------------------------

    def entry(self, form: InstructionForm) -> Optional[IacaEntry]:
        uid = form.uid
        if uid not in self._entries:
            self._entries[uid] = iaca_entry(form, self.uarch, self.version)
        return self._entries[uid]

    def supports(self, form: InstructionForm) -> bool:
        entry = self.entry(form)
        return entry is not None and entry.supported

    def supports_latency(self) -> bool:
        return self.version in LATENCY_VERSIONS

    def scalar_latency(self, form: InstructionForm) -> Optional[float]:
        """IACA's single-value latency (versions <= 2.1 only)."""
        if not self.supports_latency():
            return None
        entry = self.entry(form)
        if entry is None or not entry.supported:
            return None
        return entry.latency

    # ------------------------------------------------------------------

    def measure(
        self,
        code: Sequence[Instruction],
        init: Optional[Dict[str, int]] = None,
    ) -> CounterValues:
        """Static steady-state analysis of *code* as a loop body.

        ``init`` is accepted for interface compatibility and ignored: a
        static analyzer knows nothing about register contents, which is
        precisely why it cannot model value-dependent divider timing.
        """
        port_loads: Dict[int, float] = {p: 0.0 for p in self.uarch.ports}
        total_uops = 0.0
        for instruction in code:
            entry = self.entry(instruction.form)
            if entry is None or not entry.supported:
                raise ValueError(
                    f"IACA {self.version} does not support "
                    f"{instruction.form.uid}"
                )
            total_uops += entry.uops_total
            for ports, n in entry.port_view:
                for _ in range(n):
                    # Least-loaded binding, like the hardware scheduler's
                    # steady state; IACA's reports show the same balanced
                    # fractional spreads.
                    port = min(
                        ports, key=lambda p: (port_loads[p], p)
                    )
                    port_loads[port] += 1.0
        bound = max(port_loads.values()) if port_loads else 0.0
        # The front end issues at most `issue_width` µops per cycle.
        cycles = max(bound, total_uops / self.uarch.issue_width)
        return CounterValues(
            cycles=cycles,
            port_uops=port_loads,
            uops=total_uops,
            instructions=len(code),
        )
