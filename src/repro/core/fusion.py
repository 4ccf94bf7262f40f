"""Micro- and macro-fusion characterization (the paper's future work).

The conclusions list "micro and macro-fusion" among the aspects the
authors would like to characterize next.  This module implements both
measurements on top of the existing protocol:

* **Micro-fusion**: comparing the fused-domain and unfused-domain µop
  counters for an instruction run in isolation reveals how many of its
  µop pairs are micro-fused (load+op, store-address+store-data).
* **Macro-fusion**: a flag-writing instruction directly followed by a
  conditional branch may execute as a single µop.  Measuring the µop count
  of the adjacent pair and subtracting the individually measured counts
  detects whether the pair fused — swept over candidate flag writers and
  condition codes this yields the generation's fusion matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.codegen import (
    RegisterAllocator,
    form_fixed_canonicals,
    instantiate,
    measure_isolated,
)
from repro.isa.database import InstructionDatabase
from repro.isa.instruction import InstructionForm
from repro.measure.backend import MeasurementConfig

#: Flag-writing mnemonics commonly paired with branches.
FLAG_WRITER_CANDIDATES = (
    "CMP", "TEST", "ADD", "SUB", "AND", "INC", "DEC", "OR", "XOR",
)

#: One branch per condition-flag group.
BRANCH_CANDIDATES = ("JE", "JB", "JL", "JS", "JO")


@dataclass
class MicroFusionResult:
    form_uid: str
    unfused_uops: int
    fused_uops: int

    @property
    def fused_pairs(self) -> int:
        return self.unfused_uops - self.fused_uops


@dataclass
class MacroFusionMatrix:
    uarch_name: str
    #: {(flag writer mnemonic, branch mnemonic): fused?}
    pairs: Dict[Tuple[str, str], bool] = field(default_factory=dict)

    def fusible_writers(self) -> List[str]:
        return sorted(
            {
                writer
                for (writer, _branch), fused in self.pairs.items()
                if fused
            }
        )

    def render(self) -> str:
        writers = sorted({w for w, _ in self.pairs})
        branches = sorted({b for _, b in self.pairs})
        lines = [f"macro-fusion matrix on {self.uarch_name}:"]
        header = "  " + " ".join(f"{b:>5s}" for b in branches)
        lines.append(f"{'':8s}{header}")
        for writer in writers:
            cells = " ".join(
                f"{'yes' if self.pairs.get((writer, b)) else '-':>5s}"
                for b in branches
            )
            lines.append(f"{writer:8s}  {cells}")
        return "\n".join(lines)


def measure_micro_fusion(
    form: InstructionForm, backend
) -> MicroFusionResult:
    """Compare fused- and unfused-domain µop counts in isolation."""
    counters = measure_isolated(form, backend)
    return MicroFusionResult(
        form_uid=form.uid,
        unfused_uops=round(counters.uops),
        fused_uops=round(counters.uops_fused),
    )


def detect_macro_fusion(
    writer_form: InstructionForm,
    branch_form: InstructionForm,
    backend,
) -> bool:
    """Whether *writer* + *branch*, adjacent, execute with fewer µops
    than the two instructions individually."""
    allocator = RegisterAllocator(
        form_fixed_canonicals(writer_form)
        | form_fixed_canonicals(branch_form)
    )
    writer = instantiate(writer_form, allocator)
    branch = instantiate(branch_form, allocator)
    pair = backend.measure([writer, branch])
    writer_alone = backend.measure([writer])
    branch_alone = backend.measure([branch])
    separate = writer_alone.uops + branch_alone.uops
    return pair.uops < separate - 0.5


def _writer_form(
    database: InstructionDatabase, mnemonic: str
) -> Optional[InstructionForm]:
    for form in database.forms_for_mnemonic(mnemonic):
        specs = form.explicit_operands
        if (
            len(specs) >= 1
            and all(s.is_register for s in specs)
            and specs[0].width == 64
            and form.flags_written
        ):
            return form
    return None


def macro_fusion_matrix(
    database: InstructionDatabase, backend
) -> MacroFusionMatrix:
    """Sweep candidate (flag writer, branch) pairs on one backend.

    The backend must simulate fusion (``Core(..,
    enable_macro_fusion=True)`` wrapped in a ``HardwareBackend``) — on
    real hardware this is just the machine's behaviour.
    """
    matrix = MacroFusionMatrix(uarch_name=backend.uarch.name)
    for writer_mnemonic in FLAG_WRITER_CANDIDATES:
        writer = _writer_form(database, writer_mnemonic)
        if writer is None or not backend.supports(writer):
            continue
        for branch_mnemonic in BRANCH_CANDIDATES:
            branches = database.forms_for_mnemonic(branch_mnemonic)
            if not branches:
                continue
            branch = branches[0]
            if not branch.flags_read <= writer.flags_written:
                matrix.pairs[(writer_mnemonic, branch_mnemonic)] = False
                continue
            matrix.pairs[(writer_mnemonic, branch_mnemonic)] = \
                detect_macro_fusion(writer, branch, backend)
    return matrix


def fusion_backend(uarch):
    """A hardware backend whose core models macro-fusion."""
    from repro.measure.backend import HardwareBackend
    from repro.pipeline.core import Core

    backend = HardwareBackend(uarch, MeasurementConfig())
    backend._core = Core(uarch, enable_macro_fusion=True)
    return backend
