"""Decoder-class characterization (the paper's future work).

The conclusions mention characterizing "whether instructions use the simple
decoder, the complex decoder, or the Microcode-ROM".  The legacy decode
pipe of Intel Core CPUs has three simple decoders (one µop each), one
complex decoder (up to four µops), and the MSROM for longer instructions,
which takes over the front end entirely.

Characterization strategy (with the decoder model enabled on the simulated
hardware; on a real machine this is just the machine):

* the µop count per instruction comes from the standard isolation run;
* the *decode penalty* is the extra cost of a back-to-back stream of the
  instruction relative to an ideal front end — a stream of N multi-µop
  instructions can only decode one per cycle, and MSROM instructions
  stall the decoders for ceil(µops/4) cycles each;
* class = simple (1 µop), complex (2-4 µops, order-sensitive decode),
  MSROM (>4 µops, large penalty).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core.codegen import independent_sequence, measure_isolated
from repro.isa.database import InstructionDatabase
from repro.isa.instruction import InstructionForm
from repro.measure.backend import HardwareBackend, MeasurementConfig

DECODER_SIMPLE = "simple"
DECODER_COMPLEX = "complex"
DECODER_MSROM = "msrom"


@dataclass
class DecoderCharacterization:
    form_uid: str
    uop_count: int
    decode_penalty: float  # extra cycles/instr vs the ideal front end
    decoder_class: str

    def __str__(self) -> str:
        return (
            f"{self.form_uid}: {self.uop_count} µops, "
            f"decode penalty {self.decode_penalty:+.2f} -> "
            f"{self.decoder_class} decoder"
        )


def decoder_backend(uarch) -> HardwareBackend:
    """A hardware backend whose core models the legacy decoders."""
    from repro.pipeline.core import Core

    backend = HardwareBackend(uarch, MeasurementConfig())
    backend._core = Core(uarch, enable_decoder_model=True)
    return backend


def characterize_decoder(
    form: InstructionForm,
    decode_hw: HardwareBackend,
    ideal_hw: HardwareBackend,
) -> DecoderCharacterization:
    """Classify which decoder *form* uses.

    Args:
        decode_hw: backend with the decoder model enabled.
        ideal_hw: backend with an ideal front end (the mainline setting),
            used as the baseline that isolates the decode cost.
    """
    uops = round(measure_isolated(form, ideal_hw).uops)
    stream = independent_sequence(form, 8)
    with_decoders = decode_hw.measure(stream).cycles / len(stream)
    ideal = ideal_hw.measure(stream).cycles / len(stream)
    penalty = with_decoders - ideal

    if uops > 4:
        decoder_class = DECODER_MSROM
    elif uops > 1:
        decoder_class = DECODER_COMPLEX
    else:
        decoder_class = DECODER_SIMPLE
    return DecoderCharacterization(
        form_uid=form.uid,
        uop_count=uops,
        decode_penalty=penalty,
        decoder_class=decoder_class,
    )


def decoder_report(
    database: InstructionDatabase,
    uarch,
    uids: List[str],
) -> List[DecoderCharacterization]:
    """Characterize the decoder class for a list of forms."""
    decode_hw = decoder_backend(uarch)
    ideal_hw = HardwareBackend(uarch)
    results = []
    for uid in uids:
        form = database.by_uid(uid)
        if not ideal_hw.supports(form):
            continue
        results.append(characterize_decoder(form, decode_hw, ideal_hw))
    return results
