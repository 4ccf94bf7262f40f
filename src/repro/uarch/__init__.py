"""Per-generation machine descriptions (the simulator's ground truth).

Each Intel Core generation from Nehalem to Coffee Lake is described by a
:class:`~repro.uarch.model.UarchConfig` (ports, functional-unit map, buffer
sizes, divider behaviour) plus a per-instruction-form table of µop
decompositions built by :mod:`repro.uarch.tables`, whose
generation-grouped category rules express the case studies directly.

These tables play the role of the real silicon: the inference algorithms in
:mod:`repro.core` never read them — they only observe performance counters —
and the integration tests assert that the algorithms *recover* them.
"""

from repro.uarch.model import UarchConfig
from repro.uarch.configs import ALL_UARCHES, get_uarch
from repro.uarch.uops import UarchEntry, UopSpec
from repro.uarch.tables import build_entry, supported_on

__all__ = [
    "UarchConfig",
    "ALL_UARCHES",
    "get_uarch",
    "UarchEntry",
    "UopSpec",
    "build_entry",
    "supported_on",
]
