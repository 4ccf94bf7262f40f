"""The nine Intel Core generations of Table 1.

Functional-unit port assignments follow the public shape of each generation:
six execution ports on Nehalem through Ivy Bridge, eight from Haswell on,
with the unit placements that the paper's case studies depend on (e.g. AES
on port 5 on Haswell but port 0 on Skylake, Section 7.3.1; the shift/branch
units on ports 0 and 6 from Haswell on).

Contract (checked by ``tests/test_uarch_tables.py``): every port named
by a functional-unit map or a built µop must exist in that generation's
``ports`` tuple, every generation must place ``store_addr`` and
``store_data`` units (the blocking discovery of Section 5.1.1 depends on
them), and declared ``iaca_versions`` must be known to the analyzer.
The tests rebuild every (form, generation) entry and cross-check all of
this; seeding a fake port here fails them.
"""

from __future__ import annotations

from typing import Dict, FrozenSet

from repro.uarch.model import DividerTiming, UarchConfig


def _fu(**units: tuple) -> Dict[str, FrozenSet[int]]:
    return {name: frozenset(ports) for name, ports in units.items()}


_BASE_EXTS = frozenset(
    {"BASE", "MMX", "SSE", "SSE2", "SSE3", "SSSE3", "SSE4", "SSE42",
     "POPCNT"}
)
_WSM_EXTS = _BASE_EXTS | {"AES", "PCLMULQDQ"}
_SNB_EXTS = _WSM_EXTS | {"AVX", "AVX_AES"}
_IVB_EXTS = _SNB_EXTS | {"F16C"}
_HSW_EXTS = _IVB_EXTS | {"AVX2", "FMA", "BMI1", "BMI2", "LZCNT", "MOVBE"}
_BDW_EXTS = _HSW_EXTS | {"ADX"}

# ---------------------------------------------------------------------------
# Six-port generations (Figure 1's port layout)
# ---------------------------------------------------------------------------

_NHM_FU = _fu(
    int_alu=(0, 1, 5),
    slow_int=(1,),
    lea=(0, 1),
    shift=(0, 5),
    branch=(5,),
    divider=(0,),
    vec_int_alu=(0, 1, 5),
    vec_logic=(0, 1, 5),
    mmx_alu=(0, 1, 5),
    vec_shuffle=(5,),
    vec_int_mul=(0,),
    vec_shift=(0,),
    vec_fp_add=(1,),
    vec_fp_mul=(0,),
    vec_blendv=(0, 5),
    vec_gpr=(0,),
    vec_p0=(0,),
    vec_aes=(0, 5),
    load=(2,),
    store_addr=(3,),
    store_data=(4,),
)

_SNB_FU = _fu(
    int_alu=(0, 1, 5),
    slow_int=(1,),
    lea=(0, 1),
    shift=(0, 5),
    branch=(5,),
    divider=(0,),
    vec_int_alu=(1, 5),
    vec_logic=(0, 1, 5),
    mmx_alu=(1, 5),
    vec_shuffle=(5,),
    vec_int_mul=(0,),
    vec_shift=(0,),
    vec_fp_add=(1,),
    vec_fp_mul=(0,),
    vec_blendv=(0, 5),
    vec_gpr=(0,),
    vec_p0=(0,),
    vec_aes=(0, 5),
    load=(2, 3),
    store_addr=(2, 3),
    store_data=(4,),
)

# ---------------------------------------------------------------------------
# Eight-port generations
# ---------------------------------------------------------------------------

_HSW_FU = _fu(
    int_alu=(0, 1, 5, 6),
    slow_int=(1,),
    lea=(1, 5),
    shift=(0, 6),
    branch=(0, 6),
    divider=(0,),
    vec_int_alu=(1, 5),
    vec_logic=(0, 1, 5),
    mmx_alu=(1, 5),
    vec_shuffle=(5,),
    vec_int_mul=(0,),
    vec_shift=(0,),
    vec_fp_add=(1,),
    vec_fp_mul=(0, 1),
    fma=(0, 1),
    vec_blendv=(5,),
    vec_gpr=(0,),
    vec_p0=(0,),
    vec_aes=(5,),
    load=(2, 3),
    store_addr=(2, 3, 7),
    store_data=(4,),
)

_SKL_FU = _fu(
    int_alu=(0, 1, 5, 6),
    slow_int=(1,),
    lea=(1, 5),
    shift=(0, 6),
    branch=(0, 6),
    divider=(0,),
    vec_int_alu=(0, 1, 5),
    vec_logic=(0, 1, 5),
    mmx_alu=(0, 1, 5),
    vec_shuffle=(5,),
    vec_int_mul=(0, 1),
    vec_shift=(0, 1),
    vec_fp_add=(0, 1),
    vec_fp_mul=(0, 1),
    fma=(0, 1),
    vec_blendv=(0, 1, 5),
    vec_gpr=(0,),
    vec_p0=(0,),
    vec_aes=(0,),
    load=(2, 3),
    store_addr=(2, 3, 7),
    store_data=(4,),
)

NEHALEM = UarchConfig(
    name="NHM",
    full_name="Nehalem",
    processor="Core i5-750",
    year=2008,
    ports=(0, 1, 2, 3, 4, 5),
    fu_map=_NHM_FU,
    extensions=_BASE_EXTS,
    rob_size=128,
    rs_size=36,
    move_elimination=False,
    zero_idiom_elimination=False,
    int_div=DividerTiming(28, 18, 92, 80),
    fp_div=DividerTiming(10, 7, 14, 12),
    fp_sqrt=DividerTiming(11, 7, 21, 19),
    iaca_versions=("2.1", "2.2"),
)

WESTMERE = UarchConfig(
    name="WSM",
    full_name="Westmere",
    processor="Core i5-650",
    year=2010,
    ports=(0, 1, 2, 3, 4, 5),
    fu_map=_NHM_FU,
    extensions=_WSM_EXTS,
    rob_size=128,
    rs_size=36,
    move_elimination=False,
    zero_idiom_elimination=False,
    int_div=DividerTiming(28, 18, 92, 80),
    fp_div=DividerTiming(10, 7, 14, 12),
    fp_sqrt=DividerTiming(11, 7, 21, 19),
    iaca_versions=("2.1", "2.2"),
)

SANDY_BRIDGE = UarchConfig(
    name="SNB",
    full_name="Sandy Bridge",
    processor="Core i7-2600",
    year=2011,
    ports=(0, 1, 2, 3, 4, 5),
    fu_map=_SNB_FU,
    extensions=_SNB_EXTS,
    rob_size=168,
    rs_size=54,
    move_elimination=False,
    zero_idiom_elimination=True,
    macro_fusible=frozenset({"CMP", "TEST", "ADD", "SUB", "AND", "INC",
                             "DEC"}),
    sse_avx_transition_penalty=70,
    int_div=DividerTiming(26, 16, 88, 70),
    fp_div=DividerTiming(10, 6, 14, 12),
    fp_sqrt=DividerTiming(11, 7, 21, 19),
    iaca_versions=("2.1", "2.2", "2.3"),
)

IVY_BRIDGE = UarchConfig(
    name="IVB",
    full_name="Ivy Bridge",
    processor="Core i5-3470",
    year=2012,
    ports=(0, 1, 2, 3, 4, 5),
    fu_map=_SNB_FU,
    extensions=_IVB_EXTS,
    rob_size=168,
    rs_size=54,
    move_elimination=True,
    zero_idiom_elimination=True,
    macro_fusible=frozenset({"CMP", "TEST", "ADD", "SUB", "AND", "INC",
                             "DEC"}),
    sse_avx_transition_penalty=70,
    int_div=DividerTiming(26, 16, 62, 50),
    fp_div=DividerTiming(10, 6, 14, 12),
    fp_sqrt=DividerTiming(11, 7, 21, 19),
    iaca_versions=("2.1", "2.2", "2.3"),
)

HASWELL = UarchConfig(
    name="HSW",
    full_name="Haswell",
    processor="Xeon E3-1225 v3",
    year=2013,
    ports=(0, 1, 2, 3, 4, 5, 6, 7),
    fu_map=_HSW_FU,
    extensions=_HSW_EXTS,
    rob_size=192,
    rs_size=60,
    move_elimination=True,
    zero_idiom_elimination=True,
    macro_fusible=frozenset({"CMP", "TEST", "ADD", "SUB", "AND", "INC",
                             "DEC"}),
    sse_avx_transition_penalty=70,
    int_div=DividerTiming(26, 10, 96, 74),
    fp_div=DividerTiming(10, 5, 13, 8),
    fp_sqrt=DividerTiming(11, 5, 20, 13),
    iaca_versions=("2.1", "2.2", "2.3", "3.0"),
)

BROADWELL = UarchConfig(
    name="BDW",
    full_name="Broadwell",
    processor="Core i5-5200U",
    year=2014,
    ports=(0, 1, 2, 3, 4, 5, 6, 7),
    fu_map=_HSW_FU,
    extensions=_BDW_EXTS,
    rob_size=192,
    rs_size=60,
    move_elimination=True,
    zero_idiom_elimination=True,
    macro_fusible=frozenset({"CMP", "TEST", "ADD", "SUB", "AND", "INC",
                             "DEC"}),
    sse_avx_transition_penalty=70,
    int_div=DividerTiming(26, 10, 42, 24),
    fp_div=DividerTiming(10, 5, 13, 8),
    fp_sqrt=DividerTiming(11, 5, 20, 13),
    iaca_versions=("2.2", "2.3", "3.0"),
)

SKYLAKE = UarchConfig(
    name="SKL",
    full_name="Skylake",
    processor="Core i7-6500U",
    year=2015,
    ports=(0, 1, 2, 3, 4, 5, 6, 7),
    fu_map=_SKL_FU,
    extensions=_BDW_EXTS,
    rob_size=224,
    rs_size=97,
    move_elimination=True,
    zero_idiom_elimination=True,
    macro_fusible=frozenset({"CMP", "TEST", "ADD", "SUB", "AND", "INC",
                             "DEC"}),
    sse_avx_transition_penalty=0,
    int_div=DividerTiming(26, 10, 42, 24),
    fp_div=DividerTiming(11, 3, 14, 5),
    fp_sqrt=DividerTiming(12, 4, 18, 9),
    iaca_versions=("2.3", "3.0"),
)

KABY_LAKE = UarchConfig(
    name="KBL",
    full_name="Kaby Lake",
    processor="Core i7-7700",
    year=2016,
    ports=(0, 1, 2, 3, 4, 5, 6, 7),
    fu_map=_SKL_FU,
    extensions=_BDW_EXTS,
    rob_size=224,
    rs_size=97,
    move_elimination=True,
    zero_idiom_elimination=True,
    macro_fusible=frozenset({"CMP", "TEST", "ADD", "SUB", "AND", "INC",
                             "DEC"}),
    sse_avx_transition_penalty=0,
    int_div=DividerTiming(26, 10, 42, 24),
    fp_div=DividerTiming(11, 3, 14, 5),
    fp_sqrt=DividerTiming(12, 4, 18, 9),
    iaca_versions=(),
)

COFFEE_LAKE = UarchConfig(
    name="CFL",
    full_name="Coffee Lake",
    processor="Core i7-8700K",
    year=2017,
    ports=(0, 1, 2, 3, 4, 5, 6, 7),
    fu_map=_SKL_FU,
    extensions=_BDW_EXTS,
    rob_size=224,
    rs_size=97,
    move_elimination=True,
    zero_idiom_elimination=True,
    macro_fusible=frozenset({"CMP", "TEST", "ADD", "SUB", "AND", "INC",
                             "DEC"}),
    sse_avx_transition_penalty=0,
    int_div=DividerTiming(26, 10, 42, 24),
    fp_div=DividerTiming(11, 3, 14, 5),
    fp_sqrt=DividerTiming(12, 4, 18, 9),
    iaca_versions=(),
)

#: All generations in chronological order, as in Table 1.
ALL_UARCHES = (
    NEHALEM,
    WESTMERE,
    SANDY_BRIDGE,
    IVY_BRIDGE,
    HASWELL,
    BROADWELL,
    SKYLAKE,
    KABY_LAKE,
    COFFEE_LAKE,
)

_BY_NAME = {u.name: u for u in ALL_UARCHES}
_BY_NAME.update({u.full_name.lower().replace(" ", ""): u
                 for u in ALL_UARCHES})


def get_uarch(name: str) -> UarchConfig:
    """Look up a generation by short name (``"SKL"``) or full name."""
    key = name.strip()
    if key in _BY_NAME:
        return _BY_NAME[key]
    key = key.lower().replace(" ", "").replace("_", "").replace("-", "")
    if key in _BY_NAME:
        return _BY_NAME[key]
    raise KeyError(f"unknown microarchitecture: {name!r}")
