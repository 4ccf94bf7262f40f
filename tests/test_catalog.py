"""Catalog integrity tests."""

import dataclasses
from collections import Counter

from repro.isa.catalog import build_catalog
from repro.isa.database import InstructionDatabase
from repro.isa.instruction import (
    ATTR_DEP_BREAKING,
    ATTR_MOVE,
    ATTR_ZERO_IDIOM,
)
from repro.isa.operands import OperandKind
from repro.uarch.configs import ALL_UARCHES
from repro.uarch.tables import _RULES, supported_on


def test_catalog_size(db):
    # The paper characterizes 1836 (NHM) to 3119 (SKL+) variants; the
    # catalog must be in the same order of magnitude.
    assert len(db) > 1500


def test_no_duplicate_uids():
    forms = build_catalog()
    counts = Counter(f.uid for f in forms)
    duplicates = [uid for uid, n in counts.items() if n > 1]
    assert not duplicates


def uncovered_categories(database):
    """Categories of *database* without a table rule (``build_entry``
    would raise ``KeyError`` for every form in them)."""
    categories = {f.category for f in database}
    return sorted(categories - set(_RULES) - {"unsupported"})


def test_every_category_has_a_table_rule(db):
    assert uncovered_categories(db) == []


def test_uncovered_category_is_caught(db):
    weird = dataclasses.replace(
        db.by_uid("ADD_R64_R64"), category="uncovered_cat"
    )
    assert uncovered_categories(InstructionDatabase([weird])) == [
        "uncovered_cat"
    ]


def test_widths_expanded(db):
    for width in (8, 16, 32, 64):
        assert f"ADD_R{width}_R{width}" in db


def test_immediate_width_variants(db):
    # Section 8: immediates of different lengths are distinguished.
    assert "ADD_R64_I8" in db
    assert "ADD_R64_I32" in db


def test_memory_shapes(db):
    for uid in ("ADD_R64_M64", "ADD_M64_R64", "ADD_M64_I8"):
        assert uid in db


def test_implicit_operands_modeled(db):
    mul = db.by_uid("MUL_R64")
    implicit = [s for s in mul.operands if s.implicit]
    assert {s.fixed for s in implicit} == {"RAX", "RDX"}


def test_zero_idiom_attributes(db):
    assert db.by_uid("XOR_R64_R64").has_attribute(ATTR_ZERO_IDIOM)
    assert db.by_uid("PXOR_XMM_XMM").has_attribute(ATTR_ZERO_IDIOM)
    assert db.by_uid("SUB_R64_R64").has_attribute(ATTR_DEP_BREAKING)
    # PCMPGT is deliberately NOT marked: its dependency breaking is a
    # discovery of the tool (Section 7.3.6).
    assert not db.by_uid("PCMPGTB_XMM_XMM").has_attribute(
        ATTR_DEP_BREAKING
    )


def test_move_attribute(db):
    assert db.by_uid("MOV_R64_R64").has_attribute(ATTR_MOVE)
    assert not db.by_uid("MOVSX_R64_R16").has_attribute(ATTR_MOVE)


def test_condition_code_coverage(db):
    cmovs = {f.mnemonic for f in db if f.mnemonic.startswith("CMOV")}
    assert len(cmovs) == 16
    sets = {f.mnemonic for f in db if f.mnemonic.startswith("SET")}
    assert len(sets) == 16


def test_case_study_forms_present(db):
    for uid in (
        "AESDEC_XMM_XMM",
        "SHLD_R64_R64_I8",
        "MOVQ2DQ_XMM_MM",
        "MOVDQ2Q_MM_XMM",
        "PBLENDVB_XMM_XMM",
        "VHADDPD_XMM_XMM_XMM",
        "BSWAP_R32",
        "BSWAP_R64",
        "CMC",
        "VPBLENDVB_XMM_XMM_XMM_XMM",
        "VPCMPGTB_XMM_XMM_XMM",
        "MPSADBW_XMM_XMM_I8",
    ):
        assert uid in db, uid


def test_extension_availability_monotonic(db):
    """Newer generations support everything older ones do."""
    counts = []
    for uarch in ALL_UARCHES:
        counts.append(sum(1 for f in db if supported_on(f, uarch)))
    assert counts == sorted(counts)
    assert counts[0] >= 1000  # Nehalem
    assert counts[-1] >= counts[0]


def test_avx_forms_are_three_operand(db):
    form = db.by_uid("VADDPS_XMM_XMM_XMM")
    specs = form.explicit_operands
    assert len(specs) == 3
    assert specs[0].written and not specs[0].read
    assert specs[1].read and not specs[1].written


def test_blendv_implicit_xmm0(db):
    form = db.by_uid("PBLENDVB_XMM_XMM")
    implicit = [s for s in form.operands if s.implicit]
    assert len(implicit) == 1
    assert implicit[0].fixed == "XMM0"


def test_agen_operand_for_lea(db):
    lea = db.by_uid("LEA_R64_AGEN")
    assert lea.operands[1].kind == OperandKind.AGEN
