"""Ground-truth table tests: every case study's µop decomposition, and
structural invariants over all (form, generation) pairs.

The consistency checks over the tables themselves live here as plain
tests: ports inside the machine, divider classes that resolve, store
units and IACA versions (category coverage is in
``tests/test_catalog.py``).  Each check is a function returning its
findings, so ``TestSeededViolations`` can feed it a deliberately broken
generation or entry and watch it fail.
"""

import dataclasses
from itertools import chain

import pytest

from repro.core.blocking import _find_store_blocker, _is_candidate
from repro.iaca.analyzer import ALL_VERSIONS
from repro.pipeline.core import Core
from repro.uarch.configs import ALL_UARCHES, SKYLAKE, get_uarch
from repro.uarch.tables import build_entry, supported_on
from repro.uarch.uops import KIND_LOAD, KIND_STORE_ADDR, KIND_STORE_DATA


def ghost_ports(uarch, entries=()):
    """Ports named by *uarch*'s functional-unit map or by the ``uops``
    and ``same_reg_uops`` of *entries* (``(form, entry)`` pairs) that
    the generation does not have."""
    ports = set(uarch.ports)
    found = [
        (uarch.name, unit, sorted(unit_ports - ports))
        for unit, unit_ports in sorted(uarch.fu_map.items())
        if not unit_ports <= ports
    ]
    for form, entry in entries:
        for uop in chain(entry.uops, entry.same_reg_uops or ()):
            if not uop.ports <= ports:
                found.append((uarch.name, form.uid, sorted(uop.ports - ports)))
    return found


def unresolved_divider_classes(uarch, entries):
    """Entries whose divider µops have no value class, or whose class
    :meth:`~repro.uarch.model.UarchConfig.divider_timing` rejects."""
    found = []
    for form, entry in entries:
        if entry.divider_class is None:
            if any(
                uop.divider_cycles > 0
                for uop in chain(entry.uops, entry.same_reg_uops or ())
            ):
                found.append((uarch.name, form.uid, None))
            continue
        try:
            uarch.divider_timing(entry.divider_class)
        except KeyError:
            found.append((uarch.name, form.uid, entry.divider_class))
    return found


def missing_store_units(uarch):
    return [
        unit for unit in ("store_addr", "store_data")
        if unit not in uarch.fu_map
    ]


def unknown_iaca_versions(uarch):
    return [v for v in uarch.iaca_versions if v not in ALL_VERSIONS]


def _usage(db, uid, uarch_name):
    entry = build_entry(db.by_uid(uid), get_uarch(uarch_name))
    assert entry is not None
    return {
        tuple(sorted(ports)): count
        for ports, count in entry.port_usage().items()
    }


class TestCaseStudyGroundTruth:
    def test_aesdec_across_generations(self, db):
        # Section 7.3.1.
        assert len(build_entry(db.by_uid("AESDEC_XMM_XMM"),
                               get_uarch("WSM")).uops) == 3
        assert len(build_entry(db.by_uid("AESDEC_XMM_XMM"),
                               get_uarch("SNB")).uops) == 2
        assert len(build_entry(db.by_uid("AESDEC_XMM_XMM"),
                               get_uarch("HSW")).uops) == 1
        assert _usage(db, "AESDEC_XMM_XMM", "HSW") == {(5,): 1}
        assert _usage(db, "AESDEC_XMM_XMM", "SKL") == {(0,): 1}

    def test_aesdec_not_on_nehalem(self, db):
        assert build_entry(db.by_uid("AESDEC_XMM_XMM"),
                           get_uarch("NHM")) is None

    def test_pblendvb_nehalem(self, db):
        # Section 5.1: 2*p05, indistinguishable from 1*p0+1*p5 in
        # isolation.
        assert _usage(db, "PBLENDVB_XMM_XMM", "NHM") == {(0, 5): 2}

    def test_adc_haswell(self, db):
        # Section 5.1: 1*p0156 + 1*p06, not 2*p0156.
        assert _usage(db, "ADC_R64_R64", "HSW") == {
            (0, 1, 5, 6): 1,
            (0, 6): 1,
        }

    def test_movq2dq_skylake(self, db):
        assert _usage(db, "MOVQ2DQ_XMM_MM", "SKL") == {
            (0,): 1,
            (0, 1, 5): 1,
        }

    def test_movdq2q(self, db):
        assert _usage(db, "MOVDQ2Q_MM_XMM", "HSW") == {
            (5,): 1,
            (0, 1, 5): 1,
        }
        assert _usage(db, "MOVDQ2Q_MM_XMM", "SNB") == {
            (0, 1, 5): 1,
            (5,): 1,
        }

    def test_bswap_variants_skylake(self, db):
        assert len(build_entry(db.by_uid("BSWAP_R32"),
                               get_uarch("SKL")).uops) == 1
        assert len(build_entry(db.by_uid("BSWAP_R64"),
                               get_uarch("SKL")).uops) == 2

    def test_vhaddpd_skylake(self, db):
        assert _usage(db, "VHADDPD_XMM_XMM_XMM", "SKL") == {
            (0, 1): 1,
            (5,): 2,
        }

    def test_shld_same_register_only_on_skl_family(self, db):
        form = db.by_uid("SHLD_R64_R64_I8")
        assert build_entry(form, get_uarch("SKL")).same_reg_uops \
            is not None
        assert build_entry(form, get_uarch("NHM")).same_reg_uops is None

    def test_zero_idiom_flags(self, db):
        xor = db.by_uid("XOR_R64_R64")
        nhm = build_entry(xor, get_uarch("NHM"))
        skl = build_entry(xor, get_uarch("SKL"))
        assert nhm.zero_idiom and not nhm.zero_idiom_eliminated
        assert skl.zero_idiom and skl.zero_idiom_eliminated

    def test_pcmpgt_dep_breaking(self, db):
        entry = build_entry(db.by_uid("PCMPGTB_XMM_XMM"),
                            get_uarch("SKL"))
        assert entry.dep_breaking
        assert not entry.zero_idiom

    def test_divider_classes(self, db):
        assert build_entry(db.by_uid("DIV_R64"),
                           get_uarch("SKL")).divider_class == "int_div"
        assert build_entry(db.by_uid("DIVPS_XMM_XMM"),
                           get_uarch("SKL")).divider_class == "fp_div"
        assert build_entry(db.by_uid("SQRTPS_XMM_XMM"),
                           get_uarch("SKL")).divider_class == "fp_sqrt"

    def test_unsupported_forms_have_no_entry(self, db):
        assert build_entry(db.by_uid("UD2"), get_uarch("SKL")) is None


class TestStructuralInvariants:
    @pytest.fixture(scope="class")
    def all_entries(self, db):
        entries = []
        for uarch in ALL_UARCHES:
            for form in db:
                entry = build_entry(form, uarch)
                if entry is not None:
                    entries.append((uarch, form, entry))
        return entries

    @pytest.fixture(scope="class")
    def entries_by_uarch(self, all_entries):
        """``(uarch, [(form, entry), ...])`` for every generation."""
        return [
            (uarch, [(form, entry) for u, form, entry in all_entries
                     if u is uarch])
            for uarch in ALL_UARCHES
        ]

    def test_every_supported_form_builds(self, db):
        for uarch in ALL_UARCHES:
            for form in db:
                if supported_on(form, uarch) and \
                        not form.has_attribute("unsupported"):
                    assert build_entry(form, uarch) is not None, (
                        form.uid, uarch.name
                    )

    def test_ports_within_machine(self, entries_by_uarch):
        for uarch, pairs in entries_by_uarch:
            assert ghost_ports(uarch, pairs) == []

    def test_divider_classes_resolve(self, entries_by_uarch):
        for uarch, pairs in entries_by_uarch:
            assert unresolved_divider_classes(uarch, pairs) == []

    def test_memory_forms_have_memory_uops(self, all_entries):
        for uarch, form, entry in all_entries:
            kinds = {u.kind for u in entry.uops}
            if form.reads_memory:
                assert KIND_LOAD in kinds, (form.uid, uarch.name)
            if form.writes_memory:
                assert KIND_STORE_DATA in kinds, (form.uid, uarch.name)
                assert KIND_STORE_ADDR in kinds, (form.uid, uarch.name)

    def test_uop_refs_well_formed(self, all_entries):
        for uarch, form, entry in all_entries:
            for index, uop in enumerate(entry.uops):
                for ref in uop.inputs:
                    if ref[0] == "uop":
                        assert 0 <= ref[1] < index, (form.uid, uarch.name)
                    if ref[0] == "op":
                        assert 0 <= ref[1] < len(form.operands)
                for ref in uop.outputs:
                    assert ref[0] != "uop"

    def test_latencies_positive(self, all_entries):
        for uarch, form, entry in all_entries:
            for uop in entry.uops:
                assert uop.latency >= 0
                for lat in uop.output_latencies.values():
                    assert lat >= 0


class TestBlockingFeasibility:
    """Section 5.1.1's assumption: every functional-unit port combination
    (except the store units) has a 1-µop instruction using exactly it."""

    @pytest.mark.parametrize("uarch", ALL_UARCHES, ids=lambda u: u.name)
    def test_one_uop_instruction_per_combination(self, db, uarch):
        single_uop_combos = set()
        for form in db:
            if form.has_attribute("unsupported"):
                continue
            entry = build_entry(form, uarch)
            if entry is None or len(entry.uops) != 1:
                continue
            if any(a in form.attributes
                   for a in ("system", "serializing", "control_flow",
                             "pause", "move", "zero_idiom")):
                continue
            uop = entry.uops[0]
            if uop.ports and uop.divider_cycles == 0:
                single_uop_combos.add(uop.ports)
        store_addr = uarch.fu_ports("store_addr")
        store_data = uarch.fu_ports("store_data")
        for combination in uarch.port_combinations():
            if combination in (store_addr, store_data):
                continue
            assert combination in single_uop_combos, (
                uarch.name,
                sorted(combination),
            )

    def test_discovery_prerequisites(self, db):
        """Every generation places the store units, the catalog has a
        MOV store blocker, and some form qualifies as a candidate."""
        for uarch in ALL_UARCHES:
            assert missing_store_units(uarch) == [], uarch.name
        assert _find_store_blocker(db, None) is not None
        assert any(_is_candidate(form) for form in db)


def _outcome(call):
    """*call*'s result, or the type and message of what it raised."""
    try:
        return call()
    except Exception as error:
        return type(error), str(error)


class TestSupportWithoutEntry:
    """``Core.supports`` decides support without building the entry and
    agrees with ``build_entry(...) is not None`` everywhere."""

    @pytest.mark.parametrize("uarch", ALL_UARCHES, ids=lambda u: u.name)
    def test_supports_matches_build_entry(self, db, uarch):
        core = Core(uarch)
        for form in db:
            assert _outcome(lambda: core.supports(form)) == _outcome(
                lambda: build_entry(form, uarch) is not None
            ), (uarch.name, form.uid)

    def test_category_without_rule_raises_alike(self, db):
        form = dataclasses.replace(
            db.by_uid("ADD_R64_R64"), category="no_such_category"
        )
        core = Core(SKYLAKE)
        supported = _outcome(lambda: core.supports(form))
        assert supported[0] is KeyError
        assert supported == _outcome(lambda: build_entry(form, SKYLAKE))


class TestUarchConfigs:
    def test_nine_generations(self):
        assert len(ALL_UARCHES) == 9
        assert [u.name for u in ALL_UARCHES] == [
            "NHM", "WSM", "SNB", "IVB", "HSW", "BDW", "SKL", "KBL", "CFL",
        ]

    def test_port_counts(self):
        for uarch in ALL_UARCHES:
            expected = 6 if uarch.name in ("NHM", "WSM", "SNB", "IVB") \
                else 8
            assert len(uarch.ports) == expected

    def test_iaca_versions_match_table1(self):
        versions = {u.name: u.iaca_versions for u in ALL_UARCHES}
        assert versions["NHM"] == ("2.1", "2.2")
        assert versions["SNB"] == ("2.1", "2.2", "2.3")
        assert versions["HSW"] == ("2.1", "2.2", "2.3", "3.0")
        assert versions["BDW"] == ("2.2", "2.3", "3.0")
        assert versions["SKL"] == ("2.3", "3.0")
        assert versions["KBL"] == ()
        assert versions["CFL"] == ()
        for uarch in ALL_UARCHES:
            assert unknown_iaca_versions(uarch) == [], uarch.name

    def test_lookup_by_any_name(self):
        assert get_uarch("skylake").name == "SKL"
        assert get_uarch("Sandy Bridge").name == "SNB"
        with pytest.raises(KeyError):
            get_uarch("Zen2")


class TestSeededViolations:
    """Each consistency check above fails on a deliberately broken
    generation or entry."""

    def test_fake_port_in_fu_map(self):
        fu_map = dict(SKYLAKE.fu_map)
        fu_map["int_alu"] = frozenset(fu_map["int_alu"] | {9})
        fake = dataclasses.replace(SKYLAKE, fu_map=fu_map)
        assert ghost_ports(fake) == [("SKL", "int_alu", [9])]

    @pytest.mark.parametrize("field", ["uops", "same_reg_uops"])
    def test_fake_port_in_a_built_uop(self, db, field):
        form = db.by_uid("SHLD_R64_R64_I8")
        entry = build_entry(form, SKYLAKE)
        first, *rest = getattr(entry, field)
        seeded = dataclasses.replace(
            entry,
            **{field: (dataclasses.replace(first, ports=frozenset({9})),
                       *rest)},
        )
        assert ghost_ports(SKYLAKE, [(form, seeded)]) == [
            ("SKL", form.uid, [9])
        ]

    def test_missing_store_unit(self):
        fu_map = dict(SKYLAKE.fu_map)
        del fu_map["store_data"]
        fake = dataclasses.replace(SKYLAKE, fu_map=fu_map)
        assert missing_store_units(fake) == ["store_data"]

    def test_unknown_iaca_version(self):
        fake = dataclasses.replace(SKYLAKE, iaca_versions=("9.9",))
        assert unknown_iaca_versions(fake) == ["9.9"]

    @pytest.mark.parametrize("divider_class", [None, "fp_rcp"])
    def test_divider_uop_without_a_resolvable_class(self, db,
                                                    divider_class):
        form = db.by_uid("DIV_R64")
        entry = build_entry(form, SKYLAKE)
        seeded = dataclasses.replace(entry, divider_class=divider_class)
        assert unresolved_divider_classes(SKYLAKE, [(form, seeded)]) == [
            ("SKL", form.uid, divider_class)
        ]
