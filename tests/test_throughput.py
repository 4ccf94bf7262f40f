"""Throughput tests: measured (5.3.1) and LP-computed (5.3.2)."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.result import InstructionCharacterization, PortUsage
from repro.core.throughput import (
    compute_throughput_from_port_usage,
    measure_throughput,
    solve_port_assignment,
)
from repro.isa.assembler import parse_sequence
from repro.predictor import LoopAnalyzer
from tests.conftest import backend_for


def _measure(db, uid, uarch_name):
    return measure_throughput(
        db.by_uid(uid), backend_for(uarch_name), db
    )


class TestMeasured:
    def test_issue_width_bound(self, db):
        result = _measure(db, "ADD_R64_I8", "SKL")
        assert result.measured == pytest.approx(0.25, abs=0.05)

    def test_single_port_bound(self, db):
        result = _measure(db, "IMUL_R64_R64_I8", "SKL")
        assert result.measured == pytest.approx(1.0, abs=0.1)

    def test_sequence_lengths_recorded(self, db):
        result = _measure(db, "ADDPS_XMM_XMM", "SKL")
        assert set(result.by_sequence_length) == {1, 2, 4, 8}
        # Length-1 sequences chain with themselves: slower than length-8.
        assert result.by_sequence_length[1] >= \
            result.by_sequence_length[8]

    def test_implicit_dependency_cmc(self, db):
        """Section 7.2: CMC measures 1 cycle on hardware (carry-flag
        dependency), although its port usage alone would allow 0.25."""
        result = _measure(db, "CMC", "SKL")
        assert result.measured_same_kind == pytest.approx(1.0, abs=0.1)

    def test_divider_value_dependence(self, db):
        result = _measure(db, "DIV_R64", "SKL")
        assert result.measured_fast_values is not None
        assert result.measured_fast_values < result.measured

    def test_divider_not_pipelined(self, db):
        result = _measure(db, "DIVPS_XMM_XMM", "SKL")
        assert result.measured > 1.5  # occupancy-bound


class TestComputedFromPorts:
    def test_single_uop_fraction(self):
        usage = PortUsage({frozenset({0, 1, 5, 6}): 1})
        assert compute_throughput_from_port_usage(
            usage, range(8)
        ) == pytest.approx(0.25)

    def test_paper_example_adc(self):
        # 1*p0156 + 1*p06: optimum 0.5 on ports {0,6}... actually the
        # p0156 µop can move to 1/5, so max load is 0.5.
        usage = PortUsage(
            {frozenset({0, 1, 5, 6}): 1, frozenset({0, 6}): 1}
        )
        assert compute_throughput_from_port_usage(
            usage, range(8)
        ) == pytest.approx(0.5)

    def test_store_structure(self):
        usage = PortUsage(
            {frozenset({2, 3, 7}): 1, frozenset({4}): 1}
        )
        assert compute_throughput_from_port_usage(
            usage, range(8)
        ) == pytest.approx(1.0)

    def test_empty_usage(self):
        assert compute_throughput_from_port_usage(
            PortUsage({}), range(8)
        ) is None

    def test_agreement_with_measurement_for_port_bound(self, db):
        """For instructions without implicit dependencies and without
        divider µops, Intel-style and Fog-style throughput coincide."""
        from repro.core.port_usage import infer_port_usage
        from tests.conftest import blocking_for

        backend = backend_for("SKL")
        blocking = blocking_for("SKL", db)
        for uid in ("PADDB_XMM_XMM", "MULPS_XMM_XMM",
                    "PSHUFD_XMM_XMM_I8"):
            form = db.by_uid(uid)
            usage = infer_port_usage(form, backend, blocking)
            computed = compute_throughput_from_port_usage(
                usage, backend.uarch.ports
            )
            measured = measure_throughput(form, backend, db).measured
            assert computed == pytest.approx(measured, abs=0.15), uid


@st.composite
def _port_usages(draw):
    n_combos = draw(st.integers(1, 4))
    counts = {}
    for _ in range(n_combos):
        ports = draw(
            st.frozensets(st.integers(0, 7), min_size=1, max_size=4)
        )
        counts[ports] = counts.get(ports, 0) + draw(st.integers(1, 3))
    return PortUsage(counts)


class TestLpProperties:
    @settings(max_examples=60, deadline=None)
    @given(usage=_port_usages())
    def test_lp_bounds(self, usage):
        """z is at least total/|ports| and at least the tightest
        single-combination bound mu/|pc|."""
        z = compute_throughput_from_port_usage(usage, range(8))
        assert z is not None
        assert z >= usage.total_uops / 8 - 1e-6
        for pc, mu in usage.counts.items():
            assert z >= mu / len(pc) - 1e-6

    @settings(max_examples=60, deadline=None)
    @given(usage=_port_usages())
    def test_assignment_is_consistent(self, usage):
        """The loads are an optimal assignment: non-negative, summing
        to the µop total, peaking at z, and zero on unused ports."""
        z, loads = solve_port_assignment(dict(usage.counts), range(8))
        used = frozenset().union(*usage.counts)
        assert set(loads) == set(range(8))
        assert all(load >= 0 for load in loads.values())
        assert sum(loads.values()) == pytest.approx(usage.total_uops,
                                                    abs=1e-9)
        assert max(loads.values()) == z
        assert all(loads[p] == 0 for p in range(8) if p not in used)

    @settings(max_examples=40, deadline=None)
    @given(usage=_port_usages(), data=st.data())
    def test_monotone_in_uops(self, usage, data):
        """Adding µops never decreases the computed throughput."""
        z1 = compute_throughput_from_port_usage(usage, range(8))
        pc = data.draw(st.sampled_from(sorted(usage.counts,
                                              key=sorted)))
        more = dict(usage.counts)
        more[pc] = more[pc] + 1
        z2 = compute_throughput_from_port_usage(PortUsage(more),
                                                range(8))
        assert z2 >= z1 - 1e-6


def _highs(counts, ports):
    """The LP of Section 5.3.2 as HiGHS solves it: ``min z`` over the
    per-(combination, port) shares, every port's load at most ``z``."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    combos = list(counts.items())
    shares = [(c, p) for c, (pc, _mu) in enumerate(combos) for p in pc]
    width = len(shares) + 1
    a_eq = [
        [1.0 if c == k else 0.0 for k, _p in shares] + [0.0]
        for c in range(len(combos))
    ]
    a_ub = [
        [1.0 if q == port else 0.0 for _k, q in shares] + [-1.0]
        for port in ports
    ]
    result = linprog(
        [0.0] * (width - 1) + [1.0],
        A_ub=a_ub, b_ub=[0.0] * len(a_ub),
        A_eq=a_eq, b_eq=[float(mu) for _pc, mu in combos],
        bounds=[(0, None)] * width, method="highs",
    )
    assert result.success
    return float(result.x[-1])


class TestBottleneckBound:
    """The exact bound against HiGHS, and the balanced loads."""

    @settings(max_examples=150, deadline=None)
    @given(usage=_port_usages())
    def test_matches_highs(self, usage):
        z, _loads = solve_port_assignment(dict(usage.counts), range(8))
        reference = _highs(dict(usage.counts), range(8))
        assert abs(z - reference) <= 1e-9
        assert f"{z:.2f}" == f"{reference:.2f}"

    def test_bound_is_exact(self):
        # 3*p01 + 1*p015: {0, 1} carries 3 µops on 2 ports; the p015
        # µop can only relieve them by going to port 5.
        counts = {
            frozenset({0, 1}): 3,
            frozenset({0, 1, 5}): 1,
        }
        z, loads = solve_port_assignment(counts, range(8))
        assert Fraction(z) == Fraction(3, 2)
        assert loads == {0: 1.5, 1: 1.5, 5: 1.0,
                         2: 0.0, 3: 0.0, 4: 0.0, 6: 0.0, 7: 0.0}

    def test_port_pressure_is_the_balanced_optimum(self, db):
        """The optimum is not unique here (the p0156 µop may go to any
        port with slack); the analyzer reports the balanced one, the
        same for any instruction order."""
        uarch = backend_for("SKL").uarch
        usages = {
            "ADD_R64_R64": {frozenset({0, 1, 5, 6}): 1},
            "IMUL_R64_R64": {frozenset({1}): 1},
            "PSHUFD_XMM_XMM_I8": {frozenset({5}): 1},
        }
        results = {
            uid: InstructionCharacterization(
                uid, "SKL", 1, port_usage=PortUsage(counts)
            )
            for uid, counts in usages.items()
        }
        text = ["ADD RAX, RBX", "IMUL RCX, RDX", "PSHUFD XMM0, XMM1, 0"]
        expected = {0: 0.5, 1: 1.0, 5: 1.0, 6: 0.5,
                    2: 0.0, 3: 0.0, 4: 0.0, 7: 0.0}
        for lines in (text, text[::-1]):
            analyzer = LoopAnalyzer(results, uarch)
            analysis = analyzer.analyze(
                parse_sequence("\n".join(lines), db)
            )
            assert analysis.port_bound == 1.0
            assert analysis.port_pressure == expected
