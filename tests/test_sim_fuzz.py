"""Cross-kernel differential fuzz harness (generative tier equivalence).

The two timing tiers — the analytic closed form
(:mod:`repro.pipeline.analytic`) and the seed per-cycle reference loop
(``Core._timing_reference``, also the closed form's fallback on a
divider reorder) — claim **bit-identical** ``CounterValues``.  The
kernel-level strategies time fresh copies of each drawn stream with the
closed form directly, the default ``_timing`` and the reference loop,
and the measure-level strategies compare the default ladder against
``kernel="reference"``.  The fixed-uid sampling in
``test_sim_differential.py`` pins the claim on catalog slices; this
module promotes it to generative coverage with Hypothesis strategies
over

* synthetic renamed µop streams (random port sets, latencies 1–30,
  portless/load/store µops, divider occupancy, dependency DAGs), long
  streams that fill the reservation station and the ROB, and divider
  µops spread over several ports with idle divider gaps — plus the
  prefix property the measurement ladder reads unroll targets by, and
  the steady-state proof it stops scheduling at: each strategy's stream
  played as a loop body (and a loop whose reservation station fills
  slowly), every copy after a proved period equal to the copy a period
  earlier,
* synthetic instruction forms (1–4 µops per instruction, random port
  sets and latencies, divider value classes) injected into the ground
  truth entry cache, and
* real-catalog experiment bodies (chains, parallel mixes, blocking-style
  bodies) through the full measure path, and
* real-catalog store bodies whose copies share one address, use
  distinct addresses, reload the stored address, or move it every copy,
* real-catalog divider bodies whose operand values arrive through
  arithmetic, flag-fed conditional moves and sets, partial registers,
  and a store/reload at the divider's memory operand — checking the
  closed form's slice-only value classes against full emulation too,
* real-catalog stack bodies (``PUSH``/``POP``/``CALL``/``RET`` mixes)
  and pointer chases (a written base register, a load into the base):
  the shapes whose addresses move between copies, which the closed form
  declines to full simulation,

asserting exact equality across all tiers on SKL and NHM.

Budget: ``REPRO_FUZZ_EXAMPLES`` scales every strategy (default 100 →
100 + 25 + 50 + 25 + 25 + 100 + 80 + 34 + 34 + 34 + 34 + 34 = 575
generated cases per microarchitecture; the CI ``sim-fuzz`` job raises
it).  Failures
print a ``@reproduce_failure`` blob (``print_blob``); run CI with
``--hypothesis-seed=random`` so the seed itself is printed too.
"""

from __future__ import annotations

import os
import random

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro.core.codegen import independent_sequence, instantiate
from repro.isa.assembler import parse_sequence
from repro.isa.database import load_default_database
from repro.isa.operands import Memory
from repro.measure.backend import HardwareBackend, MeasurementConfig
from repro.measure.extrapolate import (
    _divider_classes,
    _extrapolated_counters,
    _fixed_addresses,
    _prefix_counters,
)
from repro.pipeline.analytic import (
    encode_uops,
    schedule_analytic,
)
from repro.pipeline import core as core_module
from repro.pipeline.core import (
    Core,
    _RUop,
    divider_operands_fast,
    split_accesses,
)
from repro.pipeline.semantics import evaluate
from repro.pipeline.state import MachineState
from repro.uarch.configs import get_uarch
from repro.uarch.uops import (
    KIND_ALU,
    KIND_LOAD,
    KIND_STORE_ADDR,
    KIND_STORE_DATA,
    UarchEntry,
    UopSpec,
)

from tests.test_sim_differential import (
    assert_identical,
    assert_tiers_agree,
    closed_form,
)

DATABASE = load_default_database()

UARCH_NAMES = ["SKL", "NHM"]

#: Example budget per strategy; the CI sim-fuzz job raises this.
_BUDGET = int(os.environ.get("REPRO_FUZZ_EXAMPLES", "100"))

_SETTINGS = dict(
    deadline=None,
    print_blob=True,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.data_too_large,
        HealthCheck.filter_too_much,
    ],
)


# ----------------------------------------------------------------------
# Strategy 1: synthetic renamed µop streams, straight into the kernels.
# ----------------------------------------------------------------------

@st.composite
def stream_plans(draw, port_pool):
    """A plan for a renamed µop stream: per µop
    ``(ports, latency, kind, divider_cycles, min_issue, deps)`` where
    deps are ``(producer index | None, offset)`` pairs on older µops.
    """
    n = draw(st.integers(min_value=1, max_value=24))
    max_set = min(3, len(port_pool))
    plan = []
    min_issue = 0
    for i in range(n):
        if draw(st.integers(0, 7)) == 0:
            ports = ()  # portless: NOP / eliminated µop
        else:
            ports = tuple(sorted(draw(st.sets(
                st.sampled_from(port_pool), min_size=1, max_size=max_set
            ))))
        latency = draw(st.integers(1, 30))
        kind = draw(st.sampled_from(
            (KIND_ALU,) * 5 + (KIND_LOAD, KIND_STORE_ADDR, KIND_STORE_DATA)
        ))
        divider = draw(st.sampled_from((0,) * 8 + (5, 12, 25, 40)))
        # The rename stage only ever emits non-decreasing min_issue
        # (frontend release / decode cycles are monotone).
        min_issue += draw(st.sampled_from((0,) * 6 + (1, 2, 3)))
        deps = []
        for _ in range(draw(st.integers(0, min(i, 3)))):
            deps.append((
                draw(st.integers(0, i - 1)),
                draw(st.integers(0, 30)),
            ))
        if draw(st.integers(0, 9)) == 0:
            # Constant-ready input (serialization / architectural state).
            deps.append((None, draw(st.integers(0, 12))))
        plan.append((ports, latency, kind, divider, min_issue, tuple(deps)))
    return tuple(plan)


@st.composite
def long_stream_plans(draw, port_pool):
    """A 50–400 µop plan that fills the reservation station and the ROB.

    A *spine* of long-latency µops, each dependent on the previous one,
    holds retirement back: the µops hung off it fill the reservation
    station, the ready ones between spine µops fill the ROB.  The rest
    mixes ready work with short chains.
    The shape parameters are drawn, the µops themselves come from a
    seeded generator (a 400-µop plan drawn field by field would exceed
    Hypothesis' buffer).
    """
    rng = random.Random(draw(st.integers(0, 2**32 - 1), label="seed"))
    if draw(st.booleans(), label="fill the ROB"):
        # Mostly ready µops behind a slow spine: the ROB fills first.
        n = draw(st.integers(250, 400), label="uops")
        spine_every = draw(st.sampled_from((16, 32)), label="spine")
        spine_latency = draw(st.integers(40, 60), label="spine latency")
        hung = 0.0
    else:
        n = draw(st.integers(50, 400), label="uops")
        spine_every = draw(st.sampled_from((2, 4, 8)), label="spine")
        spine_latency = draw(st.integers(5, 60), label="spine latency")
        hung = draw(st.sampled_from((0.2, 0.5, 0.8)), label="hung")
    divider_share = draw(st.sampled_from((0.0, 0.0, 0.02, 0.1)))
    plan = []
    min_issue = 0
    spine = None
    for i in range(n):
        ports = () if rng.random() < 0.08 else tuple(sorted(rng.sample(
            port_pool, rng.randint(1, min(3, len(port_pool)))
        )))
        deps = []
        if i % spine_every == 0:
            latency = spine_latency
            if spine is not None:
                deps.append((spine, spine_latency))
            spine = i
        else:
            latency = rng.choice((1, 1, 1, 3, 4, 5))
            if spine is not None and rng.random() < hung:
                deps.append((spine, spine_latency))
            if i and rng.random() < 0.3:
                deps.append((rng.randint(max(0, i - 8), i - 1),
                             rng.randint(0, 5)))
        divider = (
            rng.choice((5, 12, 25)) if ports and rng.random() < divider_share
            else 0
        )
        min_issue += rng.choice((0,) * 14 + (1, 4))
        plan.append((ports, latency, KIND_ALU, divider, min_issue,
                     tuple(deps)))
    return tuple(plan)


@st.composite
def divider_port_plans(draw, port_pool):
    """A plan whose divider µops sit on different ports, with idle
    divider gaps: the cases the recurrence's reorder test must catch.

    Divider µops take one of two or three single ports or a set of
    them; front-end stalls and long input latencies leave the divider
    idle between them, and ready and waiting divider µops interleave.
    """
    n = draw(st.integers(2, 30))
    divider_ports = draw(st.lists(
        st.sampled_from(port_pool), min_size=2, max_size=3, unique=True
    ))
    plan = []
    min_issue = 0
    for i in range(n):
        is_divider = draw(st.integers(0, 2)) > 0
        if is_divider:
            ports = tuple(sorted(draw(st.sets(
                st.sampled_from(divider_ports), min_size=1, max_size=2
            ))))
            divider = draw(st.sampled_from((1, 2, 5, 12)))
        else:
            ports = tuple(sorted(draw(st.sets(
                st.sampled_from(port_pool), min_size=0, max_size=2
            ))))
            divider = 0
        latency = draw(st.sampled_from((1, 3, 5, 12, 25)))
        min_issue += draw(st.sampled_from((0, 0, 0, 1, 6, 20)))
        deps = []
        if i and draw(st.booleans()):
            deps.append((draw(st.integers(0, i - 1)),
                         draw(st.sampled_from((0, 1, 10, 30)))))
        plan.append((ports, latency, KIND_ALU, divider, min_issue,
                     tuple(deps)))
    return tuple(plan)


def _any_stream_plans(port_pool):
    """Any of the three synthetic stream strategies, dividers included."""
    return st.one_of(
        stream_plans(port_pool),
        long_stream_plans(port_pool),
        divider_port_plans(port_pool),
    )


def _draw_cuts(data, n):
    """Sorted cut points that split ``n`` µops into 1–16 segments, the
    last cut at ``n``; a segment may be empty."""
    inner = data.draw(st.lists(st.integers(0, n), max_size=15), label="cuts")
    return sorted(inner) + [n]


def _segments(uops, cuts):
    """The stream cut at *cuts*, one template per segment: ages reach
    across segments, as they reach across the copies of a block, and
    each later segment's ``min_issue`` is relative to the front-end
    release the segments before it add up to (its first µop's)."""
    for index, uop in enumerate(uops):
        uop.index = index
    starts = [0] + cuts[:-1]
    bases = [0] + [
        uops[min(start, len(uops) - 1)].min_issue for start in starts[1:]
    ]
    deltas = [b - a for a, b in zip(bases, bases[1:])] + [0]
    return [
        (encode_uops(uops[start:end], base), delta, 0)
        for start, end, base, delta in zip(starts, cuts, bases, deltas)
    ]


def build_stream(plan):
    """Materialize a plan as fresh ``_RUop`` objects with deps wired."""
    uops = []
    for ports, latency, kind, divider, min_issue, _deps in plan:
        uop = _RUop(frozenset(ports), latency, kind, divider)
        uop.min_issue = min_issue
        uops.append(uop)
    for uop, (*_fields, deps) in zip(uops, plan):
        for producer, offset in deps:
            uop.deps.append(
                (None if producer is None else uops[producer], offset)
            )
    return uops


@st.composite
def rs_fill_plans(draw, port_pool):
    """One iteration of a loop with a long transient, and its carried
    dependency: a spine µop of latency 8–60 reads the previous
    iteration's spine, and the iteration's other µops hang off the spine
    or are ready at once.  Issue runs ahead of the spine until the
    reservation station (or the ROB) is full, so the finish delta of
    every copy is the spine latency long before the schedule is
    periodic."""
    n = draw(st.integers(2, 24), label="uops")
    hung = draw(st.integers(1, n - 1), label="hung")
    plan = [(
        tuple(sorted(draw(st.sets(
            st.sampled_from(port_pool), min_size=1, max_size=2
        ), label="spine ports"))),
        draw(st.integers(8, 60), label="spine latency"),
        KIND_ALU, 0, 0, (),
    )]
    for i in range(1, n):
        ports = tuple(sorted(draw(st.sets(
            st.sampled_from(port_pool), min_size=0, max_size=3
        ), label="ports")))
        deps = ((0, plan[0][1]),) if i <= hung else ()
        plan.append((ports, draw(st.sampled_from((1, 1, 3, 5))), KIND_ALU,
                     0, 0, deps))
    return tuple(plan), ((0, 0, plan[0][1]),)


@st.composite
def small_loop_plans(draw, port_pool):
    """A 1–9 µop loop iteration: few ports, independent long-latency
    µops beside short chains, so retire comes in waves the dispatch
    pattern does not show."""
    plan = []
    min_issue = 0
    for i in range(draw(st.integers(1, 9), label="uops")):
        ports = () if draw(st.integers(0, 9)) < 3 else tuple(sorted(draw(
            st.sets(st.sampled_from(port_pool), min_size=1, max_size=2)
        )))
        deps = ()
        if i and draw(st.booleans()):
            deps = ((draw(st.integers(0, i - 1)),
                     draw(st.sampled_from((0, 1, 3, 10, 30)))),)
        min_issue += draw(st.sampled_from((0, 0, 0, 1, 2)))
        plan.append((ports, draw(st.sampled_from((1, 1, 3, 5, 20, 60))),
                     KIND_ALU, 0, min_issue, deps))
    return tuple(plan)


@st.composite
def loop_plans(draw, port_pool):
    """A stream of any synthetic strategy, or a small loop body, as one
    loop iteration, with 0–3 carried dependencies ``(consumer,
    producer, offset)`` on the previous iteration's µops."""
    plan = draw(st.one_of(
        _any_stream_plans(port_pool), small_loop_plans(port_pool)
    ), label="iteration")
    n = len(plan)
    carried = tuple(draw(st.lists(st.tuples(
        st.integers(0, n - 1), st.integers(0, n - 1), st.integers(0, 30),
    ), max_size=3), label="carried"))
    return plan, carried


def _iterations(plan, carried, stride, count, start=0):
    """*count* iterations of *plan* as one plan whose µops start at
    index *start*: iteration ``r`` issues ``r * stride`` later and
    reads, through each carried dependency, the producer of iteration
    ``r - 1``."""
    n = len(plan)
    out = []
    for r in range(count):
        base = start + r * n
        for i, (ports, latency, kind, divider, min_issue, deps) in (
            enumerate(plan)
        ):
            deps = tuple(
                (None if p is None else p + base, offset)
                for p, offset in deps
            )
            if r:
                deps += tuple(
                    (base - n + producer, offset)
                    for consumer, producer, offset in carried
                    if consumer == i
                )
            out.append(
                (ports, latency, kind, divider, min_issue + r * stride, deps)
            )
    return tuple(out)


def loop_templates(plan, carried, cuts, stride, iterations, prologue=()):
    """Templates and order of *plan* played *iterations* times.

    *cuts* split the body into copies (the last cut is ``len(plan)``).
    The templates are the *prologue*'s (played once first, if any), the
    first iteration's copies (no carried input yet) and the second's,
    and the order plays the prologue and the first iteration, then
    cycles the second's copies.  Returns ``(templates, order)``."""
    n = len(plan)
    per = len(cuts)
    head = [len(prologue)] if prologue else []
    uops = build_stream(
        prologue + _iterations(plan, carried, stride, 3, len(prologue))
    )
    templates = _segments(uops, head + [
        len(prologue) + c + r * n for r in range(3) for c in cuts
    ])[:len(head) + 2 * per]
    steady = len(head) + per
    order = list(range(steady)) + [
        steady + c % per for c in range(per * (iterations - 1))
    ]
    return templates, order


def draw_loop(data, loop):
    """:func:`loop_templates` of a drawn loop, cut into 1–4 copies per
    iteration.  An optional prologue is a burst of independent µops on
    one of the body's ports: it loads that port ahead of the others and
    holds issue back while it drains, so port gaps shrink and the
    front-end lead grows for a while."""
    plan, carried = loop
    n = len(plan)
    cuts = sorted(data.draw(
        st.lists(st.integers(0, n), max_size=3), label="cuts"
    )) + [n]
    stride = plan[-1][4] - plan[0][4] + data.draw(
        st.sampled_from((0, 0, 1, 2, 4, 8, 16, 32)), label="stride"
    )
    iterations = max(2, data.draw(
        st.sampled_from((3000, 1000, 100)), label="uops"
    ) // n)
    prologue = ()
    ports = sorted({p for step in plan for p in step[0]})
    burst = data.draw(st.sampled_from((0, 0, 40, 300, 1000)), label="burst")
    if burst and ports:
        port = data.draw(st.sampled_from(ports), label="burst port")
        prologue = (((port,), 1, KIND_ALU, 0, 0, ()),) * burst
    return loop_templates(plan, carried, cuts, stride, iterations, prologue)


def assert_proof_holds(uarch, templates, order, context):
    """The pass's proof is sound on *order*: where it stops with period
    ``p``, a pass that cannot stop (every copy its own template, so no
    two boundaries see the same order ahead) schedules the same prefix
    and then repeats, each later copy equal to the copy ``p`` earlier;
    and every target extrapolates to that pass's counters.  Returns
    the period (0 if none)."""
    proved = schedule_analytic(uarch, templates, order)
    whole = schedule_analytic(
        uarch, [templates[i] for i in order], range(len(order))
    )
    if proved is None:
        assert whole is None, f"{context}: reorder before the stop, alone"
        return 0
    assert whole is not None, f"{context}: a reorder after the proof"
    assert whole.period == 0 and whole.copies == len(order)
    n = proved.copies
    assert proved[:5] == (
        whole.finish[n - 1] + 1, whole.finish[:n], whole.ports[:n],
        whole.uops[:n], whole.fused[:n],
    ), f"{context}: the prefix property"
    p = proved.period
    if not p:
        assert n == len(order), f"{context}: stopped without a proof"
        return 0

    def column(k):
        return (
            whole.finish[k] - whole.finish[k - 1], whole.ports[k],
            whole.uops[k], whole.fused[k],
        )

    for k in range(n, len(order)):
        assert column(k) == column(k - p), (
            f"{context}: copy {k} differs from copy {k - p} "
            f"(period {p} proved after {n} copies)"
        )
    for t in (n + 1, len(order)):
        assert _extrapolated_counters(proved, t, 1, uarch.ports) == (
            _prefix_counters(whole, t, 1, uarch.ports)
        ), f"{context}: extrapolated x{t}"
    return p


def assert_two_tiers(uarch, plan, context):
    """The closed form (wherever it answers) and the default ``_timing``
    equal the reference loop on *plan*.  Each times a fresh stream: the
    reference loop mutates dispatch and completion state in place."""
    reference = Core(uarch, kernel="reference")._timing(build_stream(plan))
    expected = (reference.cycles, reference.port_uops)
    analytic = closed_form(uarch, build_stream(plan))
    assert analytic in (None, expected), f"{context}, analytic vs reference"
    if not any(step[3] for step in plan):
        assert analytic is not None, f"{context}: no divider, no abort"
    assert_identical(
        Core(uarch)._timing(build_stream(plan)), reference,
        f"{context}, default vs reference",
    )


@pytest.mark.slow
@pytest.mark.parametrize("uarch_name", UARCH_NAMES)
class TestSyntheticStreams:
    """Kernel level: arbitrary µop DAGs through both tiers."""

    @given(data=st.data())
    @settings(max_examples=_BUDGET, **_SETTINGS)
    def test_two_tiers_identical(self, uarch_name, data):
        uarch = get_uarch(uarch_name)
        plan = data.draw(stream_plans(uarch.ports), label="stream")
        assert_two_tiers(uarch, plan, f"({uarch_name} stream)")

    @given(data=st.data())
    @settings(max_examples=max(_BUDGET // 4, 10), **_SETTINGS)
    def test_boundary_finishes_identical(self, uarch_name, data):
        """The prefix property the ladder reads targets by: a stream cut
        into segments and played as templates in order is the stream,
        and where the recurrence answers, ``finish[s] + 1`` is the
        reference cycle count of the stream cut after segment ``s``."""
        uarch = get_uarch(uarch_name)
        plan = data.draw(_any_stream_plans(uarch.ports), label="stream")
        cuts = _draw_cuts(data, len(plan))
        scheduled = schedule_analytic(
            uarch, _segments(build_stream(plan), cuts), range(len(cuts))
        )
        if scheduled is None:
            return  # a divider reorder: the reference loop serves it
        for cut, finish in zip(cuts, scheduled.finish):
            prefix = Core(uarch, kernel="reference")._timing(
                build_stream(plan[:cut])
            )
            assert finish + 1 == prefix.cycles, (
                f"({uarch_name} prefix of {cut}/{len(plan)} µops)"
            )
        assert scheduled.cycles == prefix.cycles
        assert {
            p: sum(row[p] for row in scheduled.ports)
            for p in uarch.ports
        } == prefix.port_uops

    @given(data=st.data())
    @settings(max_examples=max(_BUDGET // 2, 10), **_SETTINGS)
    def test_proved_period_repeats(self, uarch_name, data):
        """The steady-state proof: a stream of any strategy played as a
        loop body, each copy after a proved period equal to the copy a
        period earlier (:func:`assert_proof_holds`)."""
        uarch = get_uarch(uarch_name)
        loop = data.draw(loop_plans(uarch.ports), label="loop")
        templates, order = draw_loop(data, loop)
        period = assert_proof_holds(uarch, templates, order, uarch_name)
        event("proved" if period else "not proved")

    @given(data=st.data())
    @settings(max_examples=max(_BUDGET // 4, 10), **_SETTINGS)
    def test_rs_fill_proved_period_repeats(self, uarch_name, data):
        """The proof across a long transient: a reservation-station fill
        whose finish deltas repeat long before the schedule does."""
        uarch = get_uarch(uarch_name)
        loop = data.draw(rs_fill_plans(uarch.ports), label="loop")
        templates, order = draw_loop(data, loop)
        period = assert_proof_holds(uarch, templates, order, uarch_name)
        event("proved" if period else "not proved")

    @given(data=st.data())
    @settings(max_examples=max(_BUDGET // 4, 10), **_SETTINGS)
    def test_long_streams_identical(self, uarch_name, data):
        """Streams long enough to fill the reservation station and the
        ROB, through both tiers."""
        uarch = get_uarch(uarch_name)
        plan = data.draw(long_stream_plans(uarch.ports), label="stream")
        assert_two_tiers(uarch, plan, f"({uarch_name} long stream)")

    @given(data=st.data())
    @settings(max_examples=_BUDGET, **_SETTINGS)
    def test_divider_ports_identical(self, uarch_name, data):
        """Divider µops on different ports, with idle divider gaps,
        through both tiers."""
        uarch = get_uarch(uarch_name)
        plan = data.draw(divider_port_plans(uarch.ports), label="stream")
        assert_two_tiers(uarch, plan, f"({uarch_name} divider ports)")


# ----------------------------------------------------------------------
# Strategy 2: synthetic instruction forms through Core.run.
# ----------------------------------------------------------------------

#: Host form for synthetic entries: two explicit 64-bit register
#: operands, no memory operand, writes flags — the rename stage takes
#: ports/latencies/divider behaviour from the injected entry only.
_HOST_UID = "ADD_R64_R64"

_DIVIDER_CLASSES = (None, None, None, "int_div", "fp_div", "fp_sqrt")


@st.composite
def synthetic_entries(draw, port_pool):
    """A ground-truth entry: 1–4 µops, random ports/latencies, optional
    divider value class, intra-instruction result chaining."""
    n_uops = draw(st.integers(1, 4))
    max_set = min(3, len(port_pool))
    divider_class = draw(st.sampled_from(_DIVIDER_CLASSES))
    divider_uop = (
        draw(st.integers(0, n_uops - 1))
        if divider_class is not None
        else -1
    )
    specs = []
    for k in range(n_uops):
        if draw(st.integers(0, 7)) == 0:
            ports = frozenset()
        else:
            ports = frozenset(draw(st.sets(
                st.sampled_from(port_pool), min_size=1, max_size=max_set
            )))
        inputs = []
        if draw(st.booleans()):
            inputs.append(("op", 0))
        if draw(st.booleans()):
            inputs.append(("op", 1))
        if k > 0 and draw(st.booleans()):
            inputs.append(("uop", k - 1))
        outputs = [("uop", k)]
        if k == n_uops - 1:
            outputs = [("op", 0)]
            if draw(st.booleans()):
                outputs.append(("flags",))
        specs.append(UopSpec(
            ports=ports,
            inputs=tuple(inputs),
            outputs=tuple(outputs),
            latency=draw(st.integers(1, 30)),
            divider_cycles=(
                draw(st.integers(5, 40)) if k == divider_uop else 0
            ),
        ))
    return UarchEntry(tuple(specs), divider_class=divider_class)


@st.composite
def synthetic_bodies(draw, form):
    """Chains, parallel mixes, and interleavings of both."""
    shape = draw(st.sampled_from(("chain", "parallel", "mixed")))
    n = draw(st.integers(1, 16))
    if shape == "chain":
        return [instantiate(form)] * n
    if shape == "parallel":
        return independent_sequence(form, n)
    chain_inst = instantiate(form)
    body = []
    for inst in independent_sequence(form, n):
        body.append(inst)
        if draw(st.booleans()):
            body.append(chain_inst)
    return body


@pytest.mark.slow
@pytest.mark.parametrize("uarch_name", UARCH_NAMES)
class TestSyntheticForms:
    """Core.run over generated ground-truth entries: the rename stage,
    divider value classes and both tiers agree exactly."""

    @given(data=st.data())
    @settings(max_examples=max(_BUDGET * 4 // 5, 10), **_SETTINGS)
    def test_two_tiers_identical(self, uarch_name, data):
        uarch = get_uarch(uarch_name)
        form = DATABASE.by_uid(_HOST_UID)
        entry = data.draw(synthetic_entries(uarch.ports), label="entry")
        body = data.draw(synthetic_bodies(form), label="body")
        # Divider value dependence: classified from operand values.
        init = None
        if entry.divider_class is not None:
            regs = [op.register.name for op in body[0].operands]
            values = data.draw(st.tuples(
                st.sampled_from((0, 1, 3, 0xFFFF, 0xDEADBEEFCAFE)),
                st.sampled_from((0, 1, 3, 0xFFFF, 0xDEADBEEFCAFE)),
            ), label="init")
            init = dict(zip(regs, values))
        default = Core(uarch)
        reference = Core(uarch, kernel="reference")
        for core in (default, reference):
            core._entries._cache[_HOST_UID] = entry
        assert_tiers_agree(
            default, reference, body, init,
            f"({uarch_name} synthetic form)",
        )


# ----------------------------------------------------------------------
# Strategy 3: real-catalog bodies through the full measure path.
# ----------------------------------------------------------------------

#: Catalog slice for body fuzz: GPR/SSE arithmetic, shifts, divider,
#: loads, stores, read-modify-write, idioms.
_BODY_UIDS = [
    "ADD_R64_R64",
    "IMUL_R64_R64",
    "SHLD_R64_R64_I8",
    "ADDPS_XMM_XMM",
    "DIV_R32",
    "MOV_R64_M64",
    "MOV_M64_R64",
    "ADD_R64_M64",
    "XOR_R64_R64",
    "NOP",
]


def _body_forms(uarch_name):
    core = Core(get_uarch(uarch_name))
    forms = []
    for uid in _BODY_UIDS:
        try:
            form = DATABASE.by_uid(uid)
        except KeyError:
            continue
        if core.supports(form):
            forms.append(form)
    assert len(forms) >= 8
    return forms


def assert_measure_agrees(uarch, code, init=None, context=""):
    """HardwareBackend.measure: the default ladder vs. the seed loop."""
    __tracebackhint__ = True
    assert_identical(
        HardwareBackend(uarch).measure(code, init),
        HardwareBackend(uarch, kernel="reference").measure(code, init),
        f"{context} default vs reference",
    )


@st.composite
def measure_bodies(draw, forms):
    """Experiment bodies as the runner builds them: latency chains,
    throughput parallel mixes, and blocking-style A+B·k bodies."""
    shape = draw(st.sampled_from(("chain", "parallel", "blocking")))
    form = draw(st.sampled_from(forms))
    n = draw(st.integers(1, 8))
    if shape == "chain":
        return [instantiate(form)] * n
    if shape == "parallel":
        return independent_sequence(form, n)
    blocker = draw(st.sampled_from(forms))
    return independent_sequence(form, 1) + independent_sequence(blocker, n)


@pytest.mark.slow
@pytest.mark.parametrize("uarch_name", UARCH_NAMES)
class TestMeasureBodies:
    """HardwareBackend.measure: the tier ladder (closed-form unroll,
    full simulation) against the reference loop over generated catalog
    bodies."""

    @given(data=st.data())
    @settings(max_examples=max(_BUDGET // 3 + 1, 10), **_SETTINGS)
    def test_two_tiers_identical(self, uarch_name, data):
        uarch = get_uarch(uarch_name)
        body = data.draw(
            measure_bodies(_body_forms(uarch_name)), label="body"
        )
        assert_measure_agrees(
            uarch, body, context=f"({uarch_name} measure body)"
        )


# ----------------------------------------------------------------------
# Strategy 4: store bodies — fixed and moving addresses.
# ----------------------------------------------------------------------

#: Memory-destination forms: plain stores, read-modify-writes, and the
#: aliasing exchange/compare-exchange forms.
_STORE_UIDS = [
    "MOV_M64_R64",
    "MOV_M8_R8",
    "ADD_M64_R64",
    "ADD_M32_I8",
    "INC_M8",
    "NOT_M16",
    "SHL_M64_I8",
    "XCHG_M16_R16",
    "CMPXCHG_M32_R32",
    "XADD_M64_R64",
    "MOVAPS_M128_XMM",
]


def _store_forms(uarch_name):
    core = Core(get_uarch(uarch_name))
    forms = [
        DATABASE.by_uid(uid) for uid in _STORE_UIDS
        if core.supports(DATABASE.by_uid(uid))
    ]
    assert len(forms) >= 10
    return forms


@st.composite
def store_bodies(draw, forms):
    """Store bodies whose copies reuse one address (``same``: chains
    through memory), use distinct addresses (``distinct``), mix both,
    reload the stored address, or move it every copy (``moving``, which
    the closed form must decline)."""
    shape = draw(st.sampled_from(
        ("same", "distinct", "mixed", "reload", "moving")
    ))
    form = draw(st.sampled_from(forms))
    n = draw(st.integers(1, 6))
    store = instantiate(form)
    if shape == "same":
        return [store] * n
    if shape == "distinct":
        return independent_sequence(form, n)
    if shape == "mixed":
        body = []
        for inst in independent_sequence(form, n):
            body.append(inst)
            if draw(st.booleans()):
                body.append(store)
        return body
    base = next(op.base for op in store.operands if isinstance(op, Memory))
    if shape == "reload":
        load = parse_sequence(
            f"MOV R15, qword ptr [{base.name}]", DATABASE
        )
        return [store] * n + load
    step = draw(st.sampled_from((8, 64, 0x10000)))
    return [store] * n + parse_sequence(f"ADD {base.name}, {step}", DATABASE)


@pytest.mark.slow
@pytest.mark.parametrize("uarch_name", UARCH_NAMES)
class TestStoreBodies:
    """HardwareBackend.measure over generated store bodies: the closed
    form (fixed addresses), full simulation (moving addresses) and the
    reference loop agree exactly."""

    @given(data=st.data())
    @settings(max_examples=max(_BUDGET // 3 + 1, 10), **_SETTINGS)
    def test_two_tiers_identical(self, uarch_name, data):
        uarch = get_uarch(uarch_name)
        body = data.draw(
            store_bodies(_store_forms(uarch_name)), label="body"
        )
        assert_measure_agrees(
            uarch, body, context=f"({uarch_name} store body)"
        )


# ----------------------------------------------------------------------
# Strategy 5: divider bodies — how operand values reach the divider.
# ----------------------------------------------------------------------

#: The divider instruction (last in the body) -> the registers its
#: operands come from.
_DIVIDERS = {
    "DIV RCX": ("RCX", "RAX", "RDX"),
    "IDIV RCX": ("RCX", "RAX", "RDX"),
    "DIV CL": ("RCX", "RAX"),
    "IDIV R8B": ("R8", "RAX"),
    "DIV dword ptr [RSI]": ("RAX", "RDX"),
    "IDIV qword ptr [RSI]": ("RAX", "RDX"),
}

#: Feeder templates; ``{d}`` is a 64-bit destination, ``{s}`` a source.
_FEEDERS = (
    "MOV {d}, {s}",
    "ADD {d}, {s}",
    "IMUL {d}, {s}",
    "AND {d}, {imm}",
    "OR {d}, {imm}",
    "CMP {s}, {imm}\nCMOV{cc} {d}, {s}",
    "TEST {s}, {s}\nSET{cc} {d8}",
    "MOV AL, {s8}",
    "MOV AH, {s8}",
    "SET{cc} AH",
    "MOV qword ptr [RSI], {s}",
    "MOV dword ptr [RSI], {s32}",
)

_GPRS = ("RAX", "RBX", "RCX", "RDX", "R8")
_LOW8 = {"RAX": "AL", "RBX": "BL", "RCX": "CL", "RDX": "DL", "R8": "R8B"}
_LOW32 = {"RAX": "EAX", "RBX": "EBX", "RCX": "ECX", "RDX": "EDX",
          "R8": "R8D"}
_VALUES = (0, 1, 3, 0xFF, 0xFFFF, 0xFFFFF, 0x100000, 0xDEADBEEFCAFE)


@st.composite
def divider_bodies(draw):
    """``(code, init)``: a few feeders that compute the divider's
    operands (mostly writing an operand register), then the divider;
    RSI (the memory operand's base) is never written, so the closed
    form's address guard holds."""
    divider = draw(st.sampled_from(sorted(_DIVIDERS)))
    lines = []
    for _ in range(draw(st.integers(0, 5))):
        d = draw(st.sampled_from(_DIVIDERS[divider] + _GPRS))
        src = draw(st.sampled_from(_GPRS))
        lines.append(draw(st.sampled_from(_FEEDERS)).format(
            d=d, s=src, d8=_LOW8[d], s8=_LOW8[src], s32=_LOW32[src],
            imm=draw(st.sampled_from((1, 7, 100, 0xFFFF, 0xFFFFF))),
            cc=draw(st.sampled_from(("B", "AE", "E", "NE", "S"))),
        ))
    lines.append(divider)
    code = parse_sequence("\n".join(lines), DATABASE)
    init = {
        reg: draw(st.sampled_from(_VALUES), label=reg) for reg in _GPRS
    }
    return code, init


def _emulated_classes(core, code, init, copies):
    """Per-copy divider classes from emulating every instruction."""
    state = MachineState.initial(init)
    classes = []
    for _ in range(copies):
        row = [False] * len(code)
        for p, instruction in enumerate(code):
            if core._entries.get(instruction).divider_class is not None:
                row[p] = divider_operands_fast(instruction, state)
            evaluate(instruction, state)
        classes.append(tuple(row))
    return classes


@pytest.mark.slow
@pytest.mark.parametrize("uarch_name", UARCH_NAMES)
class TestDividerBodies:
    """Divider bodies: the slice-only value classes equal full
    emulation's copy by copy, and the default ladder (class-aware
    closed-form templates; on a divider reorder, each target's stream
    on the reference loop) and ``kernel="reference"`` agree exactly."""

    @given(data=st.data())
    @settings(max_examples=max(_BUDGET // 3 + 1, 10), **_SETTINGS)
    def test_slice_and_two_tiers(self, uarch_name, data):
        uarch = get_uarch(uarch_name)
        code, init = data.draw(divider_bodies(), label="body")
        core = Core(uarch)
        if not all(core.supports(i) for i in code):
            return
        assert _fixed_addresses(code)
        copies = MeasurementConfig().unroll_large
        state = MachineState.initial(init)
        accesses = [split_accesses(evaluate(i, state)) for i in code]
        assert _divider_classes(
            core, code, accesses, init, copies
        ) == _emulated_classes(core, code, init, copies)
        assert_measure_agrees(
            uarch, code, init, f"({uarch_name} divider body)"
        )


# ----------------------------------------------------------------------
# Strategy 6: stack bodies and pointer chases — moving addresses.
# ----------------------------------------------------------------------

#: Stack templates; ``{r}`` is a GPR (never RSP), ``{b}`` a memory base.
_STACK_LINES = (
    "PUSH {r}",
    "POP {r}",
    "PUSH {imm}",
    "PUSH qword ptr [{b}]",
    "POP qword ptr [{b}]",
    "PUSHF",
    "POPF",
    "CALL {r}",
    "RET",
)

#: Pointer-chase templates over one base register ``{b}``: lines that
#: write the base (an add, or a load into it) and lines that access
#: memory through it (stores, loads, read-modify-writes).
_BASE_WRITERS = (
    "MOV {b}, qword ptr [{b}]",
    "MOV {b}, qword ptr [{b}+8]",
    "ADD {b}, {step}",
    "LEA {b}, [{b}+{step}]",
)
_BASE_ACCESSES = (
    "MOV qword ptr [{b}], {s}",
    "MOV qword ptr [{b}+8], {b}",
    "ADD qword ptr [{b}], {s}",
    "ADD {s}, qword ptr [{b}]",
)


@st.composite
def stack_bodies(draw):
    """``(code, init)``: a mix of pushes, pops, calls and returns, each
    moving RSP every copy, with a few register adds in between."""
    lines = [
        draw(st.sampled_from(_STACK_LINES + ("ADD {r}, {b}",) * bool(k)))
        .format(
            r=draw(st.sampled_from(_GPRS)),
            b=draw(st.sampled_from(("RBX", "RSI"))),
            imm=draw(st.sampled_from((0, 7, 0xFFFF))),
        )
        for k in range(draw(st.integers(1, 6)))
    ]
    code = parse_sequence("\n".join(lines), DATABASE)
    init = {"RBX": 0x2000, "RSI": 0x3000}
    return code, init


@st.composite
def pointer_chase_bodies(draw):
    """``(code, init)``: at least one write of a base register and one
    memory access through it, in any order, plus a few more of either."""
    base = draw(st.sampled_from(("RAX", "RBX", "RSI")))
    src = draw(st.sampled_from(("RCX", "RDX", "R8")))
    templates = [
        draw(st.sampled_from(_BASE_WRITERS)),
        draw(st.sampled_from(_BASE_ACCESSES)),
    ] + draw(st.lists(
        st.sampled_from(_BASE_WRITERS + _BASE_ACCESSES), max_size=3
    ))
    lines = [
        line.format(
            b=base, s=src, step=draw(st.sampled_from((8, 64, 0x1000)))
        )
        for line in draw(st.permutations(templates))
    ]
    code = parse_sequence("\n".join(lines), DATABASE)
    init = {
        base: draw(st.sampled_from((0x1000, 0x10000, 0x7FFF0000))),
        src: draw(st.sampled_from(_VALUES)),
    }
    return code, init


@pytest.mark.slow
@pytest.mark.parametrize("uarch_name", UARCH_NAMES)
class TestMovingAddressBodies:
    """Bodies whose addresses move between copies: the closed form
    serves them only when they store nothing (and so need no addresses);
    otherwise it declines and every target is simulated in full.  Either
    way the default ladder matches the reference loop exactly."""

    @pytest.mark.parametrize(
        "strategy", [stack_bodies, pointer_chase_bodies],
        ids=["stack", "pointer_chase"],
    )
    @given(data=st.data())
    @settings(max_examples=max(_BUDGET // 3 + 1, 10), **_SETTINGS)
    def test_default_matches_reference(self, uarch_name, strategy, data):
        uarch = get_uarch(uarch_name)
        code, init = data.draw(strategy(), label="body")
        assert not _fixed_addresses(code)
        assert_measure_agrees(
            uarch, code, init, f"({uarch_name} {strategy.__name__})"
        )


# ----------------------------------------------------------------------
# Deterministic anchors: the analytic tier must actually fire.
# ----------------------------------------------------------------------

def _answers(monkeypatch):
    """Record, per ``Core.run``, whether the closed form answered."""
    answers = []

    def spy(uarch, *args):
        timed = schedule_analytic(uarch, *args)
        answers.append(timed is not None)
        return timed

    monkeypatch.setattr(core_module, "schedule_analytic", spy)
    return answers


@pytest.mark.parametrize("uarch_name", UARCH_NAMES)
def test_analytic_answers_common_shapes(uarch_name, monkeypatch):
    """The closed form must cover the bread-and-butter shapes (else the
    fuzz suite would vacuously compare the reference loop against
    itself)."""
    uarch = get_uarch(uarch_name)
    core = Core(uarch, kernel="analytic")
    answers = _answers(monkeypatch)
    for uid, build in (
        ("ADD_R64_R64", lambda f: independent_sequence(f, 12)),
        ("IMUL_R64_R64", lambda f: [instantiate(f)] * 12),
        ("ADDPS_XMM_XMM", lambda f: independent_sequence(f, 6)),
    ):
        form = DATABASE.by_uid(uid)
        core.run(build(form))
        assert answers.pop(), (
            f"analytic tier never fired for {uid} on {uarch_name}"
        )


@pytest.mark.parametrize("uarch_name", UARCH_NAMES)
def test_proof_waits_for_the_rob_fill(uarch_name):
    """A loop of a 20-cycle carried spine and 11 µops hung off it
    retires one iteration per 20 cycles from the first copy on, while
    issue runs ahead until the ROB is full.  The proof comes only after
    the fill, and holds."""
    uarch = get_uarch(uarch_name)
    plan = (((0,), 20, KIND_ALU, 0, 0, ()),) + (
        ((1, 5), 1, KIND_ALU, 0, 0, ((0, 20),)),
    ) * 11
    templates, order = loop_templates(plan, ((0, 0, 20),), [12], 0, 200)
    proved = schedule_analytic(uarch, templates, order)
    finish = proved.finish
    assert {b - a for a, b in zip(finish, finish[1:])} == {20}
    assert proved.period == 2  # the {1, 5} binding alternates
    assert 12 * proved.copies > uarch.rob_size
    assert assert_proof_holds(uarch, templates, order, uarch_name) == 2


@pytest.mark.parametrize("uarch_name", UARCH_NAMES)
def test_no_proof_from_the_dispatch_window_alone(uarch_name):
    """A loop of four independent µops, one of them 60 cycles long:
    every copy dispatches alike, but retire comes in waves a ROB apart
    (56 copies on SKL, 32 on NHM), a period too long to prove.  Only
    the retire cycles in the snapshot tell the copies apart."""
    uarch = get_uarch(uarch_name)
    plan = (
        ((), 1, KIND_ALU, 0, 0, ()),
        ((0,), 1, KIND_ALU, 0, 0, ()),
        ((), 1, KIND_ALU, 0, 0, ()),
        ((1,), 60, KIND_ALU, 0, 0, ()),
    )
    templates, order = loop_templates(plan, (), [4], 0, 300)
    scheduled = schedule_analytic(uarch, templates, order)
    assert (scheduled.copies, scheduled.period) == (300, 0)
    assert assert_proof_holds(uarch, templates, order, uarch_name) == 0


#: 300 independent µops on port 0, played once before a loop.
_BURST = (((0,), 1, KIND_ALU, 0, 0, ()),) * 300


@pytest.mark.parametrize("uarch_name", UARCH_NAMES)
def test_proof_waits_for_the_port_gap_to_close(uarch_name):
    """After a burst on port 0, a loop of four µops that may take port 0
    or 1 binds all of them to port 1 until its load catches up, 75
    iterations later; the gap shrinks meanwhile, so no proof comes
    before it closes."""
    uarch = get_uarch(uarch_name)
    plan = (((0, 1), 1, KIND_ALU, 0, 0, ()),) * 4
    templates, order = loop_templates(plan, (), [4], 0, 400, _BURST)
    assert schedule_analytic(uarch, templates, order).copies > 76
    assert assert_proof_holds(uarch, templates, order, uarch_name) == 1


@pytest.mark.parametrize("uarch_name", UARCH_NAMES)
def test_proof_waits_for_the_front_end_to_bind(uarch_name):
    """A loop the front end releases every 3 cycles runs at one
    iteration per cycle behind a burst that held issue back: the
    front-end lead grows every iteration until the front end binds, and
    no proof comes before."""
    uarch = get_uarch(uarch_name)
    plan = tuple(
        ((p,), 1, KIND_ALU, 0, 0, ()) for p in uarch.ports[:4]
    )
    templates, order = loop_templates(plan, (), [4], 3, 400, _BURST)
    proved = schedule_analytic(uarch, templates, order)
    finish = proved.finish
    assert finish[-1] - finish[-1 - proved.period] == 3 * proved.period
    assert assert_proof_holds(uarch, templates, order, uarch_name)


@pytest.mark.parametrize("uarch_name", UARCH_NAMES)
def test_divider_reorder_after_an_idle_stretch(uarch_name):
    """A divider reorder whose idle divider stretch ended two copies
    earlier: the third divider µop is ready at cycle 21 while the second
    waits 30 cycles for the first.  Played as one template per µop, the
    stream declines, so the divider state (here ``idle_end``) carries
    across copy boundaries."""
    uarch = get_uarch(uarch_name)
    plan = (
        ((4,), 3, KIND_ALU, 1, 1, ()),
        ((3,), 1, KIND_ALU, 5, 21, ((0, 30),)),
        ((4,), 5, KIND_ALU, 2, 21, ()),
    )
    templates = _segments(build_stream(plan), [1, 2, 3])
    assert schedule_analytic(uarch, templates, range(3)) is None


@pytest.mark.parametrize("uarch_name", UARCH_NAMES)
def test_divider_streams_fall_back(uarch_name, monkeypatch):
    """Divider streams whose divider µops take the divider in age order
    have a closed form; a constructed divider reorder — the younger
    divider µop is ready while the older waits for a square root —
    makes schedule_analytic refuse, and the core falls back to the
    reference loop, which counts its cycles in ``cycles_simulated``
    once, exactly as the reference core does."""
    uarch = get_uarch(uarch_name)
    form = DATABASE.by_uid("DIV_R32")
    core = Core(uarch, kernel="analytic")
    if not core.supports(form):
        pytest.skip(f"DIV_R32 unsupported on {uarch_name}")
    reference = Core(uarch, kernel="reference")
    answers = _answers(monkeypatch)
    for code, answered in (
        ([instantiate(form)] * 4, True),
        (parse_sequence(
            "SQRTSD XMM1, XMM1\nDIVSD XMM0, XMM1\nDIVSD XMM2, XMM3",
            DATABASE,
        ), False),
    ):
        before = (core.cycles_simulated, reference.cycles_simulated)
        counters = core.run(code)
        assert answers.pop() is answered, code
        assert_identical(
            counters, reference.run(code), f"({uarch_name} {code})"
        )
        if not answered:
            assert (
                core.cycles_simulated - before[0]
                == reference.cycles_simulated - before[1]
                == counters.cycles
            ), code
