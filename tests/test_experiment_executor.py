"""Differential tests: the batched executor vs. the inline dispatch path.

The plan→execute→interpret split claims **bit-identical** results to the
seed algorithms' inline measure-call sequence, which survives as
``ExperimentExecutor(mode="inline")`` (one backend dispatch per planned experiment,
in plan order, no deduplication).  These tests pin that claim with exact
:func:`encode_characterization` equality over a representative catalog
slice — including the value-dependent divider forms, whose two-phase
slow/fast protocol is the trickiest plan — plus a stratified sample, on
two microarchitectures.

A second group checks the executor in isolation against a deterministic
table backend: deduplication and batch boundaries must never change the
result map, each unique experiment is dispatched exactly once, and a
failing experiment is re-raised only when an interpreter reads it.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sampling import stratified_sample
from repro.core.codegen import independent_sequence, instantiate
from repro.core.experiment import Experiment, ExperimentBatch
from repro.core.result import encode_characterization
from repro.core.runner import CharacterizationRunner
from repro.isa.database import load_default_database
from repro.measure.backend import HardwareBackend
from repro.measure.executor import (
    EXECUTOR_BATCHED,
    EXECUTOR_INLINE,
    ExperimentExecutor,
    executor_mode,
)
from repro.pipeline.core import Core, CounterValues
from repro.uarch.configs import get_uarch

DATABASE = load_default_database()

#: Representative forms: GPR/SSE/AVX arithmetic, flag producers, both
#: divider kinds (integer and floating-point, with their slow/fast value
#: protocol), loads/stores/read-modify, idioms, and moves.
REPRESENTATIVE_UIDS = [
    "ADD_R64_R64",
    "ADC_R64_R64",
    "IMUL_R64_R64",
    "SHLD_R64_R64_I8",
    "ADDPS_XMM_XMM",
    "PADDD_XMM_XMM",
    "VADDPS_YMM_YMM_YMM",
    "DIV_R64",
    "DIV_R32",
    "IDIV_R64",
    "DIVPS_XMM_XMM",
    "DIVSD_XMM_XMM",
    "MOV_R64_M64",
    "MOV_M64_R64",
    "ADD_R64_M64",
    "NOP",
    "XOR_R64_R64",
    "MOV_R64_R64",
    "AESDEC_XMM_XMM",
]

UARCH_NAMES = ["SKL", "NHM"]


def _forms(uarch_name):
    """Representative forms plus a thinned stratified catalog sample."""
    core = Core(get_uarch(uarch_name))
    picked, seen = [], set()
    for uid in REPRESENTATIVE_UIDS:
        try:
            form = DATABASE.by_uid(uid)
        except KeyError:
            continue
        if core.supports(form):
            picked.append(form)
            seen.add(form.uid)
    supported = [f for f in DATABASE if core.supports(f)]
    for form in stratified_sample(supported, 6)[::9]:
        if form.uid not in seen:
            picked.append(form)
            seen.add(form.uid)
    assert len(picked) >= 20
    return picked


def _characterize(uarch_name, forms, mode):
    """A fresh backend/runner pair driven in the given executor mode."""
    backend = HardwareBackend(get_uarch(uarch_name))
    executor = ExperimentExecutor(backend, mode=mode)
    runner = CharacterizationRunner(backend, DATABASE, executor=executor)
    encoded = {}
    for form in forms:
        outcome = runner.characterize(form)
        encoded[form.uid] = (
            encode_characterization(outcome) if outcome is not None else None
        )
    return encoded, backend, executor


@pytest.mark.slow
@pytest.mark.parametrize("uarch_name", UARCH_NAMES)
def test_batched_bit_identical_to_inline(uarch_name):
    """The whole point of the refactor: dedup is a pure optimization."""
    forms = _forms(uarch_name)
    batched, b_backend, b_exec = _characterize(
        uarch_name, forms, EXECUTOR_BATCHED
    )
    inline, i_backend, i_exec = _characterize(
        uarch_name, forms, EXECUTOR_INLINE
    )
    assert batched == inline
    # Same plans on both sides; only the dispatch count differs.
    assert b_exec.experiments_planned == i_exec.experiments_planned
    assert i_exec.experiments_deduped == 0
    assert b_exec.experiments_deduped > 0
    assert i_backend.measure_calls == i_exec.experiments_planned
    assert b_backend.measure_calls == b_exec.experiments_measured
    assert b_backend.measure_calls < i_backend.measure_calls


# ----------------------------------------------------------------------
# Executor mechanics against a deterministic table backend.


def _build_pool():
    """Distinct experiments over real catalog instructions."""
    pool = []
    for uid in ("ADD_R64_R64", "XOR_R64_R64", "IMUL_R64_R64",
                "ADDPS_XMM_XMM"):
        form = DATABASE.by_uid(uid)
        for length in (1, 2, 4):
            pool.append(
                Experiment.make(
                    independent_sequence(form, length),
                    tag=f"{uid}x{length}",
                )
            )
    divider = instantiate(DATABASE.by_uid("DIV_R64"))
    pool.append(
        Experiment.make([divider] * 3, {"RAX": 1, "RDX": 0}, tag="divx3")
    )
    return pool


POOL = _build_pool()

#: Pure function of experiment content: any execution order, batch split,
#: or dedup decision must reproduce exactly these outcomes.
TABLE = {
    experiment: CounterValues(
        cycles=float(index + 1),
        port_uops={0: float(index)},
        uops=float(len(experiment.code)),
        instructions=len(experiment.code),
    )
    for index, experiment in enumerate(POOL)
}


class TableBackend:
    """Looks measurements up in TABLE, counting the executor's calls."""

    def __init__(self, fail=()):
        self.measure_calls = 0
        self._fail = set(fail)

    def measure(self, code, init=None):
        self.measure_calls += 1
        experiment = Experiment.make(code, init)
        if experiment in self._fail:
            raise RuntimeError(f"injected failure: {experiment.tag}")
        return TABLE[experiment]


@settings(max_examples=60, deadline=None)
@given(
    indices=st.lists(
        st.integers(0, len(POOL) - 1), min_size=1, max_size=24
    ),
    cuts=st.sets(st.integers(1, 23), max_size=4),
)
def test_dedup_never_changes_the_result_map(indices, cuts):
    """Hypothesis: however experiments repeat across and within batches,
    every handle resolves to the content-determined outcome, and each
    unique experiment hits the backend exactly once."""
    backend = TableBackend()
    executor = ExperimentExecutor(backend, mode=EXECUTOR_BATCHED)
    bounds = sorted(c for c in cuts if c < len(indices))
    bounds.append(len(indices))
    start = 0
    for end in bounds:
        if end <= start:
            continue
        chunk = indices[start:end]
        results = executor.execute(
            ExperimentBatch(POOL[i] for i in chunk)
        )
        for i in chunk:
            # The backend returns TABLE values by identity, so `is`
            # proves the dedup memo never substituted anything.
            assert results[POOL[i]] is TABLE[POOL[i]]
        start = end
    unique = len(set(indices))
    assert backend.measure_calls == unique
    assert executor.experiments_planned == len(indices)
    assert executor.experiments_measured == unique
    assert executor.experiments_deduped == len(indices) - unique


def test_inline_mode_dispatches_every_planned_experiment():
    backend = TableBackend()
    executor = ExperimentExecutor(backend, mode=EXECUTOR_INLINE)
    batch = ExperimentBatch([POOL[0], POOL[0], POOL[1]])
    results = executor.execute(batch)
    assert backend.measure_calls == 3
    assert executor.experiments_deduped == 0
    assert results[POOL[0]] is TABLE[POOL[0]]
    assert results[POOL[1]] is TABLE[POOL[1]]


def test_failure_captured_per_experiment_and_reraised_on_read():
    backend = TableBackend(fail={POOL[2]})
    executor = ExperimentExecutor(backend, mode=EXECUTOR_BATCHED)
    results = executor.execute(ExperimentBatch(POOL[:4]))
    assert results.failed(POOL[2])
    assert results.get(POOL[2]) is None
    with pytest.raises(RuntimeError, match="injected failure"):
        results[POOL[2]]
    # The rest of the batch completed despite the failure.
    assert results[POOL[1]] is TABLE[POOL[1]]
    # The failure is memoized like any outcome: no retry on replan.
    executor.execute(ExperimentBatch([POOL[2]]))
    assert backend.measure_calls == 4


def test_executor_mode_resolution():
    assert executor_mode() == EXECUTOR_BATCHED
    assert executor_mode(EXECUTOR_INLINE) == EXECUTOR_INLINE
    assert executor_mode(EXECUTOR_BATCHED) == EXECUTOR_BATCHED
    with pytest.raises(ValueError, match="unknown executor mode"):
        executor_mode("turbo")
