"""Orchestration: characterize instruction forms on a backend.

This is the top of the tool described in Section 6: for every supported
instruction variant it measures the µop count, infers the port usage with
Algorithm 1, measures per-operand-pair latencies, measures throughput, and
computes the Intel-style throughput from the port usage.

The runner itself is a composition of *plans* (see
:mod:`repro.core.experiment`): the isolation run, the latency chains, and
the throughput sequences of one form are merged into a single dispatch
through an :class:`~repro.measure.executor.ExperimentExecutor`, followed by
the adaptive port-usage rounds.  One executor serves the runner's whole
lifetime, so identical experiments planned by different algorithms — or by
different forms of one sweep — are measured exactly once.

:class:`FormFailure` and :class:`~repro.stats.RunStatistics` cross the
sweep pool's pipes, so their fields must stay picklable
(``tests/test_sweep_engine.py::TestPoolPayloadsPickle`` round-trips
them).  Counters need no registration: ``RunStatistics`` is the one
record every layer reports in, and the CLI's stderr summary is
generated from its fields.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Union

from repro.core.blocking import (
    BlockingInstructions,
    plan_blocking_instructions,
)
from repro.core.codegen import independent_sequence
from repro.core.experiment import ExperimentBatch, Plan, merge_plans
from repro.core.latency import LatencyMeasurer
from repro.core.port_usage import plan_port_usage
from repro.core.result import InstructionCharacterization
from repro.core.throughput import (
    compute_throughput_from_port_usage,
    plan_throughput,
)
from repro.isa.database import InstructionDatabase, load_default_database
from repro.isa.instruction import (
    ATTR_SERIALIZING,
    ATTR_SYSTEM,
    ATTR_UNSUPPORTED,
    InstructionForm,
)
from repro.stats import RunStatistics


@dataclass(frozen=True)
class FormFailure:
    """The structured record of one quarantined instruction form.

    Produced instead of a characterization when a form's plan ultimately
    fails (after the executor's retry budget); a sweep collects these,
    reports them in the statistics table and ``--stats-json``, and emits
    them as annotated XML/HTML entries instead of silently dropping the
    form.  All fields are primitives so the record crosses the sweep
    engine's process boundary unchanged.
    """

    uid: str
    #: The characterization stage that died: an experiment-tag prefix
    #: (``iso``, ``lat``, ``ports``, ``tp``, ``blocking``), ``pool`` for
    #: a form whose pool workers kept dying, or ``characterize`` when
    #: unattributable.
    phase: str
    error_type: str
    message: str
    attempts: int = 1
    #: Index of the pool worker that reported the failure, ``None`` on
    #: the serial path and for ``pool`` failures.
    shard: Optional[int] = None

    @classmethod
    def from_error(cls, uid: str, error: BaseException) -> "FormFailure":
        tag = getattr(error, "experiment_tag", "")
        phase = tag.split(":", 1)[0] if tag else "characterize"
        return cls(
            uid=uid,
            phase=phase,
            error_type=type(error).__name__,
            message=str(error),
            attempts=getattr(error, "attempts", 1),
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "uid": self.uid,
            "phase": self.phase,
            "error_type": self.error_type,
            "message": self.message,
            "attempts": self.attempts,
            "shard": self.shard,
        }

    def summary(self) -> str:
        where = (
            f"shard {self.shard}" if self.shard is not None else self.phase
        )
        return (
            f"{self.uid}: quarantined in {where} after "
            f"{self.attempts} attempt(s): {self.error_type}: {self.message}"
        )


class CharacterizationRunner:
    """Characterizes instruction forms against one measurement backend."""

    def __init__(
        self,
        backend,
        database: Optional[InstructionDatabase] = None,
        executor=None,
    ):
        self.backend = backend
        self.database = database or load_default_database()
        self._blocking: Optional[BlockingInstructions] = None
        self._latency = LatencyMeasurer(self.database, backend)
        if executor is None:
            from repro.measure.executor import ExperimentExecutor

            executor = ExperimentExecutor(backend)
        #: The executor all of this runner's plans flow through; shared
        #: across forms so cross-form duplicates are measured once.
        self.executor = executor
        self.statistics = RunStatistics()

    @property
    def blocking(self) -> BlockingInstructions:
        """Blocking instructions, discovered once per backend (5.1.1)."""
        if self._blocking is None:
            self._blocking = self.executor.drive(
                plan_blocking_instructions(self.database, self.backend)
            )
        return self._blocking

    # ------------------------------------------------------------------

    def can_measure(self, form: InstructionForm) -> bool:
        if form.has_attribute(ATTR_UNSUPPORTED):
            return False
        if form.category in ("jmp", "jmp_indirect", "call", "ret"):
            return False  # would leave the straight-line benchmark
        return self.backend.supports(form)

    def characterize(
        self, form: InstructionForm
    ) -> Optional[InstructionCharacterization]:
        """Full characterization of one instruction variant."""
        if not self.can_measure(form):
            self.statistics.skipped += 1
            return None
        measurable_ports = not (
            form.has_attribute(ATTR_SERIALIZING)
            or form.has_attribute(ATTR_SYSTEM)
        )
        # The blocking-instruction discovery is a one-time backend-wide
        # cost, not part of this form's measurement time.
        blocking = self.blocking if measurable_ports else None
        started = time.perf_counter()
        outcome = self.executor.drive(
            self._plan_characterization(form, blocking, measurable_ports)
        )
        self.statistics.characterized += 1
        self.statistics.seconds += time.perf_counter() - started
        return outcome

    def characterize_resilient(
        self, form: InstructionForm
    ) -> Union[InstructionCharacterization, FormFailure, None]:
        """Like :meth:`characterize`, but degrade instead of raising.

        A form whose plan ultimately fails — after the executor's
        transient-retry budget — becomes a :class:`FormFailure` record
        rather than aborting the caller's whole sweep.  The sweep paths
        (serial and sharded) run through this entry point; direct API
        users keep :meth:`characterize`'s raising behaviour.
        """
        try:
            return self.characterize(form)
        except Exception as error:
            self.statistics.forms_failed += 1
            return FormFailure.from_error(form.uid, error)

    def _plan_isolation(self, form: InstructionForm) -> Plan:
        batch = ExperimentBatch()
        code = independent_sequence(form, 4)
        handle = batch.add(code, tag=f"iso:{form.uid}")
        results = yield batch
        return results[handle].scaled(len(code))

    def _plan_characterization(
        self,
        form: InstructionForm,
        blocking: Optional[BlockingInstructions],
        measurable_ports: bool,
    ) -> Plan:
        """One form's characterization as a composed plan.

        Round 1 merges the isolation run, every latency chain, and the
        throughput sequences into a single dispatch; the adaptive
        port-usage rounds (which need the measured maximum latency)
        follow.
        """
        notes: List[str] = []
        plans = [self._plan_isolation(form), self._latency.plan(form)]
        if measurable_ports:
            plans.append(plan_throughput(form, self.database))
        merged = yield from merge_plans(plans)
        if measurable_ports:
            isolation, latency, throughput = merged
        else:
            isolation, latency = merged
            throughput = None
        uop_count = isolation.uops

        port_usage = None
        if measurable_ports:
            max_latency = (
                latency.max_latency() if latency and latency.pairs else 1.0
            )
            port_usage = yield from plan_port_usage(
                form, blocking, max_latency
            )
            if form.category not in ("div", "vec_fp_div", "vec_fp_sqrt"):
                computed = compute_throughput_from_port_usage(
                    port_usage, self.backend.uarch.ports
                )
                throughput.computed_from_ports = computed
            else:
                notes.append("divider: Intel-style throughput undefined")

        return InstructionCharacterization(
            form_uid=form.uid,
            uarch_name=self.backend.uarch.name,
            uop_count=uop_count,
            port_usage=port_usage,
            latency=latency,
            throughput=throughput,
            notes=tuple(notes),
        )

    def characterize_all(
        self,
        forms: Optional[Iterable[InstructionForm]] = None,
        progress: Optional[Callable[[str], None]] = None,
    ) -> Dict[str, InstructionCharacterization]:
        """Characterize many forms; returns results keyed by form uid."""
        results: Dict[str, InstructionCharacterization] = {}
        for form in forms if forms is not None else self.database:
            outcome = self.characterize(form)
            if outcome is not None:
                results[form.uid] = outcome
                if progress is not None:
                    progress(outcome.summary())
        return results

    def supported_forms(self) -> List[InstructionForm]:
        """All forms this backend can measure (Table 1's variant count)."""
        return [f for f in self.database if self.can_measure(f)]
