"""The Experiment IR: declarative microbenchmarks, decoupled from backends.

The inference algorithms of Section 5 used to call ``backend.measure()``
inline, one microbenchmark at a time, which welded benchmark *generation*
to benchmark *evaluation*.  Following the split that PALMED and PMEvo make
explicit, each algorithm is now a **plan**: a generator that yields
:class:`ExperimentBatch` objects (pure descriptions of code to run — no
backend in hand), receives a :class:`ResultMap` for each batch, and finally
*interprets* the measured counters into its result.

    plan            execute              interpret
    ─────►  batch  ────────►  counters  ──────────►  result
            (yield)  (executor)            (return)

The executor between the phases
(:class:`~repro.measure.executor.ExperimentExecutor`) content-hashes
experiments and dedupes identical ``(code, init)`` pairs across algorithms
and across the forms one runner characterizes; its memo is the one
in-process cache of finished measurements.  It executes a batch by
calling ``measure(code, init)`` once per distinct experiment, so any
backend — the simulator, the IACA analyzer, or a future remote
service — needs that one entry point only.

A plan in this module's sense is any generator with the signature

    Generator[ExperimentBatch, ResultMap, T]

where ``T`` is the algorithm's result type.  Plans compose: sequential
phases via ``yield from``, and concurrent single-round phases via
:func:`merge_plans`, which advances several plans in lock-step and merges
their per-round batches into one dispatch.

Contract (enforced by ``repro lint``): experiment content hashes must be
deterministic (RPR101/RPR102 — no clocks, no unseeded randomness, no raw
set iteration here), and plan generators must stay measurement-free
(RPR110) — a plan that calls a backend directly defeats the executor's
cross-algorithm deduplication.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    Generator,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.isa.instruction import Instruction
from repro.pipeline.core import CounterValues

T = TypeVar("T")

#: The planning protocol: yield batches, receive result maps, return the
#: interpreted result.
Plan = Generator["ExperimentBatch", "ResultMap", T]


@dataclass(frozen=True)
class Experiment:
    """One microbenchmark: a code sequence plus initial register values.

    Identity (equality/hash) is the measurement content — the instruction
    tuple and the normalized ``init`` assignment.  The ``tag`` is
    bookkeeping for humans (progress displays, debugging) and is excluded
    from comparison, so two algorithms planning the same measurement under
    different tags deduplicate against each other.
    """

    code: Tuple[Instruction, ...]
    init: Optional[Tuple[Tuple[str, int], ...]] = None
    tag: str = field(default="", compare=False)

    @classmethod
    def make(
        cls,
        code: Sequence[Instruction],
        init: Optional[Dict[str, int]] = None,
        tag: str = "",
    ) -> "Experiment":
        """Normalize *code*/*init* (an empty ``init`` is the same
        measurement as no ``init``)."""
        return cls(
            tuple(code),
            tuple(sorted(init.items())) if init else None,
            tag,
        )

    def init_dict(self) -> Optional[Dict[str, int]]:
        return dict(self.init) if self.init else None

    def content_key(self) -> str:
        """Short stable digest of the measurement content — the handle
        failure messages and retry bookkeeping refer to."""
        import hashlib

        payload = ";".join(
            f"{instruction.form.uid}|{instruction}"
            for instruction in self.code
        )
        if self.init:
            payload += f";init={self.init!r}"
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]


@dataclass(frozen=True)
class ExperimentFailure:
    """A captured per-experiment execution error.

    Batch execution completes the remaining experiments instead of
    aborting; the original exception is re-raised only when an interpreter
    actually *reads* the failed experiment, preserving the exception type
    (and therefore the callers' existing ``except`` clauses).  ``key``,
    ``tag`` and ``attempts`` carry the experiment's content digest and the
    executor's retry count into the re-raised message, so a quarantined
    form's report says *which* measurement died and how hard it was tried.
    """

    error: Exception = field(compare=False)
    key: str = ""
    tag: str = field(default="", compare=False)
    attempts: int = 1

    def reraise(self) -> None:
        context = (
            f"experiment {self.key or '<unkeyed>'}"
            + (f" [{self.tag}]" if self.tag else "")
            + f" failed after {self.attempts} attempt(s)"
        )
        try:
            augmented = type(self.error)(f"{self.error} ({context})")
        except Exception:
            # Exception types with non-message constructors: annotate the
            # original instead of risking a mis-constructed clone.
            self.error.add_note(context)
            raise self.error
        augmented.experiment_tag = self.tag
        augmented.experiment_key = self.key
        augmented.attempts = self.attempts
        raise augmented from self.error


class ExperimentBatch:
    """An ordered collection of experiments planned for one dispatch."""

    def __init__(self, experiments: Iterable[Experiment] = ()):
        self.experiments: List[Experiment] = list(experiments)

    def add(
        self,
        code: Sequence[Instruction],
        init: Optional[Dict[str, int]] = None,
        tag: str = "",
    ) -> Experiment:
        """Plan one experiment; returns the handle interpreters use to
        look its counters up in the :class:`ResultMap`."""
        experiment = Experiment.make(code, init, tag)
        self.experiments.append(experiment)
        return experiment

    def extend(self, other: "ExperimentBatch") -> None:
        self.experiments.extend(other.experiments)

    def __iter__(self) -> Iterator[Experiment]:
        return iter(self.experiments)

    def __len__(self) -> int:
        return len(self.experiments)

    def __bool__(self) -> bool:
        return bool(self.experiments)


class ResultMap:
    """Measured counters per experiment, keyed by experiment content.

    Two :class:`Experiment` objects with the same ``(code, init)`` are the
    same key, so an interpreter's handle finds the counters even when the
    executor actually measured a deduplicated twin planned elsewhere.
    """

    def __init__(self) -> None:
        self._values: Dict[Experiment, Any] = {}

    def put(self, experiment: Experiment, outcome: Any) -> None:
        self._values[experiment] = outcome

    def __getitem__(self, experiment: Experiment) -> CounterValues:
        outcome = self._values[experiment]
        if isinstance(outcome, ExperimentFailure):
            outcome.reraise()
        return outcome

    def get(self, experiment: Experiment) -> Optional[CounterValues]:
        outcome = self._values.get(experiment)
        if isinstance(outcome, ExperimentFailure):
            return None
        return outcome

    def failed(self, experiment: Experiment) -> bool:
        return isinstance(self._values.get(experiment), ExperimentFailure)

    def __contains__(self, experiment: Experiment) -> bool:
        return experiment in self._values

    def __len__(self) -> int:
        return len(self._values)


def merge_plans(plans: Sequence[Plan]) -> Plan:
    """Advance several plans in lock-step, merging per-round batches.

    Each round gathers the next batch of every still-active plan into one
    merged dispatch; all plans that contributed receive the same (shared)
    result map, so a single execution serves every sub-plan.  Returns the
    plans' results in input order.  This is how one form's isolation,
    latency, and throughput measurements become a single batch even though
    the three algorithms are written independently.
    """
    plans = list(plans)
    active: Dict[int, Plan] = dict(enumerate(plans))
    inbox: Dict[int, Optional[ResultMap]] = {}
    primed: set = set()
    results: List[Any] = [None] * len(plans)
    while active:
        requests: Dict[int, ExperimentBatch] = {}
        for index, plan in list(active.items()):
            try:
                if index in primed:
                    batch = plan.send(inbox.get(index))
                else:
                    batch = next(plan)
                    primed.add(index)
            except StopIteration as stop:
                results[index] = stop.value
                del active[index]
                continue
            requests[index] = batch
        if not requests:
            continue
        merged = ExperimentBatch()
        for batch in requests.values():
            merged.extend(batch)
        result_map = yield merged
        for index in requests:
            inbox[index] = result_map
    return results
