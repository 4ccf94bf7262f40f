"""Measurement backends: the hardware (simulator) and the protocol.

:class:`HardwareBackend` reproduces the measurement routine of Algorithm 2
(Section 6.2): the code sequence under analysis is replicated ``n`` times
between serializing boundaries, performance counters are read around the
block, and the difference of two replication factors (10 and 110 in the
paper) cancels the constant overhead.  A warm-up run precedes the measured
runs.  On the deterministic simulator a single repetition suffices; the
100-fold averaging of the paper is kept as a configuration knob.

Both unroll factors come from the measurement ladder of
:mod:`repro.measure.extrapolate`: the closed form where it answers, else
a full simulation of each unroll factor.  ``kernel="reference"`` runs
the seed measurement loop verbatim instead, as the differential tests'
oracle.

Contract (enforced by ``repro lint``, RPR130): measurement entry points
here raise only the :class:`BackendError` taxonomy (transient /
permanent / timeout) — the executor's retry logic and the sweep
engine's quarantine dispatch on those exact types, so a foreign
exception escaping a backend bypasses both.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
)

from repro.core.experiment import Experiment, ExperimentFailure
from repro.core.result import decode_counters, encode_counters
from repro.isa.instruction import Instruction, InstructionForm
from repro.measure.extrapolate import unrolled_counters
from repro.pipeline.core import KERNEL_REFERENCE, Core, CounterValues
from repro.stats import RunStatistics
from repro.uarch.model import UarchConfig


@dataclass(frozen=True)
class MeasurementConfig:
    """Parameters of the Algorithm 2 protocol.

    The paper uses ``unroll_small=10``, ``unroll_large=110`` and 100
    repetitions; the defaults here are scaled down because the simulator is
    deterministic and cycle-exact, which the tests verify.

    ``max_cached_measurements`` bounds the backend's two in-process
    stores (final per-copy averages and the core's structural
    closed-form memo) with LRU eviction, so a full-catalog sweep cannot
    grow memory without limit.  It is a resource knob, not part of the
    measurement protocol: persistent cache keys are derived from
    :meth:`protocol_fields` only.
    """

    unroll_small: int = 5
    unroll_large: int = 25
    repeats: int = 1
    warmup: bool = True
    max_cached_measurements: Optional[int] = 100_000

    #: The paper's exact configuration, for protocol-fidelity tests.
    @classmethod
    def paper(cls) -> "MeasurementConfig":
        return cls(unroll_small=10, unroll_large=110, repeats=3,
                   warmup=True)

    def protocol_fields(self) -> Dict[str, object]:
        """The fields that define the measurement protocol — and thus
        participate in persistent cache/memo keys."""
        return {
            "unroll_small": self.unroll_small,
            "unroll_large": self.unroll_large,
            "repeats": self.repeats,
            "warmup": self.warmup,
        }


class LRUDict(OrderedDict):
    """A mapping bounded by least-recently-used eviction.

    Reads refresh recency; inserting beyond ``max_entries`` evicts the
    stalest entry and counts it in ``evictions``.  ``max_entries=None``
    is unbounded (but still counts recency, so bounds can be compared
    against an unbounded baseline in tests).
    """

    def __init__(self, max_entries: Optional[int] = None):
        super().__init__()
        self.max_entries = max_entries
        self.evictions = 0

    def __getitem__(self, key):
        value = super().__getitem__(key)
        self.move_to_end(key)
        return value

    def get(self, key, default=None):
        try:
            return self[key]
        except KeyError:
            return default

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self.move_to_end(key)
        if self.max_entries is not None and len(self) > self.max_entries:
            self.popitem(last=False)
            self.evictions += 1


class MeasurementBackend(Protocol):
    """What the inference algorithms need from an execution substrate.

    Backends may additionally provide the optional batch entry point
    ``measure_many(experiments) -> list`` of the executor protocol
    (:class:`~repro.measure.executor.ExperimentExecutor`); when absent,
    the executor's default implementation loops over :meth:`measure`.
    Both concrete backends (:class:`HardwareBackend` and
    :class:`~repro.iaca.analyzer.IacaBackend`) provide it.
    """

    name: str
    uarch: UarchConfig

    def measure(
        self,
        code: Sequence[Instruction],
        init: Optional[Dict[str, int]] = None,
    ) -> CounterValues:
        """Average per-copy counters for the given code sequence."""

    def supports(self, form: InstructionForm) -> bool:
        """Whether the substrate can execute/analyze the form."""


class HardwareBackend:
    """Measurements on the simulated hardware via performance counters.

    Three result layers sit in front of the simulator, checked in order:

    1. an in-process cache of final per-copy averages, keyed by the
       hoisted ``(code, init)`` tuple,
    2. an optional persistent, cross-process
       :class:`~repro.core.cache.MeasurementMemo` (injected — typically
       by the sweep engine — so worker shards share the blocking/chain
       sub-measurements instead of each re-simulating them),
    3. the simulator itself.  Both unroll factors of Algorithm 2 come
       from one pass down the measurement ladder
       (:func:`~repro.measure.extrapolate.unrolled_counters`): closed
       form where the analytic tier answers, else full simulation of
       each factor; the deterministic ``repeats``/warmup runs are
       collapsed analytically.  With ``kernel="reference"`` the seed
       measurement loop runs verbatim.  All paths return bit-identical
       counters.
    """

    def __init__(
        self,
        uarch: UarchConfig,
        config: Optional[MeasurementConfig] = None,
        memo=None,
        kernel: Optional[str] = None,
    ):
        self.uarch = uarch
        self.name = f"hw-{uarch.name}"
        self.config = config or MeasurementConfig()
        bound = self.config.max_cached_measurements
        self._cache = LRUDict(bound)
        #: The core's structural closed-form memo, bounded alike.
        self._analytic_memo = LRUDict(bound)
        self._core = Core(uarch, kernel=kernel,
                          analytic_memo=self._analytic_memo)
        self.memo = memo
        #: Number of measure() invocations over the backend's lifetime.
        #: The sweep engine's tests use this to prove that a warm-cache
        #: sweep performs zero backend measurements.
        self.measure_calls = 0
        self.memo_hits = 0
        self.memo_misses = 0
        #: What the measurement ladder did, one merge per fresh
        #: :func:`~repro.measure.extrapolate.unrolled_counters` call.
        self._ladder = RunStatistics()

    @property
    def kernel(self) -> str:
        """The active timing kernel (read through to the core, which the
        fusion/decoder extensions replace)."""
        return self._core.kernel

    @property
    def cache_evictions(self) -> int:
        return self._cache.evictions + self._analytic_memo.evictions

    def snapshot(self) -> RunStatistics:
        """This backend's counters so far (fold deltas of two of them)."""
        snapshot = RunStatistics(
            memo_hits=self.memo_hits,
            memo_misses=self.memo_misses,
            cycles_simulated=self._core.cycles_simulated,
            cache_evictions=self.cache_evictions,
        )
        snapshot.merge(self._ladder)
        return snapshot

    def measure(
        self,
        code: Sequence[Instruction],
        init: Optional[Dict[str, int]] = None,
    ) -> CounterValues:
        """Per-copy average counters using the unroll-difference protocol."""
        self.measure_calls += 1
        code = tuple(code)
        key = (
            code,
            tuple(sorted(init.items())) if init else None,
        )
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        return self._measure_miss(key, code, init)

    def measure_many(self, experiments: Sequence[Experiment]) -> List[Any]:
        """Batch entry point of the executor protocol.

        An :class:`~repro.core.experiment.Experiment`'s identity tuple is
        already the backend's cache key (same normalization), so the
        per-call key construction of :meth:`measure` is hoisted away;
        per-experiment errors become
        :class:`~repro.core.experiment.ExperimentFailure` outcomes so one
        bad chain cannot abort the rest of a batch.
        """
        outcomes: List[Any] = []
        for experiment in experiments:
            self.measure_calls += 1
            key = (experiment.code, experiment.init)
            cached = self._cache.get(key)
            if cached is not None:
                outcomes.append(cached)
                continue
            try:
                outcomes.append(
                    self._measure_miss(
                        key, experiment.code, experiment.init_dict()
                    )
                )
            except Exception as error:
                outcomes.append(
                    ExperimentFailure(
                        error,
                        key=experiment.content_key(),
                        tag=experiment.tag,
                    )
                )
        return outcomes

    def _measure_miss(
        self,
        key,
        code: Tuple[Instruction, ...],
        init: Optional[Dict[str, int]],
    ) -> CounterValues:
        """Resolve a cache miss: memo probe, then simulation."""
        memo_key = None
        if self.memo is not None:
            memo_key = self.memo.key_for(
                self.uarch.name, self.config, code, init
            )
            data = self.memo.get(memo_key, self.uarch.name)
            if not self.memo.is_miss(data):
                self.memo_hits += 1
                per_copy = decode_counters(data)
                self._cache[key] = per_copy
                return per_copy
            self.memo_misses += 1
        if self._core.kernel == KERNEL_REFERENCE:
            per_copy = self._measure_reference(code, init)
        else:
            per_copy = self._measure_extrapolating(code, init)
        self._cache[key] = per_copy
        if self.memo is not None:
            self.memo.put(
                memo_key, self.uarch.name, encode_counters(per_copy)
            )
        return per_copy

    def _measure_reference(
        self,
        code: Tuple[Instruction, ...],
        init: Optional[Dict[str, int]],
    ) -> CounterValues:
        """The seed measurement loop, verbatim: every run simulated.

        Kept unshared with the measurement ladder so that
        ``kernel="reference"`` exercises exactly the original code for
        differential testing.
        """
        cfg = self.config
        block = list(code)
        small = block * cfg.unroll_small
        large = block * cfg.unroll_large
        if cfg.warmup:
            self._core.run(small, init)
        totals: Optional[CounterValues] = None
        for _ in range(cfg.repeats):
            counters_small = self._core.run(small, init)
            counters_large = self._core.run(large, init)
            delta = counters_large - counters_small
            totals = delta if totals is None else _accumulate(totals, delta)
        assert totals is not None
        return totals.scaled(
            cfg.repeats * (cfg.unroll_large - cfg.unroll_small)
        )

    def _measure_extrapolating(
        self,
        code: Tuple[Instruction, ...],
        init: Optional[Dict[str, int]],
    ) -> CounterValues:
        """One pass down the ladder, collapsed repeats.

        The simulator is deterministic, so the warmup run and all but
        one repetition of the seed loop are byte-identical re-runs:
        their contribution is reconstructed exactly (integer deltas
        accumulated ``repeats`` times, then the same float division), so
        the result is bit-identical to :meth:`_measure_reference`.
        """
        cfg = self.config
        runs, stats = unrolled_counters(
            self._core, code, init, (cfg.unroll_small, cfg.unroll_large)
        )
        self._ladder.merge(stats)
        delta = runs[cfg.unroll_large] - runs[cfg.unroll_small]
        totals = delta
        for _ in range(cfg.repeats - 1):
            totals = _accumulate(totals, delta)
        return totals.scaled(
            cfg.repeats * (cfg.unroll_large - cfg.unroll_small)
        )

    def supports(self, form: InstructionForm) -> bool:
        return self._core.supports(form)


def _accumulate(a: CounterValues, b: CounterValues) -> CounterValues:
    ports = {
        p: a.port_uops.get(p, 0) + b.port_uops.get(p, 0)
        for p in set(a.port_uops) | set(b.port_uops)
    }
    return CounterValues(
        cycles=a.cycles + b.cycles,
        port_uops=ports,
        uops=a.uops + b.uops,
        instructions=a.instructions + b.instructions,
        uops_fused=a.uops_fused + b.uops_fused,
    )
