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

Every backend has one entry point, ``measure(code, init)``.  It keeps no
in-process cache of finished measurements: the experiment executor's
memo (:mod:`repro.measure.executor`) is the one, so a repeat reaches a
backend only when a caller measures outside an executor.

Contract (enforced by ``repro lint``, RPR130): measurement entry points
here raise only the :class:`BackendError` taxonomy (transient /
permanent / timeout) — the executor's retry logic and the sweep
engine's quarantine dispatch on those exact types, so a foreign
exception escaping a backend bypasses both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Protocol, Sequence, Tuple

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
    """

    unroll_small: int = 5
    unroll_large: int = 25
    repeats: int = 1
    warmup: bool = True

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


class MeasurementBackend(Protocol):
    """What the inference algorithms need from an execution substrate.

    :meth:`measure` is the one measurement entry point: the executor
    (:class:`~repro.measure.executor.ExperimentExecutor`) calls it once
    per distinct experiment and keeps the outcome, so a backend holds
    no cache of finished measurements of its own.
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

    Each :meth:`measure` call that reaches the backend is one the
    executor's memo has not answered yet.  It is served, in order, by

    1. an optional persistent, cross-process
       :class:`~repro.core.cache.MeasurementMemo` (injected — typically
       by the sweep engine — so pool workers share the blocking/chain
       sub-measurements instead of each re-simulating them),
    2. the simulator itself.  Both unroll factors of Algorithm 2 come
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
        self._core = Core(uarch, kernel=kernel)
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

    def snapshot(self) -> RunStatistics:
        """This backend's counters so far (fold deltas of two of them)."""
        snapshot = RunStatistics(
            memo_hits=self.memo_hits,
            memo_misses=self.memo_misses,
            cycles_simulated=self._core.cycles_simulated,
        )
        snapshot.merge(self._ladder)
        return snapshot

    def measure(
        self,
        code: Sequence[Instruction],
        init: Optional[Dict[str, int]] = None,
    ) -> CounterValues:
        """Per-copy average counters using the unroll-difference protocol:
        the persistent memo's entry when it has one, else a simulation
        (recorded in the memo)."""
        self.measure_calls += 1
        code = tuple(code)
        memo_key = None
        if self.memo is not None:
            memo_key = self.memo.key_for(
                self.uarch.name, self.config, code, init
            )
            data = self.memo.get(memo_key, self.uarch.name)
            if not self.memo.is_miss(data):
                self.memo_hits += 1
                return decode_counters(data)
            self.memo_misses += 1
        if self._core.kernel == KERNEL_REFERENCE:
            per_copy = self._measure_reference(code, init)
        else:
            per_copy = self._measure_extrapolating(code, init)
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
