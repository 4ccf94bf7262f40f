"""Deterministic fault injection: the chaos harness of the sweep stack.

Real measurement campaigns fail in boring, predictable ways — a counter
read glitches, a machine hiccups, one instruction reliably wedges the
harness, a worker process dies mid-sweep (Section 5's per-instruction
pitfalls, at fleet scale).  Every fault-tolerance mechanism in this
repository (executor retries, form quarantine, worker replacement,
resumable caches) is tested against this module rather than against luck.

A :class:`FaultPlan` is parsed from a compact ``key=value`` spec, e.g. ::

    seed=7,transient=0.1,permanent=DIV_R64,kill_once=NOP

and is **deterministic**: whether a given measurement faults is a pure
function of ``(seed, fault kind, measurement content)``, so a faulty run
is exactly reproducible, and an injected *transient* fault strikes the
same experiments on every attempt-zero dispatch regardless of batch
order or worker assignment.

Supported keys:

``seed=N``
    Seed mixed into every fault decision (default 0).
``transient=P`` / ``transient_attempts=K``
    With probability *P* per experiment, raise
    :class:`~repro.measure.TransientBackendError` on that experiment's
    first *K* dispatches (default ``K=1``), then let it through — the
    retry-then-succeed shape.
``timeout=P``
    Like ``transient``, but raises :class:`~repro.measure.BackendTimeout`
    (a simulated hang; also bounded by ``transient_attempts``).
``noise=P`` / ``noise_cycles=N``
    With probability *P*, perturb the measured cycle counter by up to
    ``N`` cycles (default 1).  Noise does not raise, so it survives
    retries — it exists to probe result *validation*, not retry logic,
    and is never part of the bit-identical acceptance runs.
``permanent=UID[+UID...]``
    Fail every measurement consisting solely of the listed form with
    :class:`~repro.measure.PermanentBackendError` — forever.  That is
    each form's isolation and throughput experiments (latency chains
    and port-usage runs mix in other instructions), so exactly the
    listed forms are quarantined.  Matching is by measurement *content*
    rather than tag because the executor dedups content across tags:
    e.g. ``iso:NOP`` is served from the blocking discovery's
    ``blocking:iso:NOP`` twin.  A listed form that is a blocking-
    discovery *candidate* is skipped by the (fault-tolerant) discovery;
    note that listing a form that would have been **selected** as a
    blocking instruction changes other forms' port-usage measurements
    relative to a fault-free run — bit-identical comparisons should
    list non-candidate forms (e.g. memory-operand variants).
``kill=UID[+UID...]`` / ``kill_once=UID[+UID...]``
    Pool-worker crash (``os._exit``) when the worker is about to
    characterize the listed form.  The parent charges the form one
    attempt and hands it to the next idle worker.  ``kill_once`` does
    not fire on a form that already cost a worker (a transient machine
    loss); ``kill`` fires on every attempt, so the form is quarantined
    after :data:`~repro.core.sweep.MAX_FORM_ATTEMPTS` attempts.

Activation: the sweep engine and CLI consult ``REPRO_FAULTS`` (or the
explicit ``--fault-spec`` flag) via :func:`maybe_faulty`; nothing is ever
injected by default.

Beyond backend faults, this module also hosts the **crash-point
harness** of the persistence layer: ``REPRO_CRASH_POINT=site[:N]``
SIGKILLs the process (no interpreter cleanup — exactly a power-loss or
OOM-kill shape) the Nth time a named write site in
:mod:`repro.core.journal` is reached.  The site registry
:data:`CRASH_SITES` is re-exported from there, where it is derived from
each writer's declared site suffixes and the store-kind table, so a
new writer or kind cannot escape it; the crash-consistency suite
proves ``repro doctor`` plus a fault-free resume reconverges to
byte-identical output from every one of them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import signal
from typing import Dict, Optional, Sequence, Tuple

from repro import measure as _measure
from repro.core.journal import CRASH_POINT_ENV
# The registry of named crash points, derived in the journal.
from repro.core.journal import CRASH_SITES as CRASH_SITES
from repro.pipeline.core import CounterValues

#: Environment variable holding the fault spec (never set by default).
FAULTS_ENV = "REPRO_FAULTS"

#: Per-site hit counters of this process (``site:N`` kills on the Nth
#: hit, so earlier hits must be remembered).
_crash_hits: Dict[str, int] = {}


def parse_crash_spec(spec: str) -> Tuple[str, int]:
    """``"site"`` or ``"site:N"`` -> ``(site, N)`` (default ``N=1``)."""
    site, sep, nth = spec.partition(":")
    count = int(nth) if sep and nth else 1
    if count < 1:
        raise ValueError(f"crash point count must be >= 1: {spec!r}")
    return site, count


def crash_site_armed(site: str, spec: Optional[str] = None) -> bool:
    """Whether *site* is the armed crash site (ignoring the count)."""
    spec = spec if spec is not None else os.environ.get(CRASH_POINT_ENV)
    if not spec:
        return False
    return parse_crash_spec(spec)[0] == site


def crash_point(site: str) -> None:
    """SIGKILL this process when ``$REPRO_CRASH_POINT`` names *site*.

    SIGKILL (not ``os._exit``) so no buffered I/O, no ``atexit``, no
    ``finally`` blocks run — the harness models the harshest crash the
    persistence layer claims to survive.  Deterministic: the Nth hit of
    the named site kills, independent of timing.
    """
    spec = os.environ.get(CRASH_POINT_ENV)
    if not spec:
        return
    target, nth = parse_crash_spec(spec)
    if target != site:
        return
    _crash_hits[site] = _crash_hits.get(site, 0) + 1
    if _crash_hits[site] >= nth:
        os.kill(os.getpid(), signal.SIGKILL)


def reset_crash_counters() -> None:
    """Forget crash-point hits (test isolation between armed runs)."""
    _crash_hits.clear()


def _parse_uids(value: str) -> Tuple[str, ...]:
    return tuple(part for part in value.split("+") if part)


@dataclasses.dataclass(frozen=True)
class FaultPlan:
    """A parsed, seedable description of which faults to inject where."""

    seed: int = 0
    transient: float = 0.0
    transient_attempts: int = 1
    timeout: float = 0.0
    noise: float = 0.0
    noise_cycles: int = 1
    permanent: Tuple[str, ...] = ()
    kill: Tuple[str, ...] = ()
    kill_once: Tuple[str, ...] = ()

    _PARSERS = {
        "seed": int,
        "transient": float,
        "transient_attempts": int,
        "timeout": float,
        "noise": float,
        "noise_cycles": int,
        "permanent": _parse_uids,
        "kill": _parse_uids,
        "kill_once": _parse_uids,
    }

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse a ``key=value,key=value`` spec string."""
        values: Dict[str, object] = {}
        for item in spec.split(","):
            item = item.strip()
            if not item:
                continue
            key, sep, value = item.partition("=")
            if not sep:
                raise ValueError(
                    f"fault spec item {item!r} is not key=value"
                )
            if key in cls._PARSERS:
                values[key] = cls._PARSERS[key](value)
            else:
                raise ValueError(
                    f"unknown fault spec key {key!r} "
                    f"(known: {', '.join(sorted(cls._PARSERS))})"
                )
        return cls(**values)

    # -- deterministic decisions ---------------------------------------

    def _roll(self, kind: str, key: str) -> float:
        """A stable pseudo-random draw in [0, 1) for (seed, kind, key)."""
        digest = hashlib.sha256(
            f"{self.seed}:{kind}:{key}".encode("utf-8")
        ).digest()
        return int.from_bytes(digest[:8], "big") / 2**64

    def transient_fault(self, key: str) -> Optional[type]:
        """The transient error class striking *key*, or ``None``."""
        if self.timeout and self._roll("timeout", key) < self.timeout:
            return _measure.BackendTimeout
        if self.transient and self._roll("transient", key) < self.transient:
            return _measure.TransientBackendError
        return None

    def noisy(self, key: str) -> int:
        """Cycle perturbation for *key* (0 = no noise)."""
        if not self.noise or self._roll("noise", key) >= self.noise:
            return 0
        return 1 + int(
            self._roll("noise_cycles", key) * self.noise_cycles
        ) % max(1, self.noise_cycles)

    def permanent_fault(self, code: Sequence) -> Optional[str]:
        """The listed uid *code* consists solely of, or ``None``.

        Content-based (not tag-based) so the decision survives the
        executor's cross-tag deduplication — see the module docstring.
        """
        if not self.permanent or not code:
            return None
        uids = {instruction.form.uid for instruction in code}
        if len(uids) == 1:
            (uid,) = uids
            if uid in self.permanent:
                return uid
        return None

    def should_kill(self, uid: str, respawned: bool) -> bool:
        """Whether a sweep worker about to characterize *uid* crashes."""
        if uid in self.kill:
            return True
        return uid in self.kill_once and not respawned


def _content_key(code: Sequence, init) -> str:
    """The measurement-content identity fault decisions are keyed by —
    matches :func:`repro.core.cache.measurement_key`'s notion of content
    (form uid + concrete operands + init), minus uarch/config/salt."""
    parts = [f"{instruction.form.uid}|{instruction}" for instruction in code]
    if init:
        parts.append(repr(tuple(sorted(init.items()))))
    return ";".join(parts)


class FaultyBackend:
    """A measurement backend wrapper that injects planned faults.

    Wraps any backend implementing the
    :class:`~repro.measure.backend.MeasurementBackend` protocol; every
    attribute other than :meth:`measure` delegates to the
    wrapped backend, so statistics, configuration, and ``supports``
    behave exactly as without faults.

    Transient faults are **attempt-bounded**: the wrapper counts how
    often each measurement content was dispatched and stops injecting
    after :attr:`FaultPlan.transient_attempts` strikes, so an executor
    whose retry budget exceeds the fault budget recovers bit-identical
    results — the property the chaos tests pin.
    """

    def __init__(self, inner, plan: FaultPlan):
        self.inner = inner
        self.plan = plan
        #: Dispatch count per measurement content (for attempt-bounded
        #: transient faults).
        self._attempts: Dict[str, int] = {}
        #: Injection counters, for tests and curiosity.
        self.faults_injected = 0

    def __getattr__(self, name):
        return getattr(self.inner, name)

    # -- fault core ----------------------------------------------------

    def _fault_for(self, key: str, code) -> Optional[Exception]:
        """The exception to inject for one dispatch, or ``None``."""
        permanent_uid = self.plan.permanent_fault(code)
        if permanent_uid is not None:
            self.faults_injected += 1
            return _measure.PermanentBackendError(
                f"injected permanent fault on {permanent_uid}"
            )
        attempt = self._attempts.get(key, 0)
        self._attempts[key] = attempt + 1
        error_class = self.plan.transient_fault(key)
        if (
            error_class is not None
            and attempt < self.plan.transient_attempts
        ):
            self.faults_injected += 1
            return error_class(
                f"injected {error_class.__name__} "
                f"(attempt {attempt + 1}): {key[:60]}"
            )
        return None

    def _perturb(self, key: str, counters):
        delta = self.plan.noisy(key)
        if not delta:
            return counters
        self.faults_injected += 1
        return CounterValues(
            cycles=counters.cycles + delta,
            port_uops=dict(counters.port_uops),
            uops=counters.uops,
            instructions=counters.instructions,
            uops_fused=counters.uops_fused,
        )

    # -- measurement protocol ------------------------------------------

    def measure(self, code, init=None):
        key = _content_key(code, init)
        fault = self._fault_for(key, code)
        if fault is not None:
            raise fault
        return self._perturb(key, self.inner.measure(code, init))


def maybe_faulty(backend, spec: Optional[str] = None):
    """Wrap *backend* in a :class:`FaultyBackend` when a fault spec is
    given explicitly or via ``REPRO_FAULTS``; otherwise return it as-is.
    """
    spec = spec if spec is not None else os.environ.get(FAULTS_ENV)
    if not spec:
        return backend
    return FaultyBackend(backend, FaultPlan.parse(spec))
