"""Chaos tests: deterministic fault injection across the sweep stack.

Every fault-tolerance mechanism is exercised against the seedable
:mod:`repro.measure.faults` harness rather than against luck: executor
retries recover bit-identical results from transient faults, permanent
faults quarantine exactly the listed form, a form that keeps killing
its pool workers is quarantined, and a crashed sweep resumes from the
persistent cache.
"""

import xml.etree.ElementTree as ET

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.cache import MeasurementMemo, ResultCache
from repro.core.codegen import independent_sequence
from repro.core.experiment import ExperimentBatch, ExperimentFailure
from repro.core.html_output import results_to_html
from repro.core.runner import CharacterizationRunner, FormFailure
from repro.core.sweep import SweepEngine
from repro.core.xml_output import results_to_xml
from repro.measure import (
    BackendError,
    BackendTimeout,
    PermanentBackendError,
    TransientBackendError,
)
from repro.measure.backend import HardwareBackend
from repro.measure.executor import (
    RETRY_ENV,
    ExperimentExecutor,
    RetryPolicy,
)
from repro.measure.faults import (
    FAULTS_ENV,
    FaultPlan,
    FaultyBackend,
    maybe_faulty,
)
from repro.pipeline.core import CounterValues
from repro.uarch.configs import get_uarch

#: Retry aggressively with zero backoff — tests should not sleep.
FAST_RETRY = RetryPolicy(max_attempts=4, base_delay=0.0, max_delay=0.0)

#: DIV_M16 and MULPD_XMM_M128 are deliberate targets: memory-operand
#: forms are not blocking-discovery candidates, so permanently failing
#: them cannot perturb any *other* form's port-usage measurement.
UIDS = (
    "ADD_R64_R64",
    "AND_R64_R64",
    "DIV_M16",
    "MULPD_XMM_M128",
    "NOP",
    "OR_R64_R64",
    "SUB_R64_R64",
    "XOR_R64_R64",
)


def _forms(db, uids=UIDS):
    return [db.by_uid(uid) for uid in uids]


@pytest.fixture(scope="module")
def memo_dir(tmp_path_factory, db):
    """A measurement memo pre-warmed with the blocking discovery, so
    every sweep worker and faulty backend in this module decodes the
    catalog-wide measurements instead of re-simulating them."""
    path = str(tmp_path_factory.mktemp("memo"))
    backend = HardwareBackend(
        get_uarch("SKL"), memo=MeasurementMemo(path)
    )
    _ = CharacterizationRunner(backend, db).blocking
    return path


def _engine(db, memo_dir, **kwargs):
    return SweepEngine(
        "SKL", db, measure_memo=MeasurementMemo(memo_dir), **kwargs
    )


@pytest.fixture(scope="module")
def reference(db, memo_dir):
    """Fault-free characterizations of the module's sample."""
    return _engine(db, memo_dir).sweep(_forms(db))


# ---------------------------------------------------------------------------
# The fault plan itself
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_parse_full_spec(self):
        plan = FaultPlan.parse(
            "seed=7, transient=0.25, transient_attempts=2, timeout=0.1,"
            "noise=0.5, noise_cycles=3, permanent=A+B, kill=C,"
            "kill_once=D"
        )
        assert plan.seed == 7
        assert plan.transient == 0.25
        assert plan.transient_attempts == 2
        assert plan.timeout == 0.1
        assert plan.noise == 0.5
        assert plan.noise_cycles == 3
        assert plan.permanent == ("A", "B")
        assert plan.kill == ("C",)
        assert plan.kill_once == ("D",)

    def test_parse_defaults_and_empty(self):
        assert FaultPlan.parse("") == FaultPlan()
        assert FaultPlan.parse("seed=3") == FaultPlan(seed=3)

    def test_parse_rejects_unknown_key(self):
        with pytest.raises(ValueError, match="unknown fault spec key"):
            FaultPlan.parse("explode=1")
        with pytest.raises(ValueError, match="unknown fault spec key"):
            FaultPlan.parse("stall=NOP:3")

    def test_parse_rejects_non_assignment(self):
        with pytest.raises(ValueError, match="not key=value"):
            FaultPlan.parse("transient")

    def test_kill_semantics(self):
        plan = FaultPlan.parse("kill=A,kill_once=B")
        assert plan.should_kill("A", respawned=False)
        assert plan.should_kill("A", respawned=True)
        assert plan.should_kill("B", respawned=False)
        assert not plan.should_kill("B", respawned=True)
        assert not plan.should_kill("C", respawned=False)

    def test_permanent_matches_single_form_content(self, db):
        plan = FaultPlan.parse("permanent=NOP")
        nops = independent_sequence(db.by_uid("NOP"), 4)
        adds = independent_sequence(db.by_uid("ADD_R64_R64"), 4)
        assert plan.permanent_fault(nops) == "NOP"
        assert plan.permanent_fault(adds) is None
        assert plan.permanent_fault(list(nops) + list(adds)) is None
        assert plan.permanent_fault([]) is None

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32), key=st.text(max_size=30))
    def test_decisions_deterministic(self, seed, key):
        a = FaultPlan(seed=seed, transient=0.5, timeout=0.2, noise=0.5)
        b = FaultPlan(seed=seed, transient=0.5, timeout=0.2, noise=0.5)
        assert a.transient_fault(key) is b.transient_fault(key)
        assert a.noisy(key) == b.noisy(key)


class TestTaxonomy:
    def test_timeout_is_transient(self):
        assert issubclass(BackendTimeout, TransientBackendError)
        assert issubclass(TransientBackendError, BackendError)
        assert issubclass(PermanentBackendError, BackendError)
        assert not issubclass(PermanentBackendError, TransientBackendError)

    def test_not_rooted_in_runtime_error(self):
        # latency.py falls back on ``except RuntimeError`` for chain
        # construction; backend faults must never be swallowed there.
        assert not issubclass(BackendError, RuntimeError)


# ---------------------------------------------------------------------------
# The faulty backend wrapper (against a stub — no simulator)
# ---------------------------------------------------------------------------


class _StubBackend:
    name = "stub"

    def __init__(self):
        self.calls = 0

    def measure(self, code, init=None):
        self.calls += 1
        return CounterValues(
            cycles=10.0, port_uops={0: 1.0}, uops=1.0, instructions=1
        )


class TestFaultyBackend:
    def test_transient_is_attempt_bounded(self, db):
        stub = _StubBackend()
        faulty = FaultyBackend(
            stub,
            FaultPlan.parse("transient=1.0,transient_attempts=2"),
        )
        code = independent_sequence(db.by_uid("NOP"), 2)
        with pytest.raises(TransientBackendError):
            faulty.measure(code)
        with pytest.raises(TransientBackendError):
            faulty.measure(code)
        assert faulty.measure(code).cycles == 10.0
        assert stub.calls == 1
        assert faulty.faults_injected == 2

    def test_timeout_raises_backend_timeout(self, db):
        faulty = FaultyBackend(
            _StubBackend(), FaultPlan.parse("timeout=1.0")
        )
        with pytest.raises(BackendTimeout):
            faulty.measure(independent_sequence(db.by_uid("NOP"), 2))

    def test_noise_perturbs_cycles_only(self, db):
        code = independent_sequence(db.by_uid("NOP"), 2)
        clean = _StubBackend().measure(code)
        noisy = FaultyBackend(
            _StubBackend(),
            FaultPlan.parse("noise=1.0,noise_cycles=4"),
        ).measure(code)
        assert noisy.cycles > clean.cycles
        assert noisy.cycles <= clean.cycles + 4
        assert noisy.uops == clean.uops
        assert noisy.port_uops == clean.port_uops

    def test_measure_many_fallback_without_inner_batch(self, db):
        faulty = FaultyBackend(
            _StubBackend(), FaultPlan.parse("permanent=NOP")
        )
        batch = ExperimentBatch()
        failing = batch.add(
            independent_sequence(db.by_uid("NOP"), 4), tag="iso:NOP"
        )
        passing = batch.add(
            independent_sequence(db.by_uid("ADD_R64_R64"), 4),
            tag="iso:ADD_R64_R64",
        )
        outcomes = faulty.measure_many(list(batch))
        assert isinstance(outcomes[0], ExperimentFailure)
        assert isinstance(outcomes[0].error, PermanentBackendError)
        assert outcomes[0].tag == "iso:NOP"
        assert outcomes[0].key == failing.content_key()
        assert outcomes[1].cycles == 10.0
        assert passing.content_key() != failing.content_key()

    def test_delegates_other_attributes(self):
        stub = _StubBackend()
        faulty = FaultyBackend(stub, FaultPlan())
        assert faulty.name == "stub"
        assert faulty.inner is stub


class TestActivation:
    def test_inert_without_spec(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        stub = _StubBackend()
        assert maybe_faulty(stub) is stub
        assert maybe_faulty(stub, None) is stub

    def test_explicit_spec_wraps(self):
        wrapped = maybe_faulty(_StubBackend(), "transient=0.5")
        assert isinstance(wrapped, FaultyBackend)
        assert wrapped.plan.transient == 0.5

    def test_environment_spec_wraps(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "seed=9,timeout=0.1")
        wrapped = maybe_faulty(_StubBackend())
        assert isinstance(wrapped, FaultyBackend)
        assert wrapped.plan == FaultPlan(seed=9, timeout=0.1)

    def test_engine_reads_environment(self, db, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "seed=9")
        assert SweepEngine("SKL", db).fault_spec == "seed=9"
        monkeypatch.delenv(FAULTS_ENV)
        assert SweepEngine("SKL", db).fault_spec is None


# ---------------------------------------------------------------------------
# Retry policy and executor integration
# ---------------------------------------------------------------------------


class TestRetryPolicy:
    def test_delay_capped_and_deterministic(self):
        policy = RetryPolicy(
            max_attempts=5, base_delay=0.1, max_delay=0.4, jitter=0.25
        )
        assert policy.delay_for(1, "x") == policy.delay_for(1, "x")
        assert policy.delay_for(1, "x") != policy.delay_for(1, "y")
        for attempt in range(1, 10):
            assert policy.delay_for(attempt, "x") <= 0.4 * 1.25

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv(RETRY_ENV, "5:0.1:0.5")
        assert RetryPolicy.from_env() == RetryPolicy(
            max_attempts=5, base_delay=0.1, max_delay=0.5
        )
        monkeypatch.setenv(RETRY_ENV, "nope")
        with pytest.raises(ValueError, match="bad REPRO_RETRY"):
            RetryPolicy.from_env()
        monkeypatch.delenv(RETRY_ENV)
        assert RetryPolicy.from_env() == RetryPolicy()

    def test_executor_retry_counters(self, db):
        faulty = FaultyBackend(
            _StubBackend(),
            FaultPlan.parse("transient=1.0,transient_attempts=2"),
        )
        executor = ExperimentExecutor(faulty, retry=FAST_RETRY)
        batch = ExperimentBatch()
        handle = batch.add(
            independent_sequence(db.by_uid("NOP"), 2), tag="iso:NOP"
        )
        results = executor.execute(batch)
        assert results[handle].cycles == 10.0
        assert executor.retries == 2
        assert executor.experiments_gave_up == 0

    def test_exhausted_retries_give_up_with_chained_error(self, db):
        faulty = FaultyBackend(
            _StubBackend(),
            FaultPlan.parse("transient=1.0,transient_attempts=99"),
        )
        executor = ExperimentExecutor(faulty, retry=FAST_RETRY)
        batch = ExperimentBatch()
        handle = batch.add(
            independent_sequence(db.by_uid("NOP"), 2), tag="iso:NOP"
        )
        results = executor.execute(batch)
        assert executor.experiments_gave_up == 1
        with pytest.raises(TransientBackendError) as excinfo:
            results[handle]
        error = excinfo.value
        assert error.__cause__ is not None
        assert error.experiment_tag == "iso:NOP"
        assert error.attempts == FAST_RETRY.max_attempts
        assert f"after {FAST_RETRY.max_attempts} attempt(s)" in str(error)
        assert error.experiment_key in str(error)

    def test_permanent_failures_never_retried(self, db):
        stub = _StubBackend()
        faulty = FaultyBackend(stub, FaultPlan.parse("permanent=NOP"))
        executor = ExperimentExecutor(faulty, retry=FAST_RETRY)
        batch = ExperimentBatch()
        handle = batch.add(
            independent_sequence(db.by_uid("NOP"), 4), tag="iso:NOP"
        )
        results = executor.execute(batch)
        assert executor.retries == 0
        with pytest.raises(PermanentBackendError):
            results[handle]


# ---------------------------------------------------------------------------
# Full characterizations under fault (real simulator, warm memo)
# ---------------------------------------------------------------------------


@pytest.mark.slow
class TestRecovery:
    def test_retry_then_succeed_is_bit_identical(
        self, db, memo_dir, reference
    ):
        inner = HardwareBackend(
            get_uarch("SKL"), memo=MeasurementMemo(memo_dir)
        )
        faulty = FaultyBackend(
            inner,
            FaultPlan.parse("seed=5,transient=1.0,transient_attempts=2"),
        )
        runner = CharacterizationRunner(
            faulty, db,
            executor=ExperimentExecutor(faulty, retry=FAST_RETRY),
        )
        outcome = runner.characterize(db.by_uid("ADD_R64_R64"))
        assert outcome == reference["ADD_R64_R64"]
        assert runner.executor.retries > 0
        assert runner.executor.experiments_gave_up == 0
        assert faulty.faults_injected > 0

    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(0, 2**16))
    def test_transient_faults_are_invisible(
        self, seed, db, memo_dir, reference
    ):
        """The acceptance property: a transient-only chaos run whose
        retry budget exceeds the fault budget is bit-identical to a
        fault-free run, with zero quarantined forms."""
        inner = HardwareBackend(
            get_uarch("SKL"), memo=MeasurementMemo(memo_dir)
        )
        faulty = FaultyBackend(
            inner,
            FaultPlan(
                seed=seed, transient=0.3, timeout=0.1,
                transient_attempts=2,
            ),
        )
        runner = CharacterizationRunner(
            faulty, db,
            executor=ExperimentExecutor(faulty, retry=FAST_RETRY),
        )
        outcome = runner.characterize_resilient(db.by_uid("DIV_M16"))
        assert not isinstance(outcome, FormFailure)
        assert outcome == reference["DIV_M16"]
        assert runner.statistics.forms_failed == 0

    def test_give_up_quarantines_with_attempt_count(self, db, memo_dir):
        inner = HardwareBackend(
            get_uarch("SKL"), memo=MeasurementMemo(memo_dir)
        )
        faulty = FaultyBackend(
            inner,
            FaultPlan.parse("transient=1.0,transient_attempts=99"),
        )
        runner = CharacterizationRunner(
            faulty, db,
            executor=ExperimentExecutor(faulty, retry=FAST_RETRY),
        )
        outcome = runner.characterize_resilient(db.by_uid("DIV_M16"))
        assert isinstance(outcome, FormFailure)
        assert outcome.uid == "DIV_M16"
        assert outcome.error_type == "TransientBackendError"
        assert outcome.attempts == FAST_RETRY.max_attempts
        assert runner.statistics.forms_failed == 1
        assert runner.executor.experiments_gave_up > 0


class TestQuarantine:
    def test_permanent_fault_quarantines_exactly_that_form(
        self, db, memo_dir, reference
    ):
        engine = _engine(db, memo_dir, fault_spec="permanent=DIV_M16")
        results = engine.sweep(_forms(db))
        assert sorted(engine.failures) == ["DIV_M16"]
        failure = engine.failures["DIV_M16"]
        assert failure.phase == "iso"
        assert failure.error_type == "PermanentBackendError"
        assert engine.statistics.forms_failed == 1
        assert "DIV_M16" not in results
        # Every other form is untouched by the quarantine.
        assert results == {
            uid: outcome for uid, outcome in reference.items()
            if uid != "DIV_M16"
        }

    def test_blocking_candidate_fault_degrades_discovery(
        self, db, memo_dir
    ):
        # NOP *is* a blocking-discovery candidate: its isolation twin is
        # measured under the ``blocking:`` tag first, the discovery skips
        # the unmeasurable candidate, and the form itself still
        # quarantines via the memoized failure.
        engine = _engine(db, memo_dir, fault_spec="permanent=NOP")
        results = engine.sweep(_forms(db, ("ADD_R64_R64", "NOP")))
        assert sorted(engine.failures) == ["NOP"]
        assert engine.failures["NOP"].phase == "blocking"
        assert "ADD_R64_R64" in results

    def test_quarantined_forms_not_cached_and_resumable(
        self, db, memo_dir, reference, tmp_path
    ):
        cache_dir = str(tmp_path)
        crashed = _engine(
            db, memo_dir,
            cache=ResultCache(cache_dir),
            fault_spec="permanent=DIV_M16",
        )
        crashed.sweep(_forms(db))
        assert sorted(crashed.failures) == ["DIV_M16"]

        resumed = _engine(db, memo_dir, cache=ResultCache(cache_dir))
        results = resumed.sweep(_forms(db))
        assert resumed.failures == {}
        assert resumed.statistics.cache_hits == len(UIDS) - 1
        assert resumed.statistics.characterized == 1
        assert results == reference


# ---------------------------------------------------------------------------
# Worker supervision on the pool path (multiprocess)
# ---------------------------------------------------------------------------


@pytest.mark.slow
class TestPoolSupervision:
    """Pool-path supervision: the resume after a lost form.

    Killed and poisoned workers are covered by
    ``tests/test_sweep_engine.py::TestPool``.
    """

    def test_resume_after_worker_loss(
        self, db, memo_dir, reference, tmp_path
    ):
        cache_dir = str(tmp_path)
        crashed = _engine(
            db, memo_dir, jobs=2,
            cache=ResultCache(cache_dir), fault_spec="kill=NOP",
        )
        partial = crashed.sweep(_forms(db))
        assert crashed.failures
        assert len(partial) == len(UIDS) - len(crashed.failures)

        resumed = _engine(
            db, memo_dir, jobs=2, cache=ResultCache(cache_dir)
        )
        results = resumed.sweep(_forms(db))
        assert resumed.failures == {}
        assert results == reference
        assert resumed.statistics.cache_hits == len(partial)


# ---------------------------------------------------------------------------
# Cache corruption hygiene
# ---------------------------------------------------------------------------


class TestCacheCorruption:
    def _seed_cache(self, db, memo_dir, cache_dir):
        engine = _engine(
            db, memo_dir, cache=ResultCache(cache_dir)
        )
        return engine.sweep(_forms(db, ("ADD_R64_R64", "NOP")))

    @pytest.mark.parametrize(
        "garbage, problem",
        [
            # An unparsable *final* line is crash residue: classified
            # as a torn tail, truncate-recoverable — not corruption.
            ("{truncated", "torn"),
            ("[1, 2, 3]", "corrupt"),          # valid JSON, wrong shape
            ('{"key": 7, "data": {}}', "corrupt"),   # non-string key
            ('{"key": "abc"}', "corrupt"),     # missing data field
            # A well-formed envelope without (or with a wrong) CRC is
            # corruption too: the body cannot be trusted.
            ('{"key": "abc", "data": null, "salt": "s"}', "corrupt"),
            ("", "clean"),                     # blank line
        ],
    )
    def test_corrupt_lines_skipped_and_counted(
        self, db, memo_dir, tmp_path, garbage, problem
    ):
        cache_dir = str(tmp_path)
        seeded = self._seed_cache(db, memo_dir, cache_dir)
        cache = ResultCache(cache_dir)
        with open(cache.path_for("SKL"), "a+") as handle:
            handle.write(garbage + "\n")
        warm = _engine(db, memo_dir, cache=ResultCache(cache_dir))
        results = warm.sweep(_forms(db, ("ADD_R64_R64", "NOP")))
        assert results == seeded
        assert warm.statistics.corrupt_lines == (
            1 if problem == "corrupt" else 0
        )
        assert warm.statistics.torn_tails == (
            1 if problem == "torn" else 0
        )
        assert warm.statistics.cache_hits == 2

    def test_malformed_payload_is_remeasured(
        self, db, memo_dir, tmp_path
    ):
        from repro.core.journal import encode_entry

        cache_dir = str(tmp_path)
        seeded = self._seed_cache(db, memo_dir, cache_dir)
        cache = ResultCache(cache_dir)
        key = cache.key_for(
            "NOP", "SKL",
            _engine(db, memo_dir).config,
        )
        # A well-formed, correctly checksummed line whose payload is
        # not a characterization: survives line-level checks, fails at
        # decode time.
        with open(cache.path_for("SKL"), "a+") as handle:
            handle.write(encode_entry({
                "salt": cache.salt, "key": key, "uid": "NOP",
                "uarch": "SKL", "data": {"nonsense": True},
            }) + "\n")
        warm = _engine(db, memo_dir, cache=ResultCache(cache_dir))
        results = warm.sweep(_forms(db, ("ADD_R64_R64", "NOP")))
        assert results == seeded
        assert warm.statistics.corrupt_lines == 1
        assert warm.statistics.cache_misses == 1


# ---------------------------------------------------------------------------
# Failure-annotated outputs
# ---------------------------------------------------------------------------


_FAILURE = FormFailure(
    uid="DIV_M16", phase="iso",
    error_type="PermanentBackendError",
    message="injected permanent fault on DIV_M16",
    attempts=3, shard=1,
)


class TestAnnotatedOutputs:
    def test_xml_failure_element(self, db, reference):
        root = results_to_xml(
            {"SKL": {"NOP": reference["NOP"]}}, db,
            failures={"SKL": {"DIV_M16": _FAILURE}},
        )
        node = root.find(
            "instruction[@string='DIV_M16']/architecture/failure"
        )
        assert node is not None
        assert node.get("phase") == "iso"
        assert node.get("error_type") == "PermanentBackendError"
        assert node.get("attempts") == "3"
        assert node.get("shard") == "1"
        assert "injected permanent fault" in node.get("message")
        # The quarantined form has no measurement element.
        assert root.find(
            "instruction[@string='DIV_M16']/architecture/measurement"
        ) is None
        assert root.find(
            "instruction[@string='NOP']/architecture/measurement"
        ) is not None

    def test_xml_without_failures_is_byte_identical(self, db, reference):
        results = {"SKL": reference}
        plain = ET.tostring(results_to_xml(results, db))
        with_arg = ET.tostring(
            results_to_xml(results, db, failures={})
        )
        assert plain == with_arg

    def test_html_quarantine_cell(self, db, reference):
        page = results_to_html(
            {"SKL": {"NOP": reference["NOP"]}}, db,
            failures={"SKL": {"DIV_M16": _FAILURE}},
        )
        assert "quarantined (iso)" in page
        assert "PermanentBackendError after 3 attempt(s)" in page
        assert "DIV_M16" in page
        clean = results_to_html({"SKL": {"NOP": reference["NOP"]}}, db)
        assert "quarantined (" not in clean

    def test_form_failure_roundtrip_fields(self):
        record = _FAILURE.as_dict()
        assert record == {
            "uid": "DIV_M16", "phase": "iso",
            "error_type": "PermanentBackendError",
            "message": "injected permanent fault on DIV_M16",
            "attempts": 3, "shard": 1,
        }
        assert "DIV_M16" in _FAILURE.summary()
        assert "shard 1" in _FAILURE.summary()


class TestCli:
    def test_resume_requires_cache(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit, match="--resume"):
            main([
                "sweep", "SKL", "--sample", "1", "--resume",
                "--no-cache",
                "--output", str(tmp_path / "out.xml"),
            ])
