"""Differential tests for the parallel sweep engine.

The engine's contract is bit-identical results: serial runner, jobs=1,
jobs=N, cold cache, and warm cache must all produce exactly the same
characterizations, and a warm sweep must perform zero backend
measurements.  The pool's own guarantees are pinned too: a form that
kills its workers is quarantined without charging any other form, a
transient worker loss is invisible in the results, and no worker
outlives a killed parent.
"""

import dataclasses
import json
import multiprocessing
import os
import pickle
import signal
import time
import xml.etree.ElementTree as ET
from typing import Callable

import pytest

from repro.cli import _print_cache_stats, build_parser
from repro.core import sweep as sweep_module
from repro.core.cache import MeasurementMemo, ResultCache, cache_key
from repro.core.experiment import ExperimentFailure
from repro.core.journal import CRASH_POINT_ENV
from repro.core.runner import CharacterizationRunner, FormFailure
from repro.core.sweep import MAX_FORM_ATTEMPTS, SweepEngine, _WorkerPayload
from repro.core.xml_output import results_to_xml
from repro.measure import PermanentBackendError
from repro.measure.backend import HardwareBackend, MeasurementConfig
from repro.stats import RunStatistics
from repro.uarch.configs import get_uarch

#: Sampled so the differential covers ALU, vector, divider, branch,
#: serializing, latency edge cases (SHLD), and an unmeasurable form.
SAMPLE_UIDS = (
    "ADD_R64_R64",
    "ADDPS_XMM_XMM",
    "AESDEC_XMM_XMM",
    "CPUID",
    "DIV_R64",
    "IMUL_R64_R64",
    "JE_I8",
    "NOP",
    "SHLD_R64_R64_I8",
    "UD2",  # unmeasurable: exercises skip markers in the cache
)
NHM_UIDS = ("ADD_R64_R64", "BSWAP_R64", "DIV_R64", "NOP", "PUSH_R64",
            "UD2")


def _forms(db, uids):
    return [db.by_uid(uid) for uid in uids]


@pytest.fixture(scope="module")
def serial_results(db):
    """Serial baseline on the reference loop.  Engines and workers run
    the default ladder, so every equality against this baseline also
    compares the two across a whole sweep."""
    backend = HardwareBackend(get_uarch("SKL"), kernel="reference")
    runner = CharacterizationRunner(backend, db)
    return runner.characterize_all(_forms(db, SAMPLE_UIDS))


@pytest.mark.slow
class TestDifferential:
    def test_jobs1_matches_serial(self, db, skl_backend, serial_results):
        engine = SweepEngine("SKL", db, backend=skl_backend)
        assert engine.sweep(_forms(db, SAMPLE_UIDS)) == serial_results

    def test_jobs4_matches_serial(self, db, serial_results):
        engine = SweepEngine("SKL", db, jobs=4)
        results = engine.sweep(_forms(db, SAMPLE_UIDS))
        assert results == serial_results
        assert engine.statistics.characterized == len(serial_results)
        assert engine.statistics.skipped == 1  # UD2

    def test_cold_then_warm_cache(self, db, skl_backend, serial_results,
                                  tmp_path):
        cold = SweepEngine("SKL", db, backend=skl_backend,
                           cache=ResultCache(str(tmp_path)))
        assert cold.sweep(_forms(db, SAMPLE_UIDS)) == serial_results
        assert cold.statistics.cache_misses == len(SAMPLE_UIDS)
        assert cold.statistics.cache_hits == 0

        warm = SweepEngine("SKL", db, cache=ResultCache(str(tmp_path)))
        assert warm.sweep(_forms(db, SAMPLE_UIDS)) == serial_results
        assert warm.statistics.cache_hits == len(SAMPLE_UIDS)
        assert warm.statistics.cache_misses == 0

    def test_second_uarch(self, db, nhm_backend, tmp_path):
        serial = CharacterizationRunner(
            nhm_backend, db
        ).characterize_all(_forms(db, NHM_UIDS))
        cache = ResultCache(str(tmp_path))
        cold = SweepEngine("NHM", db, jobs=2, cache=cache)
        assert cold.sweep(_forms(db, NHM_UIDS)) == serial
        warm = SweepEngine("NHM", db, jobs=2,
                           cache=ResultCache(str(tmp_path)))
        assert warm.sweep(_forms(db, NHM_UIDS)) == serial


def _xml(db, results):
    return ET.tostring(results_to_xml({"SKL": results}, db))


def _running(pid):
    """Whether *pid* is a live process (an unreaped zombie is not)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _crashing_sweep_child(root, pid_log, db):
    """A jobs=2 sweep whose parent SIGKILLs itself on its first cache
    write, after logging the pid of every worker it starts."""
    real_worker = sweep_module._pool_worker

    def logged_worker(*args):
        with open(pid_log, "a", encoding="utf-8") as handle:
            handle.write(f"{os.getpid()}\n")
        real_worker(*args)

    sweep_module._pool_worker = logged_worker
    os.environ[CRASH_POINT_ENV] = "cache.post-append"
    SweepEngine(
        "SKL", db, jobs=2,
        cache=ResultCache(root), measure_memo=MeasurementMemo(root),
    ).sweep(_forms(db, SAMPLE_UIDS))


class TestPool:
    """What the pool promises beyond bit-identical results."""

    @pytest.mark.slow
    def test_kill_quarantines_exactly_the_form(self, db, serial_results):
        # NOP kills every worker it is handed to: it is quarantined
        # after MAX_FORM_ATTEMPTS workers.  Three respawns means three
        # charged attempts in all, so no other form was charged one.
        engine = SweepEngine("SKL", db, jobs=2, fault_spec="kill=NOP")
        results = engine.sweep(_forms(db, SAMPLE_UIDS))
        assert list(engine.failures) == ["NOP"]
        failure = engine.failures["NOP"]
        assert (failure.error_type, failure.phase, failure.attempts) == (
            "WorkerLost", "pool", MAX_FORM_ATTEMPTS,
        )
        assert engine.statistics.drainers_respawned == MAX_FORM_ATTEMPTS
        survivors = {
            uid: outcome for uid, outcome in serial_results.items()
            if uid != "NOP"
        }
        assert _xml(db, results) == _xml(db, survivors)

    @pytest.mark.slow
    def test_kill_once_gives_the_serial_result(self, db, serial_results):
        # The worker holding NOP dies once; NOP goes to the next idle
        # worker, which kill_once spares.
        engine = SweepEngine("SKL", db, jobs=2, fault_spec="kill_once=NOP")
        results = engine.sweep(_forms(db, SAMPLE_UIDS))
        assert engine.failures == {}
        assert engine.statistics.drainers_respawned == 1
        assert engine.statistics.characterized == len(serial_results)
        assert _xml(db, results) == _xml(db, serial_results)

    def test_quarantine_output_names_no_worker(self, db):
        # Which worker held the quarantined form must not show: the XML
        # is byte-identical to the serial sweep's, and the summary names
        # the phase that failed.
        forms = _forms(db, ("ADD_R64_R64", "DIV_M16", "NOP"))
        outputs = []
        for jobs in (1, 2):
            engine = SweepEngine(
                "SKL", db, jobs=jobs, fault_spec="permanent=DIV_M16"
            )
            results = engine.sweep(forms)
            assert list(engine.failures) == ["DIV_M16"]
            summary = engine.failures["DIV_M16"].summary()
            assert summary.startswith("DIV_M16: quarantined in iso "), summary
            outputs.append(ET.tostring(results_to_xml(
                {"SKL": results}, db, failures={"SKL": engine.failures}
            )))
        assert b"<failure " in outputs[0]
        assert outputs[0] == outputs[1]

    @pytest.mark.slow
    @pytest.mark.skipif(
        not os.path.isdir("/proc"), reason="reads process states in /proc"
    )
    def test_no_worker_outlives_a_killed_parent(self, db, tmp_path):
        pid_log = str(tmp_path / "workers.log")
        child = multiprocessing.get_context("fork").Process(
            target=_crashing_sweep_child,
            args=(str(tmp_path / "cache"), pid_log, db),
        )
        child.start()
        child.join(300.0)
        assert child.exitcode == -signal.SIGKILL
        with open(pid_log, encoding="utf-8") as handle:
            pids = [int(line) for line in handle]
        assert len(pids) == 2
        # A worker finishes the form it holds, then sees end of file.
        deadline = time.monotonic() + 60.0
        while any(map(_running, pids)) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not [pid for pid in pids if _running(pid)]

    @pytest.mark.parametrize("argv", [
        ["sweep", "--drain"],
        ["sweep", "--enqueue-only"],
        ["sweep", "--lease-timeout", "5"],
        ["cache", "gc", "--force"],
        ["doctor", "--force"],
    ])
    def test_removed_queue_flags_are_argparse_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(argv)
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestWarmCacheDoesNotMeasure:
    def test_zero_backend_measurements(self, db, skl_backend, tmp_path):
        forms = _forms(db, SAMPLE_UIDS)
        cold = SweepEngine("SKL", db, backend=skl_backend,
                           cache=ResultCache(str(tmp_path)))
        cold_results = cold.sweep(forms)

        warm = SweepEngine("SKL", db, cache=ResultCache(str(tmp_path)))
        results = warm.sweep(forms)
        assert results == cold_results
        # No backend was ever constructed, hence zero measurements; the
        # skip marker for UD2 means even supports() is not consulted.
        assert warm._backend is None
        assert warm.statistics.characterized == 0
        assert warm.statistics.skipped == 1
        assert warm.statistics.seconds == 0.0

    def test_warm_counter_on_injected_backend(self, db, skl_backend,
                                              tmp_path):
        forms = _forms(db, ("ADD_R64_R64", "NOP"))
        cache_dir = str(tmp_path)
        SweepEngine("SKL", db, backend=skl_backend,
                    cache=ResultCache(cache_dir)).sweep(forms)
        calls_before = skl_backend.measure_calls
        warm = SweepEngine("SKL", db, backend=skl_backend,
                           cache=ResultCache(cache_dir))
        warm.sweep(forms)
        assert skl_backend.measure_calls == calls_before


class TestStatistics:
    def test_skipped_forms_cost_no_measured_time(self, db, skl_backend):
        runner = CharacterizationRunner(skl_backend, db)
        assert runner.characterize(db.by_uid("UD2")) is None
        assert runner.statistics.skipped == 1
        assert runner.statistics.seconds == 0.0

    def test_merge(self):
        from repro.core.runner import RunStatistics

        a = RunStatistics(characterized=2, skipped=1, seconds=1.5,
                          cache_hits=3, cache_misses=2,
                          cache_invalidations=1)
        b = RunStatistics(characterized=1, skipped=0, seconds=0.5)
        a.merge(b)
        assert a == RunStatistics(characterized=3, skipped=1,
                                  seconds=2.0, cache_hits=3,
                                  cache_misses=2, cache_invalidations=1)


    def test_rendered_table_shows_every_counter_once(self, capsys):
        from dataclasses import fields

        from repro.cli import _print_cache_stats
        from repro.stats import RunStatistics

        stats = RunStatistics(**{
            spec.name: type(spec.default)(1000 + index)
            for index, spec in enumerate(fields(RunStatistics))
        })
        _print_cache_stats(stats)
        pairs = [
            pair.split(" ")
            for line in capsys.readouterr().err.splitlines()
            for pair in line.split(": ", 1)[1].split(", ")
        ]
        assert [name for name, _ in pairs] == list(stats.as_dict())
        for name, text in pairs:
            value = getattr(stats, name)
            assert text == (
                f"{value:.1f}" if isinstance(value, float) else str(value)
            )

    @pytest.mark.slow
    def test_lock_retries_fold_every_store(self, db, tmp_path,
                                           monkeypatch):
        """The workers' memo appends and the parent's cache and
        manifest writes all count toward ``lock_retries``."""
        import os

        from repro.core import journal

        acquired = str(tmp_path / "acquired.log")
        real_flock = journal.flock_bounded

        def one_retry_each(handle, *args, **kwargs):
            locked, _ = real_flock(handle, *args, **kwargs)
            fd = os.open(
                acquired, os.O_WRONLY | os.O_APPEND | os.O_CREAT
            )
            try:
                os.write(fd, b"x\n")
            finally:
                os.close(fd)
            return locked, 1

        # Workers are forked, so the patch reaches them.
        monkeypatch.setattr(journal, "flock_bounded", one_retry_each)
        engine = SweepEngine(
            "SKL", db, jobs=2, cache=ResultCache(str(tmp_path / "cache"))
        )
        engine.sweep(_forms(db, ("ADD_R64_R64", "IMUL_R64_R64", "NOP")))
        assert engine.failures == {}
        with open(acquired, encoding="utf-8") as handle:
            acquisitions = len(handle.read().splitlines())
        assert acquisitions > 0
        assert engine.statistics.lock_retries == acquisitions


class TestCache:
    def test_salt_invalidates(self, db, skl_backend, tmp_path):
        forms = _forms(db, ("ADD_R64_R64", "NOP"))
        SweepEngine("SKL", db, backend=skl_backend,
                    cache=ResultCache(str(tmp_path), salt="old")).sweep(
            forms
        )
        stale = SweepEngine("SKL", db, backend=skl_backend,
                            cache=ResultCache(str(tmp_path), salt="new"))
        stale.sweep(forms)
        assert stale.statistics.cache_hits == 0
        assert stale.statistics.cache_misses == len(forms)
        assert stale.statistics.cache_invalidations == len(forms)

    def test_memo_salt_invalidations_reported(self, db, tmp_path, capsys):
        forms = _forms(db, ("ADD_R64_R64", "NOP"))
        old = MeasurementMemo(str(tmp_path), salt="old")
        SweepEngine("SKL", db, measure_memo=old).sweep(forms)
        with open(old.path_for("SKL"), encoding="utf-8") as handle:
            written = len(handle.read().splitlines())
        assert written > 0
        stale = SweepEngine(
            "SKL", db, measure_memo=MeasurementMemo(str(tmp_path), salt="new")
        )
        stale.sweep(forms)
        assert stale.statistics.memo_hits == 0
        assert stale.statistics.memo_invalidations == written
        # The stderr summary's memo row carries the count.
        _print_cache_stats(stale.statistics)
        memo_row = next(
            line for line in capsys.readouterr().err.splitlines()
            if line.startswith("memo:")
        )
        assert f"memo_invalidations {written}" in memo_row

    def test_key_depends_on_all_inputs(self):
        base = cache_key("ADD_R64_R64", "SKL", MeasurementConfig(), "s")
        assert base != cache_key("NOP", "SKL", MeasurementConfig(), "s")
        assert base != cache_key("ADD_R64_R64", "NHM",
                                 MeasurementConfig(), "s")
        assert base != cache_key(
            "ADD_R64_R64", "SKL", MeasurementConfig(repeats=2), "s"
        )
        assert base != cache_key("ADD_R64_R64", "SKL",
                                 MeasurementConfig(), "s2")
        assert base == cache_key("ADD_R64_R64", "SKL",
                                 MeasurementConfig(), "s")

    def test_config_changes_miss(self, db, skl_backend, tmp_path):
        forms = _forms(db, ("NOP",))
        SweepEngine("SKL", db, backend=skl_backend,
                    cache=ResultCache(str(tmp_path))).sweep(forms)
        other = SweepEngine(
            "SKL", db, config=MeasurementConfig.paper(),
            cache=ResultCache(str(tmp_path)),
        )
        other.sweep(forms)
        assert other.statistics.cache_hits == 0
        assert other.statistics.cache_misses == 1

    def test_corrupt_lines_dropped(self, db, skl_backend, tmp_path):
        forms = _forms(db, ("NOP",))
        cache = ResultCache(str(tmp_path))
        SweepEngine("SKL", db, backend=skl_backend, cache=cache).sweep(
            forms
        )
        path = cache.path_for("SKL")
        with open(path, "a+") as handle:
            handle.write("{not json\n")
        # A valid line after the garbage proves the damage is mid-file
        # corruption; a second garbage line at EOF is a torn tail.
        key = cache.key_for("NOP", "SKL", MeasurementConfig())
        cache.put(key, "NOP", "SKL", cache.get(key, "SKL"))
        with open(path, "a+") as handle:
            handle.write('{"key": "trunc')
        warm = SweepEngine("SKL", db, cache=ResultCache(str(tmp_path)))
        warm.sweep(forms)
        assert warm.statistics.cache_hits == 1
        # Garbage is corruption, not a (salt/version) invalidation.
        assert warm.statistics.corrupt_lines == 1
        assert warm.statistics.torn_tails == 1
        assert warm.statistics.cache_invalidations == 0

    def test_cache_dir_collides_with_file(self, tmp_path):
        path = tmp_path / "not-a-dir"
        path.write_text("")
        with pytest.raises(NotADirectoryError):
            ResultCache(str(path))

    def test_jsonl_layout(self, db, skl_backend, tmp_path):
        cache = ResultCache(str(tmp_path))
        SweepEngine("SKL", db, backend=skl_backend, cache=cache).sweep(
            _forms(db, ("ADD_R64_R64", "UD2"))
        )
        lines = [
            json.loads(line)
            for line in open(cache.path_for("SKL"))
        ]
        by_uid = {entry["uid"]: entry for entry in lines}
        assert by_uid["ADD_R64_R64"]["data"]["uop_count"] == 1
        assert by_uid["UD2"]["data"] is None  # skip marker
        assert all(entry["uarch"] == "SKL" for entry in lines)


def _round_trip(obj):
    return pickle.loads(pickle.dumps(obj))


@dataclasses.dataclass
class _LambdaPayload:
    transform: Callable


class TestPoolPayloadsPickle:
    """Everything that crosses the pool's pipes (the worker payload in,
    results, failures and counters out) survives ``pickle`` unchanged."""

    def test_form_failure_from_a_real_backend_error(self):
        with pytest.raises(PermanentBackendError) as info:
            ExperimentFailure(
                error=PermanentBackendError("wedged"), key="k" * 12,
                tag="lat:RAX", attempts=3,
            ).reraise()
        failure = FormFailure.from_error("DIV_M16", info.value)
        assert (failure.phase, failure.attempts) == ("lat", 3)
        assert _round_trip(failure) == failure

    def test_merged_run_statistics(self):
        ones = RunStatistics(**{
            spec.name: 1 for spec in dataclasses.fields(RunStatistics)
        })
        merged = RunStatistics(seconds=0.25)
        merged.merge(ones)
        merged.merge(ones)
        assert merged.as_dict()["cache_hits"] == 2
        assert _round_trip(merged) == merged

    @pytest.mark.parametrize(
        "config", [MeasurementConfig(), MeasurementConfig.paper()],
        ids=["default", "paper"],
    )
    def test_measurement_config(self, config):
        assert _round_trip(config) == config

    def test_worker_payload(self, tmp_path):
        payload: _WorkerPayload = (
            "SKL", MeasurementConfig.paper(), str(tmp_path), "memo-salt",
            "seed=3,kill_once=NOP",
        )
        assert _round_trip(payload) == payload

    def test_lambda_field_fails(self):
        with pytest.raises((pickle.PicklingError, AttributeError)):
            _round_trip(_LambdaPayload(transform=lambda value: value))
