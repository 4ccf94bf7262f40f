"""Differential tests for the parallel sweep engine.

The engine's contract is bit-identical results: serial runner, jobs=1,
jobs=N, cold cache, and warm cache must all produce exactly the same
characterizations, and a warm sweep must perform zero backend
measurements.
"""

import json

import pytest

from repro.core.cache import ResultCache, cache_key
from repro.core.runner import CharacterizationRunner
from repro.core.sweep import SweepEngine
from repro.measure.backend import HardwareBackend, MeasurementConfig
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
    """Serial baseline on the event kernel.  Engines and workers run the
    default analytic tier, so every equality against this baseline also
    compares the two tiers across a whole sweep."""
    backend = HardwareBackend(get_uarch("SKL"), kernel="event")
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

    def test_queue_counters(self, db, serial_results):
        engine = SweepEngine("SKL", db, jobs=2)
        engine.sweep(_forms(db, SAMPLE_UIDS))
        assert engine.statistics.units_leased == len(SAMPLE_UIDS)
        assert engine.statistics.units_acked == len(SAMPLE_UIDS)
        assert engine.statistics.units_stolen == 0
        assert engine.statistics.lease_expirations == 0


@pytest.mark.slow
class TestQueueChaos:
    """Queue-mode fault tolerance: lease expiry and stealing recover
    lost workers."""

    def test_killed_worker_units_are_stolen(self, db, serial_results):
        # One worker hard-crashes on NOP; the parent reaps it and
        # force-expires its lease, so the surviving sibling steals the
        # unit (kill_once does not re-fire on a stolen unit) and the
        # sweep still completes with the full, bit-identical result set.
        engine = SweepEngine(
            "SKL", db, jobs=2, fault_spec="kill_once=NOP",
            lease_timeout=120.0,
        )
        results = engine.sweep(_forms(db, SAMPLE_UIDS))
        assert engine.failures == {}
        assert results == serial_results
        assert engine.statistics.units_stolen >= 1
        assert engine.statistics.lease_expirations >= 1
        assert engine.statistics.units_acked == len(SAMPLE_UIDS)

    def test_poisoned_unit_quarantined_fleet_survives(self, db,
                                                      serial_results):
        # A unit that reliably kills its worker is quarantined after
        # MAX_UNIT_LEASES claims; everything else still completes.
        engine = SweepEngine(
            "SKL", db, jobs=2, fault_spec="kill=NOP",
            lease_timeout=120.0,
        )
        results = engine.sweep(_forms(db, SAMPLE_UIDS))
        assert set(engine.failures) == {"NOP"}
        failure = engine.failures["NOP"]
        assert failure.error_type == "WorkerLost"
        assert failure.phase == "queue"
        assert results == {
            uid: outcome for uid, outcome in serial_results.items()
            if uid != "NOP"
        }


@pytest.mark.slow
class TestDistributedDrain:
    """The --enqueue-only / --drain API: independent processes sharing
    one cache directory cooperate through the persistent queue."""

    def test_enqueue_then_drain_round_trip(self, db, skl_backend,
                                           tmp_path):
        cache_dir = str(tmp_path)
        forms = _forms(db, SAMPLE_UIDS)
        planner = SweepEngine("SKL", db, cache=ResultCache(cache_dir))
        counts = planner.enqueue_pending(forms)
        assert counts == {
            "requested": len(SAMPLE_UIDS),
            "cached": 0,
            "pending": len(SAMPLE_UIDS),
            "enqueued": len(SAMPLE_UIDS),
        }

        drainer = SweepEngine("SKL", db, backend=skl_backend,
                              cache=ResultCache(cache_dir))
        drained = drainer.drain()
        assert drainer.failures == {}
        assert drainer.statistics.units_leased == len(SAMPLE_UIDS)
        assert drainer.statistics.units_acked == len(SAMPLE_UIDS)
        assert sorted(drained) == sorted(
            uid for uid in SAMPLE_UIDS if uid != "UD2"  # skip marker
        )

        # A warm sweep over the same cache now serves everything —
        # bit-identical to the serial reference.
        warm = SweepEngine("SKL", db, cache=ResultCache(cache_dir))
        results = warm.sweep(forms)
        assert warm.statistics.cache_hits == len(SAMPLE_UIDS)
        serial = CharacterizationRunner(
            skl_backend, db
        ).characterize_all(forms)
        assert results == serial

        # Re-planning finds nothing left to enqueue.
        replanner = SweepEngine("SKL", db,
                                cache=ResultCache(cache_dir))
        assert replanner.enqueue_pending(forms)["enqueued"] == 0

    def test_drain_requires_cache(self, db):
        engine = SweepEngine("SKL", db)
        with pytest.raises(ValueError):
            engine.drain()
        with pytest.raises(ValueError):
            engine.enqueue_pending([])


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
        """Drainers' memo appends and the coordinator's own queue
        transactions count toward ``lock_retries``, not only the
        drainers' cache and queue locks."""
        import os

        from repro.core import journal, workqueue

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

        # Drainers are forked, so both patches reach them.
        monkeypatch.setattr(journal, "flock_bounded", one_retry_each)
        monkeypatch.setattr(workqueue, "flock_bounded", one_retry_each)
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
