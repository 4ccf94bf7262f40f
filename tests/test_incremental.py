"""Incremental re-characterization and cache GC.

The contract under test: a catalog edit re-enqueues *exactly* the
affected forms (fingerprint diff against the sweep manifest), and
:func:`~repro.core.cache.collect_garbage` never drops a key any
recorded sweep still references.

Catalog edits are simulated by toggling an *inert* attribute on a form
(one no machine-description rule reads): the µop entry and therefore
the catalog context digest stay unchanged, so exactly the edited forms'
fingerprints flip — the sharpest possible probe of the diff logic.
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.cache import (
    MeasurementMemo,
    ResultCache,
    SweepManifest,
    cache_salt,
    collect_garbage,
)
from repro.core.journal import encode_entry
from repro.core.sweep import SweepEngine
from repro.core.workqueue import WorkQueue, WorkUnit
from repro.isa.database import InstructionDatabase
from repro.measure.backend import HardwareBackend, MeasurementConfig
from repro.uarch.configs import get_uarch

#: Cheap single-µop ALU forms: sweeps stay fast even under hypothesis.
BASE_UIDS = (
    "ADD_R64_R64",
    "AND_R64_R64",
    "IMUL_R64_R64",
    "NOP",
    "OR_R64_R64",
    "SUB_R64_R64",
    "XOR_R64_R64",
)

INERT_ATTRIBUTE = "test_inert_edit"


@pytest.fixture(scope="module")
def fast_skl():
    return HardwareBackend(get_uarch("SKL"))


def _base_forms(db):
    return [db.by_uid(uid) for uid in BASE_UIDS]


def _edited(forms, edited_uids):
    """The same catalog with an inert attribute added to *edited_uids*."""
    return [
        dataclasses.replace(
            form, attributes=form.attributes | {INERT_ATTRIBUTE}
        )
        if form.uid in edited_uids else form
        for form in forms
    ]


def _engine(database, backend, cache_dir, **kwargs):
    return SweepEngine(
        "SKL", database, backend=backend,
        cache=ResultCache(cache_dir), **kwargs
    )


class TestIncrementalSweep:
    def test_unchanged_catalog_measures_nothing(self, db, fast_skl,
                                                tmp_path):
        forms = _base_forms(db)
        base_db = InstructionDatabase(forms)
        cold = _engine(base_db, fast_skl, str(tmp_path))
        baseline = cold.sweep(forms)

        calls_before = fast_skl.measure_calls
        warm = _engine(base_db, fast_skl, str(tmp_path),
                       incremental=True)
        assert warm.sweep(forms) == baseline
        assert fast_skl.measure_calls == calls_before
        assert warm.statistics.incremental_skips == len(forms)
        assert warm.statistics.cache_misses == 0

    def test_stale_fingerprint_overrides_cache_hit(self, db, fast_skl,
                                                   tmp_path):
        # The cache key does not cover the catalog payload (by design:
        # plain warm sweeps must hit).  Only incremental mode notices
        # the edit — via the fingerprint — and refuses the cached bytes.
        forms = _base_forms(db)
        base_db = InstructionDatabase(forms)
        edited_db = InstructionDatabase(_edited(forms, {"NOP"}))
        edited_forms = [edited_db.by_uid(uid) for uid in BASE_UIDS]

        # Two identically-seeded caches: every sweep (plain included)
        # refreshes the manifest, so each mode gets its own copy.
        plain_dir = str(tmp_path / "plain")
        incr_dir = str(tmp_path / "incr")
        _engine(base_db, fast_skl, plain_dir).sweep(forms)
        _engine(base_db, fast_skl, incr_dir).sweep(forms)

        plain = _engine(edited_db, fast_skl, plain_dir)
        plain.sweep(edited_forms)
        assert plain.statistics.cache_hits == len(forms)
        assert plain.statistics.characterized == 0  # stale bytes served

        incr = _engine(edited_db, fast_skl, incr_dir,
                       incremental=True)
        incr.sweep(edited_forms)
        assert incr.statistics.cache_misses == 1
        assert incr.statistics.characterized == 1
        assert incr.statistics.incremental_skips == len(forms) - 1

    @settings(
        max_examples=8, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(mask=st.lists(st.booleans(), min_size=len(BASE_UIDS),
                         max_size=len(BASE_UIDS)))
    def test_random_edits_remeasure_exactly_affected(
        self, db, fast_skl, tmp_path_factory, mask
    ):
        cache_dir = str(tmp_path_factory.mktemp("incr"))
        forms = _base_forms(db)
        base_db = InstructionDatabase(forms)
        baseline = _engine(base_db, fast_skl, cache_dir).sweep(forms)

        edited_uids = {
            uid for uid, flip in zip(BASE_UIDS, mask) if flip
        }
        edited_db = InstructionDatabase(_edited(forms, edited_uids))
        edited_forms = [edited_db.by_uid(uid) for uid in BASE_UIDS]

        engine = _engine(edited_db, fast_skl, cache_dir,
                         incremental=True)
        results = engine.sweep(edited_forms)
        # Exactly the edited forms were re-measured; the inert edit
        # cannot change the characterization itself.
        assert engine.statistics.cache_misses == len(edited_uids)
        assert engine.statistics.characterized == len(edited_uids)
        assert engine.statistics.incremental_skips == (
            len(BASE_UIDS) - len(edited_uids)
        )
        assert results == baseline

        # The manifest was refreshed: re-diffing is now a no-op.
        settle = _engine(edited_db, fast_skl, cache_dir,
                         incremental=True)
        assert settle.sweep(edited_forms) == baseline
        assert settle.statistics.cache_misses == 0

    def test_incremental_enqueues_only_diffed_forms(self, db, fast_skl,
                                                    tmp_path):
        # The distributed planner applies the same diff: after an edit,
        # --enqueue-only queues exactly the affected units.
        forms = _base_forms(db)
        base_db = InstructionDatabase(forms)
        _engine(base_db, fast_skl, str(tmp_path)).sweep(forms)

        edited_uids = {"ADD_R64_R64", "XOR_R64_R64"}
        edited_db = InstructionDatabase(_edited(forms, edited_uids))
        edited_forms = [edited_db.by_uid(uid) for uid in BASE_UIDS]
        planner = _engine(edited_db, fast_skl, str(tmp_path),
                          incremental=True)
        counts = planner.enqueue_pending(edited_forms)
        assert counts["pending"] == len(edited_uids)
        assert counts["enqueued"] == len(edited_uids)
        work = WorkQueue(str(tmp_path), "SKL")
        assert sorted(
            unit.uid for unit in work.remaining_units()
        ) == sorted(edited_uids)


class TestManifest:
    def test_round_trip_and_config_separation(self, tmp_path):
        manifest = SweepManifest(str(tmp_path), salt="s")
        config = MeasurementConfig()
        other = MeasurementConfig(repeats=2)
        entries = {"ADD": {"fingerprint": "f1", "key": "k1"}}
        manifest.update("SKL", config, entries)
        manifest.update("SKL", other,
                        {"ADD": {"fingerprint": "f2", "key": "k2"}})
        assert manifest.entries_for("SKL", config) == entries
        assert manifest.entries_for("SKL", other)["ADD"]["key"] == "k2"
        assert manifest.entries_for("NHM", config) == {}
        # The root set unions every recorded config.
        assert manifest.live_keys("SKL") == {"k1", "k2"}

    def test_merge_preserves_other_entries(self, tmp_path):
        manifest = SweepManifest(str(tmp_path), salt="s")
        config = MeasurementConfig()
        manifest.update("SKL", config,
                        {"ADD": {"fingerprint": "f1", "key": "k1"}})
        manifest.update("SKL", config,
                        {"NOP": {"fingerprint": "f2", "key": "k2"}})
        assert set(manifest.entries_for("SKL", config)) == {"ADD", "NOP"}

    def test_missing_or_foreign_salt_reads_empty(self, tmp_path):
        manifest = SweepManifest(str(tmp_path), salt="s")
        assert manifest.live_keys("SKL") is None  # no file at all
        manifest.update("SKL", MeasurementConfig(),
                        {"ADD": {"fingerprint": "f", "key": "k"}})
        foreign = SweepManifest(str(tmp_path), salt="other")
        assert foreign.entries_for("SKL", MeasurementConfig()) == {}


class TestGarbageCollection:
    def _sweep(self, db, fast_skl, cache_dir, uids=BASE_UIDS):
        forms = [db.by_uid(uid) for uid in uids]
        base_db = InstructionDatabase(forms)
        engine = _engine(base_db, fast_skl, cache_dir)
        return engine.sweep(forms), forms, base_db

    def test_gc_never_drops_a_live_key(self, db, fast_skl, tmp_path):
        baseline, forms, base_db = self._sweep(db, fast_skl,
                                               str(tmp_path))
        stats = collect_garbage(str(tmp_path))
        assert stats.result_dropped_orphan == 0
        assert stats.result_kept == len(forms)

        warm = _engine(base_db, fast_skl, str(tmp_path))
        assert warm.sweep(forms) == baseline
        assert warm.statistics.cache_hits == len(forms)
        assert warm.statistics.cache_misses == 0

    @settings(
        max_examples=6, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(subset=st.sets(st.sampled_from(BASE_UIDS), min_size=1))
    def test_gc_liveness_over_random_sweeps(self, db, fast_skl,
                                            tmp_path_factory, subset):
        cache_dir = str(tmp_path_factory.mktemp("gc"))
        uids = sorted(subset)
        baseline, forms, base_db = self._sweep(db, fast_skl, cache_dir,
                                               uids)
        collect_garbage(cache_dir)
        warm = _engine(base_db, fast_skl, cache_dir)
        assert warm.sweep(forms) == baseline
        assert warm.statistics.cache_misses == 0

    def test_gc_drops_orphans_stale_and_superseded(self, db, fast_skl,
                                                   tmp_path):
        baseline, forms, base_db = self._sweep(db, fast_skl,
                                               str(tmp_path))
        cache = ResultCache(str(tmp_path))
        path = cache.path_for("SKL")
        with open(path, "a+", encoding="utf-8") as handle:
            # An orphan: current salt, but no manifest references it.
            handle.write(encode_entry({
                "salt": cache_salt(), "key": "deadbeef" * 8,
                "uid": "GHOST", "uarch": "SKL", "data": None,
            }) + "\n")
            # A stale line from another code version.
            handle.write(encode_entry({
                "salt": "old-version", "key": "cafebabe" * 8,
                "uid": "OLD", "uarch": "SKL", "data": None,
            }) + "\n")
            handle.write("{torn line\n")
        # A superseded line: re-put an existing key with its own bytes
        # (append-only last-wins — the earlier line becomes dead weight).
        key = cache.key_for("NOP", "SKL", MeasurementConfig())
        cache.put(key, "NOP", "SKL", cache.get(key, "SKL"))

        stats = collect_garbage(str(tmp_path))
        assert stats.result_dropped_orphan == 1
        assert stats.result_dropped_stale == 1
        assert stats.result_dropped_superseded == 1
        assert stats.corrupt_dropped == 1
        assert stats.result_kept == len(forms)
        assert stats.keys_dropped == stats.result_dropped_orphan + \
            stats.result_dropped_stale + \
            stats.result_dropped_superseded + stats.memo_dropped + \
            stats.corrupt_dropped
        assert stats.bytes_after < stats.bytes_before

        warm = _engine(base_db, fast_skl, str(tmp_path))
        assert warm.sweep(forms) == baseline
        assert warm.statistics.cache_misses == 0

    def test_gc_without_manifest_keeps_everything(self, db, fast_skl,
                                                  tmp_path):
        # Orphanhood is unprovable without a root set: GC must keep
        # every current-salt entry rather than guess.
        import os

        _, forms, base_db = self._sweep(db, fast_skl, str(tmp_path))
        os.remove(SweepManifest(str(tmp_path)).path_for("SKL"))
        cache = ResultCache(str(tmp_path))
        with open(cache.path_for("SKL"), "a+", encoding="utf-8") as h:
            h.write(encode_entry({
                "salt": cache_salt(), "key": "deadbeef" * 8,
                "uid": "GHOST", "uarch": "SKL", "data": None,
            }) + "\n")
        stats = collect_garbage(str(tmp_path))
        assert stats.result_dropped_orphan == 0
        assert stats.result_kept == len(forms) + 1

    def test_gc_removes_only_drained_queues(self, tmp_path):
        drained = WorkQueue(str(tmp_path), "SKL")
        drained.enqueue([WorkUnit(key="k1", uid="ADD")])
        (unit,) = drained.lease("w1")
        drained.ack(unit.key, "w1")
        busy = WorkQueue(str(tmp_path), "NHM")
        busy.enqueue([WorkUnit(key="k2", uid="NOP")])

        stats = collect_garbage(str(tmp_path))
        assert stats.queues_removed == 1
        import os

        assert not os.path.exists(drained.path)
        assert os.path.exists(busy.path)
        assert busy.outstanding() == 1

    def test_gc_compacts_memo(self, db, fast_skl, tmp_path):
        self._sweep(db, fast_skl, str(tmp_path))
        memo = MeasurementMemo(str(tmp_path))
        path = memo.path_for("SKL")
        with open(path, "a+", encoding="utf-8") as handle:
            handle.write(encode_entry({
                "salt": "old-version", "key": "k", "data": {},
            }) + "\n")
        before = len(open(path).readlines())
        stats = collect_garbage(str(tmp_path))
        assert stats.memo_dropped >= 1
        assert stats.memo_kept == before - stats.memo_dropped

    def test_gc_on_missing_dir_is_noop(self, tmp_path):
        stats = collect_garbage(str(tmp_path / "nope"))
        assert stats.keys_dropped == 0
