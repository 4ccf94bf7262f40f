"""``repro doctor``: diagnosis, repair plans, and CLI exit codes.

Each test seeds one concrete failure mode into a real cache directory,
asserts ``diagnose`` names exactly that finding kind, and proves
``repair`` converges the directory back to healthy without inventing
data.  The CLI layer is pinned separately: doctor exits 0/1, ``cache
gc`` refuses to compact under live leases (satellite a), and ``sweep
--strict`` exits 3 on a quarantined form (satellite c).
"""

import os
import time

import pytest

from repro import cli
from repro.core.cache import (
    LiveLeaseError,
    MeasurementMemo,
    ResultCache,
    SweepManifest,
    collect_garbage,
)
from repro.core.doctor import MAX_REPAIR_PASSES, diagnose, repair
from repro.core.journal import encode_entry, scan_journal
from repro.core.workqueue import WorkQueue, WorkUnit
from repro.measure.backend import MeasurementConfig

SALT = "doctor-suite"


def _kinds(report):
    return sorted({f.kind for f in report.findings})


def _seed_cache(root, count=3):
    cache = ResultCache(root, salt=SALT)
    for i in range(count):
        cache.put(format(i, "064x"), f"U{i}", "SKL", {"i": i})
    return cache.path_for("SKL")


class TestDiagnoseAndRepair:
    def test_clean_directory_is_healthy(self, tmp_path):
        _seed_cache(str(tmp_path))
        report = diagnose(str(tmp_path), salt=SALT)
        assert report.healthy
        assert report.stores_scanned >= 1
        assert report.live_leases == 0

    def test_missing_directory_is_healthy(self, tmp_path):
        assert diagnose(str(tmp_path / "absent"), salt=SALT).healthy

    def test_torn_tail_found_and_truncated(self, tmp_path):
        path = _seed_cache(str(tmp_path))
        with open(path, "ab") as handle:
            handle.write(b'{"key": "half-written')
        report = diagnose(str(tmp_path), salt=SALT)
        assert _kinds(report) == ["torn-tail"]

        healed = repair(str(tmp_path), salt=SALT)
        assert healed.healthy
        scan = scan_journal(path)
        assert not scan.torn
        assert len(scan.entries()) == 3  # data survives the truncation

    def test_corrupt_lines_quarantined_not_lost(self, tmp_path):
        path = _seed_cache(str(tmp_path))
        with open(path, "rb") as handle:
            lines = handle.read().splitlines()
        damaged = b'{"key": "evil", "data": 1, "crc": "00000000"}'
        lines[1] = damaged
        with open(path, "wb") as handle:
            handle.write(b"\n".join(lines) + b"\n")

        report = diagnose(str(tmp_path), salt=SALT)
        assert "corrupt-lines" in _kinds(report)

        assert repair(str(tmp_path), salt=SALT).healthy
        # The damaged bytes moved to the quarantine sidecar, intact
        # records stayed behind byte-for-byte.
        with open(path + ".quarantine", "rb") as handle:
            assert damaged in handle.read()
        survivors = scan_journal(path)
        assert survivors.corrupt == 0
        assert {e["uid"] for e in survivors.entries()} == {"U0", "U2"}

    def test_orphaned_lease_released_to_pending(self, tmp_path):
        queue = WorkQueue(str(tmp_path), "SKL", salt=SALT)
        queue.enqueue([WorkUnit(key="k" * 64, uid="NOP")])
        assert queue.lease("dead-owner", lease_seconds=0.0)
        report = diagnose(str(tmp_path), salt=SALT)
        assert _kinds(report) == ["orphaned-lease"]
        assert report.live_leases == 0

        assert repair(str(tmp_path), salt=SALT).healthy
        counts = WorkQueue(
            str(tmp_path), "SKL", salt=SALT
        ).snapshot()["counts"]
        assert counts["pending"] == 1
        assert counts["leased"] == 0

    def test_stale_lock_removed(self, tmp_path):
        _seed_cache(str(tmp_path))
        stale = tmp_path / "HSW.jsonl.lock"
        stale.write_text("")
        report = diagnose(str(tmp_path), salt=SALT)
        assert _kinds(report) == ["stale-lock"]
        assert repair(str(tmp_path), salt=SALT).healthy
        assert not stale.exists()

    def test_live_lock_not_flagged(self, tmp_path):
        path = _seed_cache(str(tmp_path))
        open(path + ".lock", "w").close()
        assert diagnose(str(tmp_path), salt=SALT).healthy

    def test_stray_tmp_removed(self, tmp_path):
        _seed_cache(str(tmp_path))
        stray = tmp_path / "SKL.queue.json.tmp.1234"
        stray.write_text("{half")
        report = diagnose(str(tmp_path), salt=SALT)
        assert _kinds(report) == ["stray-tmp"]
        assert repair(str(tmp_path), salt=SALT).healthy
        assert not stray.exists()

    def test_torn_queue_removed_with_its_lock(self, tmp_path):
        queue_path = tmp_path / f"SKL{WorkQueue.SUFFIX}"
        queue_path.write_text("{not a valid queue blob")
        (tmp_path / f"SKL{WorkQueue.SUFFIX}.lock").write_text("")
        report = diagnose(str(tmp_path), salt=SALT)
        assert _kinds(report) == ["torn-queue"]
        assert repair(str(tmp_path), salt=SALT).healthy
        assert not queue_path.exists()

    def test_torn_manifest_quarantined(self, tmp_path):
        path = tmp_path / f"SKL{SweepManifest.SUFFIX}"
        path.write_text("{torn manifest bytes")
        report = diagnose(str(tmp_path), salt=SALT)
        assert _kinds(report) == ["torn-manifest"]
        assert repair(str(tmp_path), salt=SALT).healthy
        assert not path.exists()
        assert (tmp_path / (path.name + ".quarantine")).exists()

    def test_missing_result_reenqueued(self, tmp_path):
        _seed_cache(str(tmp_path))
        manifest = SweepManifest(str(tmp_path), salt=SALT)
        config = MeasurementConfig()
        manifest.update("SKL", config, {
            "U0": {"fingerprint": "f", "key": format(0, "064x")},
            "GHOST": {"fingerprint": "f", "key": "g" * 64},
        })
        report = diagnose(str(tmp_path), salt=SALT)
        assert _kinds(report) == ["missing-result"]
        finding = report.findings[0]
        assert finding.context["missing"] == {"GHOST": "g" * 64}

        assert repair(str(tmp_path), salt=SALT).healthy
        # The claim is withdrawn and the form queued for re-measurement.
        survivors = SweepManifest(str(tmp_path), salt=SALT).entries_for(
            "SKL", config
        )
        assert "GHOST" not in survivors
        assert "U0" in survivors
        queue = WorkQueue(str(tmp_path), "SKL", salt=SALT)
        assert queue.snapshot()["counts"]["pending"] == 1

    def test_memo_store_is_scanned_too(self, tmp_path):
        memo = MeasurementMemo(str(tmp_path), salt=SALT)
        memo.put("m0", "SKL", {"i": 0})
        with open(memo.path_for("SKL"), "ab") as handle:
            handle.write(b"garbage tail")
        report = diagnose(str(tmp_path), salt=SALT)
        assert _kinds(report) == ["torn-tail"]
        assert repair(str(tmp_path), salt=SALT).healthy

    def test_compound_damage_repairs_to_fixpoint(self, tmp_path):
        # Several independent failure modes at once must converge within
        # the fixpoint budget, not just single-fault directories.
        path = _seed_cache(str(tmp_path))
        with open(path, "ab") as handle:
            handle.write(b'{"torn')
        (tmp_path / "HSW.jsonl.lock").write_text("")
        (tmp_path / "SKL.jsonl.tmp.99").write_text("{")
        queue_path = tmp_path / f"NHM{WorkQueue.SUFFIX}"
        queue_path.write_text("junk")

        report = diagnose(str(tmp_path), salt=SALT)
        assert _kinds(report) == [
            "stale-lock", "stray-tmp", "torn-queue", "torn-tail",
        ]
        assert MAX_REPAIR_PASSES >= 2
        assert repair(str(tmp_path), salt=SALT).healthy
        assert diagnose(str(tmp_path), salt=SALT).healthy

    def test_repair_refuses_under_live_lease(self, tmp_path):
        queue = WorkQueue(str(tmp_path), "SKL", salt=SALT)
        queue.enqueue([WorkUnit(key="k" * 64, uid="NOP")])
        queue.lease("live-owner", lease_seconds=60.0)
        (tmp_path / "SKL.jsonl.tmp.1").write_text("{")

        with pytest.raises(LiveLeaseError):
            repair(str(tmp_path), salt=SALT)
        # Diagnosis stays safe, and force overrides the guard.
        assert diagnose(str(tmp_path), salt=SALT).live_leases == 1
        assert repair(str(tmp_path), salt=SALT, force=True).healthy


class TestDoctorCli:
    """CLI exit codes run against the *default* salt, as users would."""

    def _seed(self, root):
        cache = ResultCache(root)
        cache.put("a" * 64, "NOP", "SKL", {"i": 0})
        return cache.path_for("SKL")

    def test_healthy_exits_zero(self, tmp_path, capsys):
        self._seed(str(tmp_path))
        assert cli.main(["doctor", "--cache-dir", str(tmp_path)]) == 0
        assert "all stores healthy" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        path = self._seed(str(tmp_path))
        with open(path, "ab") as handle:
            handle.write(b"{torn")
        assert cli.main(["doctor", "--cache-dir", str(tmp_path)]) == 1
        assert "torn-tail" in capsys.readouterr().out
        # Diagnosis alone never mutates the store.
        assert scan_journal(path).torn

    def test_repair_exits_zero_and_heals(self, tmp_path, capsys):
        path = self._seed(str(tmp_path))
        with open(path, "ab") as handle:
            handle.write(b"{torn")
        assert cli.main([
            "doctor", "--cache-dir", str(tmp_path), "--repair",
        ]) == 0
        assert not scan_journal(path).torn
        assert cli.main(["doctor", "--cache-dir", str(tmp_path)]) == 0

    def test_json_report(self, tmp_path, capsys):
        import json

        path = self._seed(str(tmp_path))
        with open(path, "ab") as handle:
            handle.write(b"{torn")
        assert cli.main([
            "doctor", "--cache-dir", str(tmp_path), "--json",
        ]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["healthy"] is False
        assert report["findings"][0]["kind"] == "torn-tail"
        assert report["findings"][0]["repairable"] is True

    def test_missing_dir_is_healthy(self, tmp_path):
        assert cli.main([
            "doctor", "--cache-dir", str(tmp_path / "none"),
        ]) == 0


class TestCacheGcLeaseGuard:
    """Satellite a: ``cache gc`` must not compact under live drainers."""

    def _live_lease(self, root):
        cache = ResultCache(root)
        cache.put("a" * 64, "NOP", "SKL", {"i": 0})
        queue = WorkQueue(root, "SKL")
        queue.enqueue([WorkUnit(key="b" * 64, uid="ADD_R64_R64")])
        queue.lease("live-owner", lease_seconds=60.0)

    def test_collect_garbage_raises(self, tmp_path):
        self._live_lease(str(tmp_path))
        with pytest.raises(LiveLeaseError) as excinfo:
            collect_garbage(str(tmp_path))
        assert "lease" in str(excinfo.value)

    def test_cli_exits_one_with_message(self, tmp_path, capsys):
        self._live_lease(str(tmp_path))
        assert cli.main(["cache", "gc", "--cache-dir",
                         str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "refusing to compact" in err
        assert "--force" in err

    def test_force_overrides(self, tmp_path, capsys):
        self._live_lease(str(tmp_path))
        assert cli.main([
            "cache", "gc", "--cache-dir", str(tmp_path), "--force",
        ]) == 0
        assert "kept" in capsys.readouterr().out

    def test_expired_lease_does_not_block(self, tmp_path):
        root = str(tmp_path)
        cache = ResultCache(root)
        cache.put("a" * 64, "NOP", "SKL", {"i": 0})
        queue = WorkQueue(root, "SKL")
        queue.enqueue([WorkUnit(key="b" * 64, uid="ADD_R64_R64")])
        queue.lease("dead-owner", lease_seconds=0.0)
        time.sleep(0.01)
        assert cli.main(["cache", "gc", "--cache-dir", root]) == 0


@pytest.mark.slow
class TestStrictSweep:
    """Satellite c: ``sweep --strict`` exits 3 on quarantined forms."""

    def _sampled_uid(self):
        from repro.analysis.sampling import stratified_sample
        from repro.core.sweep import SweepEngine
        from repro.isa.database import load_default_database

        engine = SweepEngine("SKL", load_default_database())
        forms = stratified_sample(engine.supported_forms(), 1)
        return forms[0].uid, len(forms)

    def test_strict_exit_three_on_quarantine(self, tmp_path, capsys):
        uid, _count = self._sampled_uid()
        argv = [
            "sweep", "SKL", "--sample", "1",
            "--output", str(tmp_path / "out.xml"),
            "--cache-dir", str(tmp_path / "cache"),
            "--fault-spec", f"permanent={uid}",
        ]
        # Without --strict the partial sweep still exits 0 ...
        assert cli.main(argv) == 0
        err = capsys.readouterr().err
        assert "quarantined" in err
        # ... with --strict it is a distinct, non-1 failure code.
        assert cli.main(argv + ["--strict"]) == 3
        assert "strict: 1 form(s) quarantined" in (
            capsys.readouterr().err
        )

    def test_strict_clean_sweep_exits_zero(self, tmp_path):
        assert cli.main([
            "sweep", "SKL", "--sample", "1", "--strict",
            "--output", str(tmp_path / "out.xml"),
            "--cache-dir", str(tmp_path / "cache"),
        ]) == 0


class TestStrictDrain:
    def test_drain_strict_exit_three(self, tmp_path, db):
        # Engine-level drain equivalent of the CLI path: enqueue two
        # forms, permanently fail one, drain with strict semantics.
        from repro.core.sweep import SweepEngine

        root = str(tmp_path)
        engine = SweepEngine(
            "SKL", db, cache=ResultCache(root),
            fault_spec="permanent=DIV_M16",
        )
        forms = [
            f for f in engine.supported_forms()
            if f.uid in ("NOP", "DIV_M16")
        ]
        assert len(forms) == 2
        engine.enqueue_pending(forms)
        engine.drain()
        assert set(engine.failures) == {"DIV_M16"}
        assert engine.statistics.units_acked >= 1
