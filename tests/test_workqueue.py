"""Unit tests for the persistent work queue (lease/steal/ack).

The queue is pure coordination state — no measurement — so everything
here runs against a tmp directory with no backend.  Steal paths are
exercised with ``lease_seconds=0`` (the lease expires immediately)
instead of sleeping.
"""

import json
import os

from repro.core.workqueue import (
    MAX_UNIT_LEASES,
    QueueCounters,
    WorkQueue,
    WorkUnit,
)


def _queue(tmp_path, **kwargs):
    return WorkQueue(str(tmp_path), "SKL", salt="s", **kwargs)


def _units(uids):
    return [WorkUnit(key=f"key-{uid}", uid=uid) for uid in uids]


class TestLifecycle:
    def test_enqueue_lease_ack_drain(self, tmp_path):
        work = _queue(tmp_path)
        assert work.enqueue(_units(["b", "a"])) == 2
        assert work.outstanding() == 2
        assert not work.drained

        first = work.lease("w1", limit=1)
        assert [unit.uid for unit in first] == ["a"]  # sorted uid order
        assert first[0].leases == 1
        assert not first[0].stolen_now

        second = work.lease("w2", limit=5)
        assert [unit.uid for unit in second] == ["b"]  # 'a' is leased

        assert work.ack(first[0].key, "w1")
        assert work.ack(second[0].key, "w2")
        assert work.drained
        assert work.outstanding() == 0

        counters = work.counters()
        assert counters["units_leased"] == 2
        assert counters["units_acked"] == 2
        assert counters["units_stolen"] == 0

    def test_duplicate_ack_is_ignored(self, tmp_path):
        work = _queue(tmp_path)
        work.enqueue(_units(["a"]))
        (unit,) = work.lease("w1")
        assert work.ack(unit.key, "w1")
        assert not work.ack(unit.key, "w2")  # duplicate: harmless
        assert work.counters()["units_acked"] == 1

    def test_ack_unknown_key(self, tmp_path):
        work = _queue(tmp_path)
        assert not work.ack("no-such-key", "w1")

    def test_fail_records_quarantine_and_ack_wins(self, tmp_path):
        work = _queue(tmp_path)
        work.enqueue(_units(["a", "b"]))
        units = {unit.uid: unit for unit in work.lease("w1", limit=2)}
        record = {"uid": "a", "phase": "queue",
                  "error_type": "Boom", "message": "x",
                  "attempts": 1, "shard": None}
        assert work.fail(units["a"].key, "w1", record)
        assert work.snapshot()["failures"] == {"a": record}
        # A failed unit is resolved: the queue can still drain.
        assert work.ack(units["b"].key, "w1")
        assert work.drained
        # A late failure report never un-acks a result.
        assert not work.fail(units["b"].key, "w1", record)
        assert list(work.snapshot()["failures"]) == ["a"]


class TestStealing:
    def test_expired_lease_is_stolen(self, tmp_path):
        work = _queue(tmp_path)
        work.enqueue(_units(["a"]))
        (original,) = work.lease("w1", lease_seconds=0.0)
        (stolen,) = work.lease("w2", lease_seconds=60.0)
        assert stolen.uid == "a"
        assert stolen.owner == "w2"
        assert stolen.stolen_now
        assert stolen.leases == 2
        assert stolen.stolen == 1
        counters = work.counters()
        assert counters["units_leased"] == 2
        assert counters["units_stolen"] == 1
        assert counters["lease_expirations"] == 1
        assert original.key == stolen.key

    def test_live_lease_is_protected(self, tmp_path):
        work = _queue(tmp_path)
        work.enqueue(_units(["a"]))
        work.lease("w1", lease_seconds=300.0)
        assert work.lease("w2") == []
        assert work.outstanding() == 1

    def test_stale_ack_after_steal_is_duplicate(self, tmp_path):
        # The stalled original finally finishes after the thief acked:
        # results are deterministic, the duplicate ack is a no-op.
        work = _queue(tmp_path)
        work.enqueue(_units(["a"]))
        (original,) = work.lease("w1", lease_seconds=0.0)
        (stolen,) = work.lease("w2")
        assert work.ack(stolen.key, "w2")
        assert not work.ack(original.key, "w1")
        assert work.counters()["units_acked"] == 1

    def test_expire_owner_makes_units_stealable(self, tmp_path):
        work = _queue(tmp_path)
        work.enqueue(_units(["a", "b", "c"]))
        work.lease("dead", limit=2, lease_seconds=300.0)
        work.lease("alive", limit=1, lease_seconds=300.0)
        assert work.expire_owner("dead") == 2
        assert work.expire_owner("dead") == 0  # idempotent
        stolen = work.lease("thief", limit=3)
        assert [unit.uid for unit in stolen] == ["a", "b"]
        assert all(unit.stolen_now for unit in stolen)
        # The live worker's lease was untouched.
        assert work.lease("thief2") == []

    def test_poisoned_unit_quarantined(self, tmp_path):
        work = _queue(tmp_path)
        work.enqueue(_units(["nop"]))
        for attempt in range(MAX_UNIT_LEASES):
            (unit,) = work.lease(f"w{attempt}", lease_seconds=0.0)
            assert unit.leases == attempt + 1
        # The next claim attempt trips the poison limit instead of
        # handing the unit out a fourth time.
        assert work.lease("w-final") == []
        failures = work.snapshot()["failures"]
        assert failures["nop"]["error_type"] == "WorkerLost"
        assert failures["nop"]["phase"] == "queue"
        assert failures["nop"]["attempts"] == MAX_UNIT_LEASES
        assert work.drained


class TestEnqueueSemantics:
    def test_reenqueue_resets_resolved_units(self, tmp_path):
        work = _queue(tmp_path)
        work.enqueue(_units(["a"]))
        (unit,) = work.lease("w1")
        work.ack(unit.key, "w1")
        assert work.drained
        # An incremental re-sweep of the same form: the previous ack is
        # stale, the unit goes back to pending.
        assert work.enqueue(_units(["a"])) == 1
        assert work.outstanding() == 1

    def test_reenqueue_gives_poisoned_unit_fresh_budget(self, tmp_path):
        work = _queue(tmp_path)
        work.enqueue(_units(["nop"]))
        for attempt in range(MAX_UNIT_LEASES):
            work.lease(f"w{attempt}", lease_seconds=0.0)
        assert work.lease("w-final") == []
        assert "nop" in work.snapshot()["failures"]
        # A resume re-requests the quarantined unit: it is handed out
        # again as a first lease instead of being re-poisoned on sight.
        assert work.enqueue(_units(["nop"])) == 1
        (unit,) = work.lease("w-resume")
        assert unit.leases == 1
        assert work.snapshot()["failures"] == {}

    def test_reenqueue_skips_pending_and_live_leases(self, tmp_path):
        work = _queue(tmp_path)
        work.enqueue(_units(["a", "b"]))
        work.lease("w1", limit=1, lease_seconds=300.0)  # 'a' leased
        assert work.enqueue(_units(["a", "b"])) == 0
        # The live lease was not preempted: only the pending 'b' is
        # claimable, and it comes out clean (not a steal).
        claimed = work.lease("w2", limit=5)
        assert [u.uid for u in claimed] == ["b"]
        assert not claimed[0].stolen_now
        assert [u.uid for u in work.remaining_units()] == ["a", "b"]

    def test_reenqueue_resets_expired_lease(self, tmp_path):
        work = _queue(tmp_path)
        work.enqueue(_units(["a"]))
        work.lease("w1", lease_seconds=0.0)
        assert work.enqueue(_units(["a"])) == 1
        (unit,) = work.lease("w2")
        # Reset to pending, not stolen: the re-enqueue wiped the lease.
        assert not unit.stolen_now


class TestPersistence:
    def test_state_survives_reopen(self, tmp_path):
        work = _queue(tmp_path)
        work.enqueue(_units(["a", "b"]))
        (unit,) = work.lease("w1")
        work.ack(unit.key, "w1")

        reopened = _queue(tmp_path)
        assert reopened.outstanding() == 1
        assert reopened.counters()["units_acked"] == 1
        assert [u.uid for u in reopened.remaining_units()] == ["b"]

    def test_salt_mismatch_resets_queue(self, tmp_path):
        work = _queue(tmp_path)
        work.enqueue(_units(["a"]))
        other = WorkQueue(str(tmp_path), "SKL", salt="other-version")
        assert other.outstanding() == 0
        assert other.snapshot()["units"] == 0

    def test_torn_file_resets_queue(self, tmp_path):
        work = _queue(tmp_path)
        work.enqueue(_units(["a"]))
        with open(work.path, "w") as handle:
            handle.write('{"salt": "s", "units"')  # truncated write
        assert work.outstanding() == 0

    def test_clear_removes_file(self, tmp_path):
        work = _queue(tmp_path)
        work.enqueue(_units(["a"]))
        assert os.path.exists(work.path)
        work.clear()
        assert not os.path.exists(work.path)
        assert work.outstanding() == 0

    def test_stolen_now_not_persisted(self, tmp_path):
        work = _queue(tmp_path)
        work.enqueue(_units(["a"]))
        work.lease("w1", lease_seconds=0.0)
        work.lease("w2")  # steals; stolen_now is transient
        with open(work.path) as handle:
            state = json.load(handle)
        (raw,) = state["units"].values()
        assert "stolen_now" not in raw
        assert raw["stolen"] == 1
        # from_dict round-trips the persisted shape.
        assert not WorkUnit.from_dict(raw).stolen_now


class TestCounters:
    def test_delta(self):
        before = QueueCounters({"units_leased": 3, "units_acked": 2})
        after = QueueCounters(
            {"units_leased": 7, "units_acked": 5, "units_stolen": 1}
        )
        assert after.delta(before) == {
            "units_leased": 4,
            "units_stolen": 1,
            "units_acked": 3,
            "lease_expirations": 0,
            "leases_renewed": 0,
            "zombie_writes": 0,
        }

    def test_counters_survive_drain(self, tmp_path):
        # Lifetime counters accumulate across lease/ack cycles even
        # after the queue is fully drained (the engine diffs them).
        work = _queue(tmp_path)
        work.enqueue(_units(["a"]))
        (unit,) = work.lease("w1")
        work.ack(unit.key, "w1")
        work.enqueue(_units(["b"]))
        (unit,) = work.lease("w1")
        work.ack(unit.key, "w1")
        counters = work.counters()
        assert counters["units_leased"] == 2
        assert counters["units_acked"] == 2
