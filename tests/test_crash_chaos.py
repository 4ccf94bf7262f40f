"""Crash-point chaos harness: SIGKILL at every named write site.

The persistence layer claims a drainer may die — SIGKILL, no ``finally``
blocks, no flushes — at *any* of the named crash sites in
:data:`repro.measure.faults.CRASH_SITES` and the stores stay
recoverable: ``repro doctor --repair`` plus a fault-free resume
reconverges to the byte-identical result a never-crashed run produces,
with zero lost acked results and zero re-measured unchanged forms.

Three layers of proof:

* per-site unit tests fork a child, arm ``REPRO_CRASH_POINT``, and
  assert the post-mortem file state each site promises;
* a hypothesis suite drives >= 200 random kill schedules (site x hit
  count x durability mode) through a fixed op sequence over all four
  store kinds, then repairs + idempotently replays and demands every
  store file be byte-identical to a fault-free reference directory;
* an end-to-end sweep per site: a drainer (or serial sweep, for
  manifest sites) is killed mid-flight, doctor repairs, and the resumed
  sweep's XML must match the reference bytes, with a final warm sweep
  pinning "everything served from cache, nothing measured twice".

Fencing (lease-steal zombie detection) is pinned here too, as the one
crash mode that is about *surviving* writers rather than dead ones.
"""

import multiprocessing
import os
import shutil
import signal
import time
import xml.etree.ElementTree as ET

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.cache import (
    MeasurementMemo,
    ResultCache,
    SweepManifest,
    cache_salt,
)
from repro.core.doctor import diagnose, repair
from repro.core.journal import (
    CRASH_POINT_ENV,
    DURABILITY_ENV,
    append_entry,
    lock_scope,
    publish_blob,
    quarantine_lines,
    scan_journal,
)
from repro.core.runner import CharacterizationRunner
from repro.core.sweep import SweepEngine
from repro.core.workqueue import (
    WorkQueue,
    WorkUnit,
    live_lease_count,
    read_queue_state,
)
from repro.core.xml_output import results_to_xml
from repro.measure.backend import HardwareBackend, MeasurementConfig
from repro.measure.faults import CRASH_SITES, reset_crash_counters
from repro.uarch.configs import get_uarch

#: fork, not spawn: the child inherits the loaded database and uarch
#: tables, so a killed-at-byte-N child costs milliseconds, not a fresh
#: interpreter boot.
_FORK = multiprocessing.get_context("fork")
SIGKILLED = -signal.SIGKILL

SALT = "chaos"

ENTRY = {"salt": SALT, "key": "k" * 64, "uid": "NOP", "uarch": "SKL",
         "data": {"cycles": 1}}

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


def _forms(db):
    return [db.by_uid(uid) for uid in UIDS]


def _run_child(target, args, timeout=300.0):
    proc = _FORK.Process(target=target, args=args)
    proc.start()
    proc.join(timeout)
    assert not proc.is_alive(), "chaos child wedged instead of dying"
    return proc.exitcode


# --- module-level child bodies (fork targets) ------------------------------


def _arm(spec, durability=None):
    os.environ[CRASH_POINT_ENV] = spec
    if durability is not None:
        os.environ[DURABILITY_ENV] = durability
    reset_crash_counters()


def _append_child(root, kind, spec, count):
    _arm(spec)
    path = os.path.join(root, "store.jsonl")
    for i in range(count):
        append_entry(
            path, dict(ENTRY, key=format(i, "064x")),
            kind=kind, durability="fsync",
        )


def _quarantine_child(root, spec, count):
    _arm(spec)
    path = os.path.join(root, "store.jsonl.quarantine")
    for i in range(count):
        quarantine_lines(path, [b"damaged %d" % i])


def _publish_child(root, kind, spec):
    _arm(spec)
    path = os.path.join(root, "state.json")
    # Queue and manifest states publish under the lock class of the
    # same name.
    with open(path + ".lock", "a+") as lock, lock_scope(lock, kind):
        publish_blob(path, {"salt": SALT, "units": {}}, kind=kind)
        publish_blob(
            path, {"salt": SALT, "units": {"a": {"i": 1}}}, kind=kind
        )


# ---------------------------------------------------------------------------
# Per-site unit proofs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["cache", "memo"])
class TestAppendCrashSites:
    def test_pre_append_first_hit_leaves_nothing(self, tmp_path, kind):
        code = _run_child(
            _append_child, (str(tmp_path), kind, f"{kind}.pre-append", 2)
        )
        assert code == SIGKILLED
        assert not os.path.exists(str(tmp_path / "store.jsonl"))

    def test_pre_append_nth_hit_counts(self, tmp_path, kind):
        code = _run_child(
            _append_child,
            (str(tmp_path), kind, f"{kind}.pre-append:2", 2),
        )
        assert code == SIGKILLED
        scan = scan_journal(str(tmp_path / "store.jsonl"))
        assert len(scan.entries()) == 1
        assert not scan.torn

    def test_mid_append_leaves_a_torn_tail(self, tmp_path, kind):
        code = _run_child(
            _append_child, (str(tmp_path), kind, f"{kind}.mid-append", 1)
        )
        assert code == SIGKILLED
        path = str(tmp_path / "store.jsonl")
        scan = scan_journal(path)
        assert scan.torn
        assert scan.corrupt == 0
        assert scan.entries() == []
        # The next writer self-heals: its record survives intact.
        append_entry(path, ENTRY, kind=kind)
        healed = scan_journal(path)
        assert healed.entries() == [ENTRY]

    def test_pre_fsync_record_is_complete(self, tmp_path, kind):
        code = _run_child(
            _append_child, (str(tmp_path), kind, f"{kind}.pre-fsync", 1)
        )
        assert code == SIGKILLED
        scan = scan_journal(str(tmp_path / "store.jsonl"))
        assert len(scan.entries()) == 1
        assert not scan.torn

    def test_post_append_record_is_durable(self, tmp_path, kind):
        code = _run_child(
            _append_child,
            (str(tmp_path), kind, f"{kind}.post-append:2", 2),
        )
        assert code == SIGKILLED
        scan = scan_journal(str(tmp_path / "store.jsonl"))
        assert len(scan.entries()) == 2
        assert not scan.torn


class TestQuarantineCrashSites:
    """The quarantine sidecar writer shares the append crash bracket
    (it has no mid-append/pre-fsync: the payload is raw bytes, written
    in one call, and fsync is the caller's durability choice)."""

    def test_pre_append_first_hit_leaves_nothing(self, tmp_path):
        code = _run_child(
            _quarantine_child,
            (str(tmp_path), "quarantine.pre-append", 2),
        )
        assert code == SIGKILLED
        assert not os.path.exists(
            str(tmp_path / "store.jsonl.quarantine")
        )

    def test_post_append_lines_are_durable(self, tmp_path):
        code = _run_child(
            _quarantine_child,
            (str(tmp_path), "quarantine.post-append:2", 2),
        )
        assert code == SIGKILLED
        with open(tmp_path / "store.jsonl.quarantine", "rb") as handle:
            blob = handle.read()
        assert blob == b"damaged 0\ndamaged 1\n"


@pytest.mark.parametrize("kind", ["queue", "manifest"])
class TestRenameCrashSites:
    def test_pre_rename_keeps_old_state_and_strands_tmp(
        self, tmp_path, kind
    ):
        code = _run_child(
            _publish_child,
            (str(tmp_path), kind, f"{kind}.pre-rename:2"),
        )
        assert code == SIGKILLED
        with open(tmp_path / "state.json", "r",
                  encoding="utf-8") as handle:
            text = handle.read()
        assert '"units": {}' in text  # first publish, intact
        strays = [n for n in os.listdir(tmp_path) if ".tmp." in n]
        assert len(strays) == 1
        # ... and doctor sees the stray as repairable litter.
        report = diagnose(str(tmp_path), salt=SALT)
        assert "stray-tmp" in {f.kind for f in report.findings}

    def test_post_rename_new_state_is_visible(self, tmp_path, kind):
        code = _run_child(
            _publish_child,
            (str(tmp_path), kind, f"{kind}.post-rename:2"),
        )
        assert code == SIGKILLED
        with open(tmp_path / "state.json", "r",
                  encoding="utf-8") as handle:
            text = handle.read()
        assert '"i": 1' in text
        assert [n for n in os.listdir(tmp_path) if ".tmp." in n] == []


class TestEveryNamedSiteIsExercised:
    def test_catalog_matches_this_suite(self):
        covered = set()
        for kind in ("cache", "memo"):
            covered |= {
                f"{kind}.pre-append", f"{kind}.mid-append",
                f"{kind}.pre-fsync", f"{kind}.post-append",
            }
        covered |= {"quarantine.pre-append", "quarantine.post-append"}
        for kind in ("queue", "manifest"):
            covered |= {f"{kind}.pre-rename", f"{kind}.post-rename"}
        assert covered == set(CRASH_SITES)


# ---------------------------------------------------------------------------
# Fencing: the crash mode where the "dead" writer is still alive
# ---------------------------------------------------------------------------


class TestFencing:
    def test_post_steal_zombie_write_is_rejected_and_counted(
        self, tmp_path
    ):
        queue = WorkQueue(str(tmp_path), "SKL", salt=SALT)
        key = "k" * 64
        queue.enqueue([WorkUnit(key=key, uid="NOP")])
        (stale,) = queue.lease("worker-a", lease_seconds=0.01)
        time.sleep(0.05)
        (stolen,) = queue.lease("worker-b", lease_seconds=60.0)
        assert stolen.fence > stale.fence

        wrote = []
        verdict = queue.deposit(
            key, "worker-a", stale.fence, lambda: wrote.append("a")
        )
        assert verdict == "fenced"
        assert wrote == []  # the zombie's store append never ran

        verdict = queue.deposit(
            key, "worker-b", stolen.fence, lambda: wrote.append("b")
        )
        assert verdict == "acked"
        assert wrote == ["b"]

        counters = queue.counters()
        assert counters["zombie_writes"] == 1
        assert counters["units_stolen"] == 1

        # A very late zombie retry cannot double-write either.
        verdict = queue.deposit(
            key, "worker-a", stale.fence, lambda: wrote.append("x")
        )
        assert verdict in ("fenced", "duplicate")
        assert wrote == ["b"]


# ---------------------------------------------------------------------------
# Hypothesis: >= 200 random kill schedules over all four store kinds
# ---------------------------------------------------------------------------

FSALT = "chaos-fuzz"
_FUZZ_COUNT = 3
_FUZZ_CONFIG = MeasurementConfig()


def _fuzz_manifest_entries():
    return {
        f"U{i}": {"fingerprint": "f", "key": format(i, "064x")}
        for i in range(_FUZZ_COUNT)
    }


def _fuzz_ops(root):
    """The fixed op sequence: interleaved writes to every store kind."""
    cache = ResultCache(root, salt=FSALT)
    memo = MeasurementMemo(root, salt=FSALT)
    queue = WorkQueue(root, "SKL", salt=FSALT)
    for i in range(_FUZZ_COUNT):
        key = format(i, "064x")
        cache.put(key, f"U{i}", "SKL", {"i": i})
        memo.put(f"m{i}", "SKL", {"i": i})
        queue.enqueue([WorkUnit(key=key, uid=f"U{i}")])
    SweepManifest(root, salt=FSALT).update(
        "SKL", _FUZZ_CONFIG, _fuzz_manifest_entries()
    )


def _fuzz_child(root, spec, durability):
    _arm(spec, durability)
    _fuzz_ops(root)


def _fuzz_replay(root):
    """Idempotent resume: get-before-put, enqueue dedupes, manifest
    update merges — exactly what a restarted drainer does."""
    cache = ResultCache(root, salt=FSALT)
    memo = MeasurementMemo(root, salt=FSALT)
    queue = WorkQueue(root, "SKL", salt=FSALT)
    for i in range(_FUZZ_COUNT):
        key = format(i, "064x")
        if cache.is_miss(cache.get(key, "SKL")):
            cache.put(key, f"U{i}", "SKL", {"i": i})
        if memo.is_miss(memo.get(f"m{i}", "SKL")):
            memo.put(f"m{i}", "SKL", {"i": i})
        queue.enqueue([WorkUnit(key=key, uid=f"U{i}")])
    SweepManifest(root, salt=FSALT).update(
        "SKL", _FUZZ_CONFIG, _fuzz_manifest_entries()
    )


def _store_files(root):
    return {
        name: open(os.path.join(root, name), "rb").read()
        for name in sorted(os.listdir(root))
        if not name.endswith(".lock") and ".tmp." not in name
    }


class TestKillScheduleFuzz:
    @settings(
        max_examples=200,
        deadline=None,
        print_blob=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_repair_plus_replay_is_byte_identical(self, data, tmp_path_factory):
        site = data.draw(st.sampled_from(CRASH_SITES), label="site")
        nth = data.draw(st.integers(1, 4), label="nth")
        durability = data.draw(
            st.sampled_from(("fsync", "batch", "off")),
            label="durability",
        )
        base = tmp_path_factory.mktemp("kill")
        chaos = str(base / "chaos")
        ref = str(base / "ref")
        os.makedirs(chaos)
        os.makedirs(ref)

        code = _run_child(
            _fuzz_child, (chaos, f"{site}:{nth}", durability), 60.0
        )
        assert code in (0, SIGKILLED)

        report = repair(chaos, salt=FSALT)
        assert report.healthy
        _fuzz_replay(chaos)

        _fuzz_ops(ref)
        assert _store_files(chaos) == _store_files(ref)
        # No record ever needed quarantining: a SIGKILL tears tails, it
        # does not corrupt mid-file bytes.
        assert not [
            n for n in os.listdir(chaos) if n.endswith(".quarantine")
        ]


# ---------------------------------------------------------------------------
# End-to-end: kill a sweep at every site, doctor, resume, compare XML
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def chaos_memo(tmp_path_factory, db):
    """Blocking discovery pre-warmed once; per-form measurements still
    memo-miss, so the memo crash sites fire inside every child."""
    path = str(tmp_path_factory.mktemp("memo"))
    backend = HardwareBackend(
        get_uarch("SKL"), memo=MeasurementMemo(path)
    )
    _ = CharacterizationRunner(backend, db).blocking
    return path


@pytest.fixture(scope="module")
def reference_xml(db, chaos_memo):
    engine = SweepEngine(
        "SKL", db, measure_memo=MeasurementMemo(chaos_memo)
    )
    results = engine.sweep(_forms(db))
    return ET.tostring(results_to_xml({"SKL": results}, db))


def _sweep_child(root, spec, serial, db):
    _arm(spec)
    engine = SweepEngine(
        "SKL", db,
        cache=ResultCache(root),
        measure_memo=MeasurementMemo(root),
        lease_timeout=0.5,
    )
    forms = _forms(db)
    if serial:
        engine.sweep(forms)
    else:
        engine.enqueue_pending(forms)
        engine.drain()


#: Quarantine is only written by ``doctor --repair`` (never by a
#: healthy sweep), so those sites cannot fire mid-drain; their unit
#: proofs live in TestQuarantineCrashSites instead.
SWEEP_SITES = tuple(
    site for site in CRASH_SITES if not site.startswith("quarantine")
)


@pytest.mark.slow
class TestSweepCrashRecovery:
    @pytest.mark.parametrize("site", SWEEP_SITES)
    def test_crashed_sweep_reconverges_to_reference(
        self, site, tmp_path, db, chaos_memo, reference_xml
    ):
        root = str(tmp_path)
        # The pre-warmed memo covers the whole catalog, so memo sites
        # would never fire under it: those children start cold and die
        # on their own first memo write instead.
        if not site.startswith("memo"):
            shutil.copy(
                os.path.join(chaos_memo, "SKL" + MeasurementMemo.SUFFIX),
                os.path.join(root, "SKL" + MeasurementMemo.SUFFIX),
            )
        # Manifest sites only fire on the serial (coordinator) path;
        # everything else crashes a queue-mode drainer mid-drain.
        serial = site.startswith("manifest")
        code = _run_child(_sweep_child, (root, site, serial, db))
        assert code == SIGKILLED, f"site {site} never fired"

        # Let the dead drainer's lease expire before doctoring.
        queue_path = os.path.join(root, "SKL" + WorkQueue.SUFFIX)
        deadline = time.time() + 10.0
        while (
            live_lease_count(read_queue_state(queue_path, cache_salt()))
            and time.time() < deadline
        ):
            time.sleep(0.1)

        assert repair(root).healthy

        # Fault-free resume: byte-identical XML to the never-crashed run.
        engine = SweepEngine(
            "SKL", db,
            cache=ResultCache(root),
            measure_memo=MeasurementMemo(root),
        )
        results = engine.sweep(_forms(db))
        assert ET.tostring(
            results_to_xml({"SKL": results}, db)
        ) == reference_xml

        # Warm pin: every form served from cache, nothing re-measured —
        # zero lost acked results, zero double-measured forms.
        warm = SweepEngine(
            "SKL", db,
            cache=ResultCache(root),
            measure_memo=MeasurementMemo(root),
        )
        warm_results = warm.sweep(_forms(db))
        assert ET.tostring(
            results_to_xml({"SKL": warm_results}, db)
        ) == reference_xml
        assert warm.statistics.cache_hits == len(UIDS)
        assert warm.statistics.characterized == 0
