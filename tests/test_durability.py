"""Crash-safe journal primitives: codec, scanning, appends, durability.

The shared persistence writer (:mod:`repro.core.journal`) claims that
every JSONL store survives a writer killed at an arbitrary byte — the
reader tells a *torn tail* (truncate and continue) from *mid-file
corruption* (quarantine and count) by per-line CRCs.  This suite pins
the codec and scan classification directly, and then lets hypothesis
truncate and garble real stores (result cache, measurement memo,
manifest) at arbitrary offsets to prove the loaders never
crash, never fabricate data, and that ``repro doctor`` repairs every
damaged store back to a healthy, appendable state.
"""

import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import journal
from repro.core.cache import (
    MeasurementMemo,
    ResultCache,
    SweepManifest,
)
from repro.core.doctor import repair
from repro.core.journal import (
    DURABILITY_ENV,
    LOCK_RETRY_JITTER,
    LOCK_RETRY_MAX,
    append_entry,
    decode_blob,
    decode_entry,
    durability_mode,
    encode_blob,
    encode_entry,
    flock_bounded,
    line_crc,
    lock_scope,
    publish_blob,
    scan_journal,
)
from repro.measure.backend import MeasurementConfig
from repro.measure.executor import RetryPolicy

try:
    import fcntl
except ImportError:
    fcntl = None

ENTRY = {"salt": "s", "key": "k" * 64, "uid": "NOP", "uarch": "SKL",
         "data": {"cycles": 1}}

_SETTINGS = dict(deadline=None, print_blob=True)


class TestLineCodec:
    def test_round_trip(self):
        line = encode_entry(ENTRY)
        decoded, problem = decode_entry(line)
        assert problem is None
        assert decoded == ENTRY

    def test_stale_crc_field_is_ignored_on_encode(self):
        tainted = dict(ENTRY, crc="bogus")
        assert encode_entry(tainted) == encode_entry(ENTRY)

    def test_body_tamper_is_crc_failure(self):
        line = encode_entry(ENTRY).replace('"cycles": 1', '"cycles": 2')
        decoded, problem = decode_entry(line)
        assert decoded is None
        assert problem == "crc"

    def test_missing_crc_is_crc_failure(self):
        import json

        line = json.dumps(ENTRY, sort_keys=True)
        assert decode_entry(line) == (None, "crc")

    def test_envelope_problems_are_corrupt(self):
        assert decode_entry("[1, 2]") == (None, "corrupt")
        no_key = encode_entry({"data": None, "key": 5})
        assert decode_entry(no_key) == (None, "corrupt")
        no_data = encode_entry({"key": "k"})
        assert decode_entry(no_data) == (None, "corrupt")

    def test_garbage_is_unparsable(self):
        assert decode_entry("{torn half-li") == (None, "unparsable")

    def test_crc_is_canonical(self):
        # Key order must not matter: the CRC covers sort_keys bytes.
        a = encode_entry({"key": "k", "data": 1, "uid": "X"})
        b = encode_entry({"uid": "X", "data": 1, "key": "k"})
        assert a == b
        assert line_crc("x") != line_crc("y")


class TestBlobCodec:
    def test_round_trip(self):
        state = {"salt": "s", "units": {"a": {"state": "pending"}}}
        decoded, problem = decode_blob(encode_blob(state))
        assert problem is None
        assert decoded == state

    def test_tamper_is_crc_failure(self):
        blob = encode_blob({"salt": "s", "units": {}})
        assert decode_blob(blob.replace('"s"', '"t"')) == (None, "crc")

    def test_garbage_and_envelope(self):
        assert decode_blob('{"salt":') == (None, "unparsable")
        assert decode_blob("[1]") == (None, "corrupt")


class TestScanClassification:
    def _write(self, tmp_path, payload: bytes) -> str:
        path = str(tmp_path / "store.jsonl")
        with open(path, "wb") as handle:
            handle.write(payload)
        return path

    def test_unparsable_final_line_is_torn(self, tmp_path):
        first = encode_entry(ENTRY)
        payload = (first + "\n").encode() + b'{"key": "trunc'
        scan = scan_journal(self._write(tmp_path, payload))
        assert scan.torn
        assert scan.torn_offset == len(first) + 1
        assert scan.corrupt == 0
        assert scan.entries() == [ENTRY]

    def test_unparsable_mid_file_is_corrupt(self, tmp_path):
        payload = b"{garbage\n" + (encode_entry(ENTRY) + "\n").encode()
        scan = scan_journal(self._write(tmp_path, payload))
        assert not scan.torn
        assert scan.corrupt == 1
        assert scan.entries() == [ENTRY]

    def test_parsable_final_line_with_bad_crc_is_corrupt(self, tmp_path):
        # A *complete* (parsable) final record that fails its CRC is not
        # a torn write — torn tails are unparsable by construction.
        bad = encode_entry(ENTRY).replace('"cycles": 1', '"cycles": 7')
        scan = scan_journal(self._write(tmp_path, (bad + "\n").encode()))
        assert not scan.torn
        assert scan.corrupt == 1

    def test_invalid_utf8_tail_is_torn(self, tmp_path):
        payload = (encode_entry(ENTRY) + "\n").encode() + b"\xff\xfe{"
        scan = scan_journal(self._write(tmp_path, payload))
        assert scan.torn
        assert scan.corrupt == 0

    def test_missing_file_scans_empty(self, tmp_path):
        scan = scan_journal(str(tmp_path / "absent.jsonl"))
        assert scan.records == []
        assert not scan.torn
        assert scan.size == 0


class TestAppendEntry:
    def test_append_is_newline_terminated_and_decodable(self, tmp_path):
        path = str(tmp_path / "a.jsonl")
        append_entry(path, ENTRY)
        with open(path, "rb") as handle:
            blob = handle.read()
        assert blob.endswith(b"\n")
        assert scan_journal(path).entries() == [ENTRY]

    def test_append_self_heals_torn_predecessor(self, tmp_path):
        # A predecessor died mid-line: the next append must not merge
        # into the garbage tail and lose its own record.
        path = str(tmp_path / "a.jsonl")
        with open(path, "wb") as handle:
            handle.write(b'{"key": "half')
        append_entry(path, ENTRY)
        scan = scan_journal(path)
        assert scan.entries() == [ENTRY]
        # The healed tail is now mid-file damage, preserved for doctor.
        assert scan.corrupt == 1
        assert not scan.torn

    @pytest.mark.parametrize("mode", ["fsync", "batch", "off"])
    def test_append_under_every_durability_mode(self, tmp_path, mode):
        path = str(tmp_path / f"{mode}.jsonl")
        append_entry(path, ENTRY, durability=mode)
        append_entry(path, dict(ENTRY, key="x" * 64), durability=mode)
        assert len(scan_journal(path).entries()) == 2

    def test_uncontended_append_counts_no_lock_trouble(self, tmp_path):
        class Stats:
            lock_retries = 0
            lock_timeouts = 0

        stats = Stats()
        append_entry(str(tmp_path / "a.jsonl"), ENTRY, stats=stats)
        assert stats.lock_retries == 0
        assert stats.lock_timeouts == 0


class TestDurabilityMode:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv(DURABILITY_ENV, "fsync")
        assert durability_mode("off") == "off"

    def test_environment_fallback(self, monkeypatch):
        monkeypatch.setenv(DURABILITY_ENV, "fsync")
        assert durability_mode() == "fsync"

    def test_default_is_batch(self, monkeypatch):
        monkeypatch.delenv(DURABILITY_ENV, raising=False)
        assert durability_mode() == "batch"

    def test_unknown_value_degrades_to_batch(self, monkeypatch):
        monkeypatch.setenv(DURABILITY_ENV, "paranoid")
        assert durability_mode() == "batch"


@pytest.mark.skipif(fcntl is None, reason="flock needs POSIX")
class TestBoundedFlock:
    def test_uncontended_lock_is_immediate(self, tmp_path):
        with open(tmp_path / "l", "a+") as handle:
            locked, retries = flock_bounded(handle)
            assert locked
            assert retries == 0
            fcntl.flock(handle.fileno(), fcntl.LOCK_UN)

    def test_contended_lock_times_out_with_retries(self, tmp_path):
        path = tmp_path / "l"
        with open(path, "a+") as holder, open(path, "a+") as waiter:
            fcntl.flock(holder.fileno(), fcntl.LOCK_EX)
            try:
                locked, retries = flock_bounded(waiter, timeout=0.05)
            finally:
                fcntl.flock(holder.fileno(), fcntl.LOCK_UN)
        assert not locked
        assert retries >= 1

    def test_raw_flock_leaves_the_held_stack_alone(self, tmp_path):
        """The raw primitive never touches the held-lock stack, so a
        caller releasing through ``fcntl`` directly cannot leave a
        phantom lock class behind for later scopes on this thread."""
        with open(tmp_path / "l", "a+") as handle:
            locked, _ = flock_bounded(handle)
            assert locked
            fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
        assert journal._held_locks() == []

    def test_retry_delay_deterministic_and_capped(self):
        for attempt in (1, 3, 10):
            a = journal.retry_delay(attempt, "salt")
            b = journal.retry_delay(attempt, "salt")
            assert a == b
            assert 0 < a <= LOCK_RETRY_MAX * (1 + LOCK_RETRY_JITTER)
        assert (journal.retry_delay(2, "one")
                != journal.retry_delay(2, "two"))

    def test_backoff_sequences_pinned(self):
        """The lock's and the executor's backoff share one formula; both
        sequences keep their values (doubling, capped, then jittered)."""
        assert [journal.retry_delay(a, "store") for a in range(1, 9)] == [
            0.005301024930085987, 0.012394860266358592,
            0.02333051466732286, 0.04464490081183613,
            0.09483732878696173, 0.11113315034890547,
            0.11650214081746527, 0.10942688540089876,
        ]
        policy = RetryPolicy()
        assert [
            policy.delay_for(a, "0123456789ab") for a in range(1, 9)
        ] == [
            0.020858995233429597, 0.04813863653922454,
            0.08410078197717667, 0.1832149926479906,
            0.38187562450766566, 0.6607264218851924,
            1.053148451144807, 1.1313941816915758,
        ]


class TestPublishBlob:
    def test_publish_is_atomic_and_leaves_no_tmp(self, tmp_path):
        path = str(tmp_path / "state.json")
        with open(path + ".lock", "a+") as lock, lock_scope(
            lock, "manifest"
        ):
            publish_blob(path, {"salt": "s", "units": {}}, kind="manifest")
            publish_blob(
                path, {"salt": "s", "units": {"a": 1}}, kind="manifest"
            )
        with open(path, "r", encoding="utf-8") as handle:
            state, problem = decode_blob(handle.read())
        assert problem is None
        assert state["units"] == {"a": 1}
        assert [n for n in os.listdir(str(tmp_path)) if ".tmp." in n] == []


# ---------------------------------------------------------------------------
# Hypothesis: arbitrary damage to every store kind (satellite d)
# ---------------------------------------------------------------------------

SALT = "torn-suite"


def _build_cache(root):
    cache = ResultCache(root, salt=SALT)
    written = {}
    for i in range(5):
        key = format(i, "064x")
        cache.put(key, f"U{i}", "SKL", {"i": i})
        written[key] = {"i": i}
    return cache.path_for("SKL"), written


def _build_memo(root):
    memo = MeasurementMemo(root, salt=SALT)
    written = {}
    for i in range(5):
        key = f"m{i}"
        memo.put(key, "SKL", {"i": i})
        written[key] = {"i": i}
    return memo.path_for("SKL"), written


def _reload_cache(root):
    cache = ResultCache(root, salt=SALT)
    cache.load("SKL")
    return cache


class TestTornWriteRecovery:
    """Truncate / garble each store at arbitrary byte offsets.

    Invariants, for every damage shape: loading never raises; nothing
    is fabricated (every salvaged entry is byte-for-byte one the writer
    appended); ``repair`` converges to a healthy, appendable store.
    """

    @settings(max_examples=60, **_SETTINGS)
    @given(data=st.data())
    def test_cache_truncation_recovers_intact_prefix(self, data):
        with tempfile.TemporaryDirectory() as root:
            path, written = _build_cache(root)
            with open(path, "rb") as handle:
                blob = handle.read()
            cut = data.draw(st.integers(0, len(blob)), label="cut")
            with open(path, "wb") as handle:
                handle.write(blob[:cut])

            cache = _reload_cache(root)
            # Exactly the fully-written records survive.  A cut landing
            # right before a newline leaves a complete, CRC-valid final
            # line — still a whole record, so it is salvaged too; any
            # shorter partial is a torn tail, never corruption.
            partial = blob[:cut].rpartition(b"\n")[2]
            tail_intact = bool(partial) and (
                decode_entry(partial.decode())[1] is None
            )
            expected = blob[:cut].count(b"\n") + (1 if tail_intact else 0)
            assert len(cache._entries) == expected
            for key, entry in cache._entries.items():
                assert entry["data"] == written[key]
            assert cache.torn_tails == (
                1 if partial and not tail_intact else 0
            )
            assert cache.corrupt_lines == 0

            report = repair(root, salt=SALT)
            assert report.healthy
            healed = _reload_cache(root)
            assert healed.torn_tails == 0
            assert healed.corrupt_lines == 0
            assert healed._entries == cache._entries

    @settings(max_examples=60, **_SETTINGS)
    @given(data=st.data())
    def test_cache_garbling_never_fabricates(self, data):
        with tempfile.TemporaryDirectory() as root:
            path, written = _build_cache(root)
            with open(path, "rb") as handle:
                blob = handle.read()
            where = data.draw(
                st.integers(0, len(blob) - 1), label="where"
            )
            flip = data.draw(st.integers(1, 255), label="flip")
            damaged = (
                blob[:where]
                + bytes([blob[where] ^ flip])
                + blob[where + 1:]
            )
            with open(path, "wb") as handle:
                handle.write(damaged)

            cache = _reload_cache(root)
            assert set(cache._entries) <= set(written)
            for key, entry in cache._entries.items():
                assert entry["data"] == written[key]
            assert len(cache._entries) >= len(written) - 2

            report = repair(root, salt=SALT)
            assert report.healthy
            # The healed store accepts appends and serves them.
            extra = format(99, "064x")
            healed = ResultCache(root, salt=SALT)
            healed.put(extra, "U99", "SKL", {"i": 99})
            assert _reload_cache(root)._entries[extra]["data"] == {
                "i": 99
            }

    @settings(max_examples=40, **_SETTINGS)
    @given(data=st.data())
    def test_memo_damage_never_crashes_or_fabricates(self, data):
        with tempfile.TemporaryDirectory() as root:
            path, written = _build_memo(root)
            with open(path, "rb") as handle:
                blob = handle.read()
            cut = data.draw(st.integers(0, len(blob)), label="cut")
            tail = data.draw(
                st.binary(max_size=12), label="tail"
            )
            with open(path, "wb") as handle:
                handle.write(blob[:cut] + tail)

            memo = MeasurementMemo(root, salt=SALT)
            memo.load("SKL")
            assert set(memo._entries) <= set(written)
            for key, value in memo._entries.items():
                assert value == written[key]
            assert repair(root, salt=SALT).healthy

    @settings(max_examples=40, **_SETTINGS)
    @given(data=st.data())
    def test_manifest_damage_reads_as_empty_or_original(self, data):
        with tempfile.TemporaryDirectory() as root:
            manifest = SweepManifest(root, salt=SALT)
            config = MeasurementConfig()
            entries = {"NOP": {"fingerprint": "f", "key": "k"}}
            manifest.update("SKL", config, entries)
            path = manifest.path_for("SKL")
            with open(path, "rb") as handle:
                blob = handle.read()
            cut = data.draw(st.integers(0, len(blob)), label="cut")
            with open(path, "wb") as handle:
                handle.write(blob[:cut])

            survived = SweepManifest(root, salt=SALT).entries_for(
                "SKL", config
            )
            assert survived in ({}, entries)
            if cut < len(blob):
                assert survived == {}

    @settings(max_examples=40, **_SETTINGS)
    @given(data=st.data())
    def test_manifest_bitflip_reads_as_empty_or_original(self, data):
        with tempfile.TemporaryDirectory() as root:
            manifest = SweepManifest(root, salt=SALT)
            config = MeasurementConfig()
            entries = {
                f"U{i}": {"fingerprint": "f", "key": f"k{i}"}
                for i in range(3)
            }
            manifest.update("SKL", config, entries)
            path = manifest.path_for("SKL")
            with open(path, "rb") as handle:
                blob = handle.read()
            where = data.draw(
                st.integers(0, len(blob) - 1), label="where"
            )
            flip = data.draw(st.integers(1, 255), label="flip")
            with open(path, "wb") as handle:
                handle.write(
                    blob[:where]
                    + bytes([blob[where] ^ flip])
                    + blob[where + 1:]
                )

            # A damaged manifest reads as empty rather than trusting
            # damaged bytes, and an update rebuilds it.
            reread = SweepManifest(root, salt=SALT)
            assert reread.entries_for("SKL", config) in ({}, entries)
            reread.update("SKL", config, entries)
            assert SweepManifest(root, salt=SALT).entries_for(
                "SKL", config
            ) == entries
