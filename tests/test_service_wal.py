"""Durability tests: the write-ahead ingest log and crash recovery.

Three layers, matching the durability contract stated in
:mod:`repro.service.wal`:

* **WAL unit tests** — record round-trips, torn-tail detection and
  truncation (short header / short payload / CRC corruption), sequence
  continuity across snapshot truncation, fsync policy validation;
* **store recovery** — a restarted :class:`~repro.service.store.
  CollectionStore` reconstructs the pre-crash state exactly (profile ids,
  CSR buffers byte-for-byte, query answers) from snapshot + log tail, with
  duplicate replay idempotence and degraded read-only mode on WAL device
  errors;
* **subprocess chaos** — the harness in ``scripts/service_chaos.py`` kills
  a real child process at deterministic fault points and compares the
  recovered state against an uncrashed twin; two scenarios run here as
  tier-1 coverage, CI runs the full matrix.
"""

from __future__ import annotations

import json
import os
import pickle
import struct
import sys
import zlib
from pathlib import Path

import pytest

from repro.exceptions import ConfigurationError, DataError
from repro.metablocking.index import ARRAY_FIELDS
from repro.pipeline.checkpoint import temp_files, write_synced_temp
from repro.service import (
    CollectionConfig,
    CollectionStore,
    DegradedError,
    ServiceCollection,
    WriteAheadLog,
)

from tests.test_metablocking_incremental import _random_profiles
from tests.test_service_app import _ingest_payload

REPO_ROOT = Path(__file__).resolve().parent.parent


def _pickled_record(seq: int, payload) -> bytes:
    """One record as logs written before the payloads were JSON hold it:
    the same frame around the pickled ingest dict."""
    data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    return struct.pack("<QII", seq, len(data), zlib.crc32(data)) + data


class _Marker:
    """A pickle that, if unpickled with its globals, creates ``path``."""

    def __init__(self, path):
        self.path = str(path)

    def __reduce__(self):
        return os.mkdir, (self.path,)


def _chaos():
    sys.path.insert(0, str(REPO_ROOT / "scripts"))
    import service_chaos

    return service_chaos


# ---------------------------------------------------------------- WAL units
class TestWriteAheadLog:
    def test_append_replay_round_trip(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "c.wal")
        payloads = [{"profiles": [{"id": i}]} for i in range(4)]
        assert [wal.append(p) for p in payloads] == [1, 2, 3, 4]
        wal.close()

        fresh = WriteAheadLog(tmp_path / "c.wal")
        replayed = fresh.replay()
        assert [seq for seq, _ in replayed] == [1, 2, 3, 4]
        assert [payload for _, payload in replayed] == payloads
        assert fresh.next_seq == 5
        assert fresh.torn_truncations == 0
        # Appends continue the sequence after a replay.
        assert fresh.append({"profiles": []}) == 5
        fresh.close()

    def test_missing_and_empty_logs_replay_to_nothing(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "missing.wal")
        assert wal.replay() == []
        assert wal.next_seq == 1
        (tmp_path / "empty.wal").write_bytes(b"")
        empty = WriteAheadLog(tmp_path / "empty.wal")
        assert empty.replay() == []
        assert empty.torn_truncations == 0

    @pytest.mark.parametrize("cut", ["header", "payload"])
    def test_torn_tail_is_truncated_not_fatal(self, tmp_path, cut):
        path = tmp_path / "c.wal"
        wal = WriteAheadLog(path)
        for i in range(3):
            wal.append({"batch": i})
        wal.close()
        # Tear the last record: keep a short header, or a short payload.
        data = path.read_bytes()
        record = len(data) // 3
        keep = len(data) - record + (8 if cut == "header" else 20)
        path.write_bytes(data[:keep])

        fresh = WriteAheadLog(path)
        replayed = fresh.replay()
        assert [payload for _, payload in replayed] == [{"batch": 0}, {"batch": 1}]
        assert fresh.torn_truncations == 1
        assert path.stat().st_size == 2 * record
        # The truncated log replays cleanly (and un-torn) a second time.
        again = WriteAheadLog(path)
        assert [p for _, p in again.replay()] == [{"batch": 0}, {"batch": 1}]
        assert again.torn_truncations == 0

    def test_crc_corruption_cuts_the_tail(self, tmp_path):
        path = tmp_path / "c.wal"
        wal = WriteAheadLog(path)
        for i in range(3):
            wal.append({"batch": i})
        wal.close()
        data = bytearray(path.read_bytes())
        record = len(data) // 3
        data[record + 20] ^= 0xFF  # flip a payload byte of record 2
        path.write_bytes(bytes(data))

        fresh = WriteAheadLog(path)
        # Everything from the corrupt record on is dropped, even the intact
        # record behind it — the log is a prefix, not a hole-punched set.
        assert [p for _, p in fresh.replay()] == [{"batch": 0}]
        assert fresh.torn_truncations == 1
        assert path.stat().st_size == record

    def test_truncate_upto_drops_covered_records(self, tmp_path):
        path = tmp_path / "c.wal"
        wal = WriteAheadLog(path)
        for i in range(4):
            wal.append({"batch": i})
        assert wal.truncate_upto(2) == 2
        assert wal.truncated_records == 2
        assert [seq for seq, _ in WriteAheadLog(path).replay()] == [3, 4]
        # Nothing to drop: no rewrite happens at all.
        assert wal.truncate_upto(2) == 0
        # Truncating everything leaves an empty log but keeps the sequence.
        assert wal.truncate_upto(10) == 2
        assert path.stat().st_size == 0
        assert wal.append({"batch": 4}) == 5
        wal.close()

    def test_records_hold_the_payload_as_compact_json(self, tmp_path):
        path = tmp_path / "c.wal"
        wal = WriteAheadLog(path)
        payload = {"profiles": [{"id": 3, "attributes": {"name": "ä b", "n": 1.5}}]}
        wal.append(payload)
        wal.close()
        data = path.read_bytes()
        seq, length, crc = struct.unpack_from("<QII", data)
        body = data[16:]
        assert (seq, length, crc) == (1, len(body), zlib.crc32(body))
        assert body == json.dumps(payload, separators=(",", ":")).encode()

    def test_a_payload_without_a_json_form_is_a_data_error(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "c.wal")
        with pytest.raises(DataError, match="JSON"):
            wal.append({"profiles": [{"id": 0, "original_id": {1, 2}}]})
        assert wal.next_seq == 1 and wal.appends == 0
        assert wal.size_bytes() == 0
        wal.close()

    def test_a_record_in_the_earlier_pickled_layout_replays(self, tmp_path):
        path = tmp_path / "c.wal"
        old = {"profiles": [{"id": 3, "attributes": {"name": ["ä b"], "n": [1.5]}}]}
        path.write_bytes(_pickled_record(1, old) + _pickled_record(2, {"batch": 1}))
        wal = WriteAheadLog(path)
        assert wal.replay() == [(1, old), (2, {"batch": 1})]
        assert wal.append({"batch": 2}) == 3  # new records are JSON, after the old ones
        wal.close()

        fresh = WriteAheadLog(path)
        assert fresh.replay() == [(1, old), (2, {"batch": 1}), (3, {"batch": 2})]
        assert fresh.next_seq == 4 and fresh.torn_truncations == 0

        torn = tmp_path / "torn.wal"
        torn.write_bytes(_pickled_record(1, old) + _pickled_record(2, {"batch": 1})[:-3])
        wal = WriteAheadLog(torn)
        assert wal.replay() == [(1, old)]
        assert wal.torn_truncations == 1
        assert torn.read_bytes() == _pickled_record(1, old)

    @pytest.mark.parametrize("tail", [b"", b"torn"], ids=["intact", "torn-after"])
    @pytest.mark.parametrize(
        "payload",
        [
            pickle.dumps({"batch": 1, "at": Path("x")}, protocol=pickle.HIGHEST_PROTOCOL),
            pickle.dumps([{"batch": 1}], protocol=pickle.HIGHEST_PROTOCOL),
            pickle.dumps({"batch": 1}, protocol=pickle.HIGHEST_PROTOCOL) + b"\x00",
            b"\xff\x00 neither JSON nor a pickle",
        ],
        ids=["names-a-global", "not-a-dict", "trailing-bytes", "garbage"],
    )
    def test_an_intact_record_that_does_not_decode_is_an_error_not_a_tear(
        self, tmp_path, payload, tail
    ):
        path = tmp_path / "c.wal"
        wal = WriteAheadLog(path)
        wal.append({"batch": 0})
        wal.close()
        with open(path, "ab") as handle:
            handle.write(struct.pack("<QII", 2, len(payload), zlib.crc32(payload)) + payload + tail)
        before = path.read_bytes()

        fresh = WriteAheadLog(path)
        with pytest.raises(DataError, match=r"c\.wal: record 2 passes its CRC"):
            fresh.replay()
        # Never mistaken for a torn tail: nothing is cut off the file.
        assert path.read_bytes() == before
        assert fresh.torn_truncations == 0

    def test_a_record_runs_no_code(self, tmp_path):
        path, ran = tmp_path / "c.wal", tmp_path / "ran"
        path.write_bytes(_pickled_record(1, {"profiles": [], "x": _Marker(ran)}))
        with pytest.raises(DataError, match="record 1"):
            WriteAheadLog(path).replay()
        assert not ran.exists()

    def test_ensure_next_seq_only_raises_the_floor(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "c.wal")
        wal.ensure_next_seq(7)
        assert wal.next_seq == 7
        wal.ensure_next_seq(3)
        assert wal.next_seq == 7
        assert wal.append({}) == 7

    def test_fsync_policy_is_validated_and_reported(self, tmp_path):
        with pytest.raises(ConfigurationError, match="fsync policy"):
            WriteAheadLog(tmp_path / "c.wal", fsync="sometimes")
        for policy in ("always", "batch", "off"):
            wal = WriteAheadLog(tmp_path / f"{policy}.wal", fsync=policy)
            wal.append({"p": policy})
            wal.sync()
            stats = wal.stats()
            assert stats["fsync"] == policy
            assert stats["appends"] == 1
            assert stats["size_bytes"] > 0
            wal.close()
            assert [p for _, p in WriteAheadLog(wal.path).replay()] == [
                {"p": policy}
            ]


# --------------------------------------------------------- collection + WAL
class TestCollectionWal:
    def test_ingest_logs_before_apply_and_reports_the_seq(self, tmp_path):
        collection = ServiceCollection(CollectionConfig(name="c"))
        collection.attach_wal(WriteAheadLog(tmp_path / "c.wal"))
        try:
            payload = _ingest_payload(_random_profiles(10, clean_clean=False, seed=3))
            summary = collection.ingest(payload)
            assert summary["wal_seq"] == 1
            assert collection.wal_applied_seq == 1
            replayed = WriteAheadLog(tmp_path / "c.wal").replay()
            assert replayed == [(1, payload)]
        finally:
            collection.close()

    def test_invalid_payloads_are_rejected_before_logging(self, tmp_path):
        collection = ServiceCollection(CollectionConfig(name="c"))
        collection.attach_wal(WriteAheadLog(tmp_path / "c.wal"))
        try:
            with pytest.raises(DataError):
                collection.ingest({"profiles": [{"id": "x"}]})
            collection.ingest({"profiles": [{"id": 5, "attributes": {"name": "a"}}]})
            with pytest.raises(DataError, match="strictly increasing"):
                collection.ingest({"profiles": [{"id": 5, "attributes": {"name": "a"}}]})
            # Only the valid batch ever reached the log.
            assert len(WriteAheadLog(tmp_path / "c.wal").replay()) == 1
        finally:
            collection.close()

    @pytest.mark.parametrize(
        "profile",
        [{"id": 0, "attributes": {7: "x"}}, {"id": 0, "original_id": (1, 2)}],
        ids=["int-attribute-name", "tuple-original-id"],
    )
    def test_what_json_would_change_is_refused_before_logging(self, tmp_path, profile):
        """A replayed record must apply exactly as the live one did, so a
        value JSON would turn into another (a key into a string, a tuple into
        a list) is refused up front."""
        collection = ServiceCollection(CollectionConfig(name="c"))
        collection.attach_wal(WriteAheadLog(tmp_path / "c.wal"))
        try:
            with pytest.raises(DataError, match="must be a string"):
                collection.ingest({"profiles": [profile]})
            assert collection.index.num_profiles == 0
            assert WriteAheadLog(tmp_path / "c.wal").replay() == []
        finally:
            collection.close()

    def test_an_unloggable_payload_is_neither_logged_nor_applied(self, tmp_path):
        collection = ServiceCollection(CollectionConfig(name="c"))
        collection.attach_wal(WriteAheadLog(tmp_path / "c.wal"))
        try:
            # Valid profiles, but a value JSON cannot encode.
            payload = {"profiles": [{"id": 0, "attributes": {"name": "a"}}], "tag": {1}}
            with pytest.raises(DataError, match="JSON"):
                collection.ingest(payload)
            assert collection.index.num_profiles == 0
            assert collection.wal_applied_seq == 0
            assert WriteAheadLog(tmp_path / "c.wal").replay() == []
        finally:
            collection.close()

    def test_replayed_duplicates_are_skipped(self, tmp_path):
        collection = ServiceCollection(CollectionConfig(name="c"))
        collection.attach_wal(WriteAheadLog(tmp_path / "c.wal"))
        try:
            payload = {"profiles": [{"id": 0, "attributes": {"name": "alpha"}}]}
            collection.ingest(payload)
            duplicate = collection.ingest(payload, replay_seq=1)
            assert duplicate["duplicate"] is True
            assert duplicate["appended"] == 0
            assert collection.index.num_profiles == 1
        finally:
            collection.close()

    def test_wal_device_error_flips_read_only_degraded(self, tmp_path, monkeypatch):
        collection = ServiceCollection(CollectionConfig(name="c"))
        collection.attach_wal(WriteAheadLog(tmp_path / "c.wal"))
        try:
            collection.ingest(
                _ingest_payload(_random_profiles(12, clean_clean=False, seed=9))
            )
            warm = collection.matches(0, 10)

            def broken_append(payload):
                raise OSError(28, "No space left on device")

            monkeypatch.setattr(collection.wal, "append", broken_append)
            with pytest.raises(DegradedError, match="read-only"):
                collection.ingest({"profiles": [{"id": 99}]})
            assert "No space left" in collection.degraded_reason
            # Writes stay rejected without touching the (broken) log again...
            with pytest.raises(DegradedError):
                collection.ingest({"profiles": [{"id": 100}]})
            # ...but reads keep serving the last consistent state.
            assert collection.matches(0, 10) == warm
            assert collection.stats()["degraded"] is not None
        finally:
            collection.close()

    def test_wal_fsync_config_plumbs_through_the_store(self, tmp_path):
        store = CollectionStore(
            wal_dir=str(tmp_path / "wal"), defaults={"wal_fsync": "always"}
        )
        collection = store.get_or_create("demo")
        assert collection.wal is not None
        assert collection.wal.fsync == "always"
        store.close_all()
        with pytest.raises(ConfigurationError, match="wal_fsync"):
            CollectionConfig(name="c", wal_fsync="sometimes")
        # Without a wal_dir no log is attached and ingest reports no seq.
        plain = CollectionStore().get_or_create("demo")
        assert plain.wal is None
        assert plain.ingest({"profiles": [{"id": 0}]})["wal_seq"] is None
        plain.close()


# ------------------------------------------------------------ store recovery
def _inode(path):
    info = os.stat(path)
    return info.st_dev, info.st_ino


def _csr_bytes(collection):
    csr = collection.index.materialise()
    return [getattr(csr, field).tobytes() for field in ARRAY_FIELDS]


class TestStoreRecovery:
    def _dirs(self, tmp_path):
        return str(tmp_path / "snap"), str(tmp_path / "wal")

    def test_log_only_restart_rebuilds_the_exact_state(self, tmp_path):
        snap, wal = self._dirs(tmp_path)
        profiles = _random_profiles(40, clean_clean=False, seed=17)
        store = CollectionStore(snapshot_dir=snap, wal_dir=wal)
        collection = store.get_or_create("demo")
        for lo in range(0, 40, 10):
            collection.ingest(_ingest_payload(profiles[lo:lo + 10]))
        store.close_all()  # no snapshot was ever taken

        recovered = CollectionStore(snapshot_dir=snap, wal_dir=wal)
        summary = recovered.recover()
        assert summary["restored"] == []
        assert summary["replayed"] == {"demo": 4}
        twin = ServiceCollection(CollectionConfig(name="demo"))
        for lo in range(0, 40, 10):
            twin.ingest(_ingest_payload(profiles[lo:lo + 10]))
        got = recovered.get("demo")
        assert got.index.profile_ids() == twin.index.profile_ids()
        assert _csr_bytes(got) == _csr_bytes(twin)
        assert got.matches(0, 20) == twin.matches(0, 20)
        assert got.candidates(0) == twin.candidates(0)
        twin.close()
        recovered.close_all()

    def test_snapshot_plus_log_tail_recovers_and_is_idempotent(self, tmp_path):
        snap, wal = self._dirs(tmp_path)
        profiles = _random_profiles(30, clean_clean=False, seed=23)
        store = CollectionStore(snapshot_dir=snap, wal_dir=wal)
        collection = store.get_or_create("demo")
        collection.ingest(_ingest_payload(profiles[:20]))
        summary = store.snapshot("demo")
        assert summary["wal_truncated_records"] == 1
        collection.ingest(_ingest_payload(profiles[20:]))  # tail, not snapshotted
        store.close_all()

        recovered = CollectionStore(snapshot_dir=snap, wal_dir=wal)
        outcome = recovered.recover()
        assert outcome["restored"] == ["demo"]
        assert outcome["replayed"] == {"demo": 1}
        got = recovered.get("demo")
        assert got.index.profile_ids() == sorted(p.profile_id for p in profiles)
        # The post-recovery sequence keeps increasing past the replayed tail.
        assert got.ingest({"profiles": [{"id": 1000}]})["wal_seq"] == 3
        recovered.close_all()

        # Double recovery from the same disk state is a no-op on the second
        # replay (records at or below the applied seq are duplicates).
        again = CollectionStore(snapshot_dir=snap, wal_dir=wal)
        assert again.recover()["replayed"] == {"demo": 2}
        assert again.get("demo").index.has_profile(1000)
        again.close_all()

    def test_snapshot_newer_than_log_replays_nothing(self, tmp_path, monkeypatch):
        """A crash between checkpoint.save and the log truncation."""
        snap, wal = self._dirs(tmp_path)
        profiles = _random_profiles(25, clean_clean=False, seed=37)
        store = CollectionStore(snapshot_dir=snap, wal_dir=wal)
        collection = store.get_or_create("demo")
        collection.ingest(_ingest_payload(profiles))
        monkeypatch.setattr(collection.wal, "truncate_upto", lambda seq: 0)
        store.snapshot("demo")  # checkpoint written, log left un-truncated
        store.close_all()

        recovered = CollectionStore(snapshot_dir=snap, wal_dir=wal)
        outcome = recovered.recover()
        assert outcome["restored"] == ["demo"]
        assert outcome["replayed"] == {}  # every record was a duplicate
        got = recovered.get("demo")
        assert got.index.profile_ids() == sorted(p.profile_id for p in profiles)
        assert got.wal.next_seq == 2
        recovered.close_all()

    @pytest.mark.parametrize("torn", [False, True], ids=["intact", "torn-tail"])
    def test_a_log_written_before_records_were_json_recovers(self, tmp_path, torn):
        snap, wal_dir = self._dirs(tmp_path)
        profiles = _random_profiles(40, clean_clean=False, seed=19)
        batches = [_ingest_payload(profiles[lo:lo + 10]) for lo in range(0, 40, 10)]
        os.makedirs(wal_dir)
        log = b"".join(_pickled_record(seq, batch) for seq, batch in enumerate(batches, 1))
        tail = _pickled_record(5, {"profiles": [{"id": 999}]})[:-1] if torn else b""
        Path(wal_dir, "demo.wal").write_bytes(log + tail)

        recovered = CollectionStore(snapshot_dir=snap, wal_dir=wal_dir)
        outcome = recovered.recover()
        assert outcome["replayed"] == {"demo": 4}
        assert outcome["torn_truncations"] == int(torn)
        assert Path(wal_dir, "demo.wal").read_bytes() == log
        twin = ServiceCollection(CollectionConfig(name="demo"))
        for batch in batches:
            twin.ingest(batch)
        got = recovered.get("demo")
        for probe in (0, 17, 39):
            answers = [got.candidates(probe), got.matches(probe, 20)]
            assert json.dumps(answers) == json.dumps([twin.candidates(probe), twin.matches(probe, 20)])
        # The log goes on in JSON after its old records, and replays whole.
        assert got.ingest({"profiles": [{"id": 1000}]})["wal_seq"] == 5
        recovered.close_all()
        again = CollectionStore(snapshot_dir=snap, wal_dir=wal_dir)
        assert again.recover()["replayed"] == {"demo": 5}
        assert again.get("demo").index.has_profile(1000)
        again.close_all()
        twin.close()

    def test_recovery_truncates_a_torn_tail(self, tmp_path):
        snap, wal_dir = self._dirs(tmp_path)
        profiles = _random_profiles(20, clean_clean=False, seed=41)
        store = CollectionStore(snapshot_dir=snap, wal_dir=wal_dir)
        store.get_or_create("demo").ingest(_ingest_payload(profiles))
        store.close_all()
        with open(os.path.join(wal_dir, "demo.wal"), "ab") as handle:
            handle.write(struct.pack("<QII", 2, 500, 0) + b"mid-write crash")

        recovered = CollectionStore(snapshot_dir=snap, wal_dir=wal_dir)
        outcome = recovered.recover()
        assert outcome["torn_truncations"] == 1
        assert outcome["replayed"] == {"demo": 1}
        got = recovered.get("demo")
        assert got.index.profile_ids() == sorted(p.profile_id for p in profiles)
        recovered.close_all()

    def test_recovery_sweeps_orphaned_temps(self, tmp_path):
        snap, wal_dir = self._dirs(tmp_path)
        store = CollectionStore(snapshot_dir=snap, wal_dir=wal_dir)
        store.get_or_create("demo").ingest({"profiles": [{"id": 0}]})
        store.snapshot("demo")
        store.get_or_create("demo").ingest({"profiles": [{"id": 1}]})
        store.close_all()
        # A crash between a temp's fsync and its rename leaves it behind:
        # mid-truncate in the WAL directory, mid-snapshot in the snapshot's.
        orphans = [
            write_synced_temp(os.path.join(wal_dir, "demo.wal"), b"leftover rewrite"),
            write_synced_temp(
                os.path.join(snap, "demo", "pipeline_state.pkl"), b"half a snapshot"
            ),
        ]
        foreign = os.path.join(wal_dir, "notes.txt")
        with open(foreign, "w") as handle:
            handle.write("not a temp")

        recovered = CollectionStore(snapshot_dir=snap, wal_dir=wal_dir)
        outcome = recovered.recover()
        assert sorted(outcome["swept"]) == sorted(orphans)
        assert not any(os.path.exists(orphan) for orphan in orphans)
        assert os.path.exists(foreign)
        assert outcome["restored"] == ["demo"] and outcome["replayed"] == {"demo": 1}
        assert recovered.get("demo").index.profile_ids() == [0, 1]
        recovered.close_all()

    def test_a_snapshot_that_dies_at_any_step_still_restarts(self, tmp_path, monkeypatch):
        """Each rename or fsync of a snapshot (and of its log truncation) is
        a place to die; the restarted store always holds every ingest."""
        from tests.test_pipeline import _Crash, _crash_at

        for first in (True, False):
            hit = 0
            while True:
                hit += 1
                base = tmp_path / f"{first}-{hit}"
                snap, wal_dir = str(base / "snap"), str(base / "wal")
                store = CollectionStore(snapshot_dir=snap, wal_dir=wal_dir)
                collection = store.get_or_create("demo")
                collection.ingest({"profiles": [{"id": 0, "attributes": {"n": "a b"}}]})
                if not first:
                    store.snapshot("demo")
                collection.ingest({"profiles": [{"id": 1, "attributes": {"n": "b c"}}]})
                with monkeypatch.context() as patch:
                    _crash_at(patch, hit)
                    try:
                        store.snapshot("demo")
                    except _Crash:
                        crashed = True
                    else:
                        crashed = False
                store.close_all()
                recovered = CollectionStore(snapshot_dir=snap, wal_dir=wal_dir)
                recovered.recover()
                assert recovered.get("demo").index.profile_ids() == [0, 1]
                assert [t for d in recovered.directories() for t in temp_files(d)] == []
                recovered.close_all()
                if not crashed:
                    break
            assert hit > 6

    def test_a_snapshot_is_on_stable_storage_before_the_log_drops_it(
        self, tmp_path, monkeypatch
    ):
        snap, wal_dir = self._dirs(tmp_path)
        store = CollectionStore(snapshot_dir=snap, wal_dir=wal_dir)
        store.get_or_create("demo").ingest({"profiles": [{"id": 0}]})
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            info = os.fstat(fd)
            events.append(("fsync", (info.st_dev, info.st_ino)))
            return real_fsync(fd)

        def replace(src, dst):
            events.append(("replace", os.fspath(dst)))
            return real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        assert store.snapshot("demo")["wal_truncated_records"] == 1
        monkeypatch.undo()
        store.close_all()

        def synced(path):
            info = os.stat(path)
            return events.index(("fsync", (info.st_dev, info.st_ino)))

        log_replaced = events.index(("replace", os.path.join(wal_dir, "demo.wal")))
        snapshot = os.path.join(snap, "demo")
        for path in ("pipeline_state.pkl", "pipeline_manifest.json"):
            assert synced(os.path.join(snapshot, path)) < log_replaced
        assert synced(snapshot) < log_replaced
        # The log's own rewrite is synced, file then directory, too.
        assert synced(os.path.join(wal_dir, "demo.wal")) < log_replaced
        assert events[-1] == ("fsync", _inode(wal_dir))


# --------------------------------------------------------- subprocess chaos
class TestServiceChaos:
    """Tier-1 slice of the matrix in ``scripts/service_chaos.py``."""

    def test_kill_mid_ingest_recovers_the_acked_prefix(self, tmp_path):
        chaos = _chaos()
        outcome = chaos.run_scenario("kill-logged-unapplied", str(tmp_path))
        assert outcome["applied_batches"] >= outcome["acked_batches"]
        assert outcome["replayed"] == 2

    def test_kill_mid_snapshot_replays_duplicates_idempotently(self, tmp_path):
        chaos = _chaos()
        outcome = chaos.run_scenario("kill-mid-snapshot", str(tmp_path))
        assert outcome["applied_batches"] == outcome["acked_batches"] == 3
        assert outcome["replayed"] == 0
