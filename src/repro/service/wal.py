"""Per-collection write-ahead ingest log: append, replay, truncate.

The service's durability contract is simple: **every ingest batch is logged
before it touches the incremental index**, so the state lost by a crash is
exactly the batches whose log record never hit the disk — nothing more.
Startup replay (``CollectionStore.recover``) restores the latest snapshot
and re-applies the WAL tail; ``snapshot`` truncates the log up to the
snapshotted sequence number so the tail stays short.

On-disk format — a flat sequence of self-delimiting records:

======  =====  =======================================================
offset  bytes  field
======  =====  =======================================================
0       8      sequence number (``<Q``, unsigned little-endian)
8       4      payload length ``L`` (``<I``)
12      4      CRC-32 of the payload bytes (``<I``, :func:`zlib.crc32`)
16      L      payload — the ingest dict as compact JSON (UTF-8)
======  =====  =======================================================

Logs written before the payloads were JSON hold pickled ingest dicts in the
same frame; replay reads them with :func:`repro.pipeline.legacy.wal_payload`
(plain data only: no log runs code), and appends after them are JSON.

A **torn tail** (the process died mid-write: short header, short payload,
or CRC mismatch) is detected on replay, truncated off the file and counted
— never fatal.  Replay therefore yields a batch-boundary prefix of the
ingest history: a record is either fully durable or it never happened.  An
intact record that is neither JSON nor a pickled plain dict is no tear:
replay raises :class:`~repro.exceptions.DataError` naming the file and
sequence number, and leaves the file alone.

Durability is graded by the ``fsync`` policy:

* ``always`` — ``fsync`` after every append: survives power loss;
* ``batch`` (default) — appends are flushed to the OS (a killed *process*
  loses nothing) but ``fsync`` only on :meth:`sync`/snapshot/close: an OS
  crash can lose the unsynced tail;
* ``off`` — never ``fsync``: fastest, same process-kill guarantee as
  ``batch``.

Truncation rewrites the surviving records through the one durable-file
writer of :mod:`repro.pipeline.checkpoint`, so a crash mid-truncate leaves
either the complete old log or the complete new one, plus at most one
``<name>.wal.<random>.tmp`` that the startup sweep reclaims.

A WAL device error (``OSError`` on append) flips the owning collection
into **read-only degraded mode**: writes are rejected (HTTP ``507``), reads
keep serving the last consistent state — see
:class:`~repro.service.collection.ServiceCollection`.
"""

from __future__ import annotations

import json
import os
import struct
import zlib

from repro.exceptions import ConfigurationError, DataError, SparkERError
from repro.pipeline import legacy
from repro.pipeline.checkpoint import commit_temp, write_synced_temp
from repro.service.faults import service_fault

_HEADER = struct.Struct("<QII")  # sequence number, payload length, payload CRC-32

FSYNC_POLICIES = ("always", "batch", "off")


class DegradedError(SparkERError):
    """A write reached a collection whose WAL device has failed (HTTP 507)."""


class WriteAheadLog:
    """One append-only, CRC-checksummed ingest log file."""

    def __init__(self, path: "str | os.PathLike", *, fsync: str = "batch") -> None:
        if fsync not in FSYNC_POLICIES:
            raise ConfigurationError(
                f"WAL fsync policy must be one of {FSYNC_POLICIES}, got {fsync!r}"
            )
        self.path = os.fspath(path)
        self.fsync = fsync
        self.next_seq = 1
        self.appends = 0
        self.replayed_records = 0
        self.torn_truncations = 0
        self.truncated_records = 0
        self._handle = None
        self._dirty = False

    # ----------------------------------------------------------------- append
    def _append_handle(self):
        if self._handle is None:
            os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
            self._handle = open(self.path, "ab")
        return self._handle

    def append(self, payload: object) -> int:
        """Write one durable record; returns its sequence number.

        The record is flushed to the OS before returning under every policy
        (process death never loses an acked append); ``fsync`` per the
        policy.  Raises :class:`OSError` on device failure — the caller
        (the collection) maps that to degraded mode; :class:`DataError`,
        before anything is written, when the payload has no JSON form.
        """
        service_fault("wal.append")
        try:
            data = json.dumps(payload, separators=(",", ":")).encode("utf-8")
        except (TypeError, ValueError) as error:
            raise DataError(f"ingest payload cannot be logged as JSON: {error}") from error
        seq = self.next_seq
        record = _HEADER.pack(seq, len(data), zlib.crc32(data)) + data
        handle = self._append_handle()
        handle.write(record)
        handle.flush()
        if self.fsync == "always":
            os.fsync(handle.fileno())
        else:
            self._dirty = True
        self.next_seq = seq + 1
        self.appends += 1
        return seq

    def sync(self) -> None:
        """Force the log to stable storage (no-op under policy ``off``)."""
        if self._dirty and self.fsync != "off" and self._handle is not None:
            self._handle.flush()
            os.fsync(self._handle.fileno())
        self._dirty = False

    def ensure_next_seq(self, floor: int) -> None:
        """Raise the next sequence number to at least ``floor``.

        Recovery calls this with ``applied_seq + 1`` so sequence numbers
        stay strictly increasing across a snapshot-truncated (possibly
        empty) log — replay idempotence depends on it.
        """
        self.next_seq = max(self.next_seq, floor)

    # ----------------------------------------------------------------- replay
    def _close_handle(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def _scan(self):
        """Parse the file into ``(records, good_end, torn)``.

        ``records`` is ``[(seq, raw_record_bytes, payload_bytes)]`` for every
        intact record, ``good_end`` the offset after the last one, and
        ``torn`` whether trailing bytes failed the length/CRC checks.
        """
        records = []
        good_end = 0
        torn = False
        try:
            with open(self.path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            return records, good_end, torn
        offset = 0
        while offset < len(data):
            if offset + _HEADER.size > len(data):
                torn = True
                break
            seq, length, crc = _HEADER.unpack_from(data, offset)
            start = offset + _HEADER.size
            end = start + length
            if end > len(data):
                torn = True
                break
            payload = data[start:end]
            if zlib.crc32(payload) != crc:
                torn = True
                break
            records.append((seq, data[offset:end], payload))
            good_end = end
            offset = end
        return records, good_end, torn

    def replay(self) -> "list[tuple[int, object]]":
        """Return every intact ``(seq, payload)``; truncate a torn tail.

        A partial final record (the process died mid-write) is cut off the
        file and counted in :attr:`torn_truncations` — the log then ends at
        the last complete record, which is the durability contract: a batch
        is either fully logged or it never happened.  A record in the
        earlier pickled layout replays; an intact record that does not
        decode raises :class:`DataError` before the file is touched.
        """
        self._close_handle()
        records, good_end, torn = self._scan()
        out = []
        for seq, _raw, payload in records:
            try:
                out.append((seq, json.loads(payload)))
            except ValueError:
                try:
                    out.append((seq, legacy.wal_payload(payload)))
                except Exception as error:
                    raise DataError(
                        f"WAL {self.path}: record {seq} passes its CRC but is neither a "
                        f"JSON ingest payload nor a pickled plain one: {error!r}"
                    ) from error
            self.next_seq = max(self.next_seq, seq + 1)
        if torn:
            with open(self.path, "r+b") as handle:
                handle.truncate(good_end)
                handle.flush()
                os.fsync(handle.fileno())
            self.torn_truncations += 1
        self.replayed_records += len(out)
        return out

    # --------------------------------------------------------------- truncate
    def truncate_upto(self, seq: int) -> int:
        """Drop every record with sequence number ``<= seq``; return the count.

        Called after a snapshot: records the snapshot already covers are
        dead weight.  The surviving suffix is written to a synced temp and
        committed over the log — a crash in between (the ``wal.truncate``
        fault point) leaves a complete log either way.
        """
        self._close_handle()
        records, _good_end, torn = self._scan()
        survivors = [raw for s, raw, _payload in records if s > seq]
        dropped = len(records) - len(survivors)
        if dropped == 0 and not torn and os.path.exists(self.path):
            return 0
        os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
        temp = write_synced_temp(self.path, b"".join(survivors))
        try:
            service_fault("wal.truncate")
        except BaseException:
            os.unlink(temp)
            raise
        commit_temp(temp, self.path)
        self.truncated_records += dropped
        return dropped

    # -------------------------------------------------------------- lifecycle
    def size_bytes(self) -> int:
        try:
            return os.path.getsize(self.path)
        except OSError:
            return 0

    def stats(self) -> dict:
        return {
            "path": self.path,
            "fsync": self.fsync,
            "next_seq": self.next_seq,
            "appends": self.appends,
            "replayed_records": self.replayed_records,
            "torn_truncations": self.torn_truncations,
            "truncated_records": self.truncated_records,
            "size_bytes": self.size_bytes(),
        }

    def close(self) -> None:
        """Sync (per policy) and release the file handle (idempotent)."""
        try:
            self.sync()
        except OSError:
            pass
        self._close_handle()

    def __repr__(self) -> str:
        return f"WriteAheadLog(path={self.path!r}, fsync={self.fsync!r})"
