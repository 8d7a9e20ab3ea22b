"""Multi-tenant collection store: snapshots, write-ahead logs, recovery.

The store owns every :class:`~repro.service.collection.ServiceCollection` of
a running service and reuses the pipeline's
:class:`~repro.pipeline.checkpoint.PipelineCheckpoint` machinery for
persistence: each collection snapshots into its own checkpoint directory
(``<snapshot_dir>/<name>/``) as an atomic, SHA-256-verified pickle with a
rotated backup.  The incremental index pickles only its token-occurrence
columns and forms dictionary — a
restored collection rebuilds its CSR with one compaction on first query, so
snapshots stay small.

With a ``wal_dir`` every collection also gets a
:class:`~repro.service.wal.WriteAheadLog` (``<wal_dir>/<name>.wal``):
ingests are logged before they apply, ``snapshot`` truncates the log up to
the snapshotted sequence number, and :meth:`CollectionStore.recover` —
the crash-restart entry point — sweeps orphaned temps, restores snapshots,
and replays each log tail, reconstructing exactly the pre-crash acked state
(a batch-boundary prefix of the ingest history).

Every file here goes through the one durable-file writer of
:mod:`repro.pipeline.checkpoint`.  The WAL directory and each snapshot
directory have **one owning process** — :meth:`CollectionStore.recover`
adopts every ``<name>.wal`` it finds, so two live servers must never share
one — and the owner sweeps every temp in them at recovery and at shutdown.
"""

from __future__ import annotations

import os

from repro.service.faults import service_fault
from repro.exceptions import ConfigurationError
from repro.pipeline.checkpoint import PipelineCheckpoint, sweep
from repro.service.collection import (
    CollectionConfig,
    ServiceCollection,
    validate_collection_name,
)
from repro.service.wal import DegradedError, WriteAheadLog

_WAL_SUFFIX = ".wal"


class CollectionStore:
    """Name → :class:`ServiceCollection`, plus snapshot/WAL persistence."""

    def __init__(
        self,
        *,
        snapshot_dir: "str | None" = None,
        wal_dir: "str | None" = None,
        defaults: "dict | None" = None,
    ) -> None:
        self.snapshot_dir = snapshot_dir
        self.wal_dir = wal_dir
        # Config values applied to collections created on first ingest
        # (clean_clean, weighting, ...); an explicit CollectionConfig wins.
        self.defaults = dict(defaults or {})
        self._collections: dict[str, ServiceCollection] = {}

    # ----------------------------------------------------------------- access
    def names(self) -> list[str]:
        return sorted(self._collections)

    def get(self, name: str) -> "ServiceCollection | None":
        return self._collections.get(name)

    def get_or_create(self, name: str) -> ServiceCollection:
        """The named collection, created from the store defaults if new."""
        collection = self._collections.get(name)
        if collection is None:
            config = CollectionConfig.from_dict({**self.defaults, "name": name})
            collection = ServiceCollection(config)
            self._collections[name] = collection
        self._attach_wal(collection)
        return collection

    def add(self, collection: ServiceCollection) -> ServiceCollection:
        """Register an explicitly configured collection (name must be free)."""
        name = collection.config.name
        if name in self._collections:
            raise ConfigurationError(f"collection {name!r} already exists")
        self._collections[name] = collection
        self._attach_wal(collection)
        return collection

    def degraded(self) -> dict:
        """Name → reason for every collection in read-only degraded mode."""
        return {
            name: collection.degraded_reason
            for name, collection in sorted(self._collections.items())
            if collection.degraded_reason is not None
        }

    # ------------------------------------------------------------- durability
    def _wal_path(self, name: str) -> str:
        return os.path.join(self.wal_dir, name + _WAL_SUFFIX)

    def _attach_wal(self, collection: ServiceCollection) -> None:
        if not self.wal_dir or collection.wal is not None:
            return
        os.makedirs(self.wal_dir, exist_ok=True)
        policy = collection.config.wal_fsync or "batch"
        collection.attach_wal(
            WriteAheadLog(self._wal_path(collection.config.name), fsync=policy)
        )

    def directories(self) -> list[str]:
        """The WAL directory and every snapshot directory that exist."""
        found = [self.wal_dir] if self.wal_dir and os.path.isdir(self.wal_dir) else []
        if self.snapshot_dir and os.path.isdir(self.snapshot_dir):
            with os.scandir(self.snapshot_dir) as entries:
                found += sorted(entry.path for entry in entries if entry.is_dir())
        return found

    def recover(self) -> dict:
        """Crash-restart entry point: temp sweep, snapshots, WAL replay.

        Sweeps the temps a crash left in :meth:`directories`, restores every
        snapshot, then replays each ``<name>.wal`` tail on top of the
        restored state — records the snapshot already covers
        (``seq <= wal_applied_seq``) are skipped, so replaying twice
        or after an un-truncated snapshot is idempotent.  Collections that
        only exist as a log (no snapshot yet) are created from the store
        defaults, which is the configuration they were serving with as long
        as the service is restarted with the same spec.

        Returns ``{"restored", "replayed", "torn_truncations", "swept"}``.
        """
        swept = [path for directory in self.directories() for path in sweep(directory)]
        summary: dict = {
            "restored": self.load_snapshots(),
            "replayed": {},
            "torn_truncations": 0,
            "swept": swept,
        }
        if self.wal_dir and os.path.isdir(self.wal_dir):
            for entry in sorted(os.listdir(self.wal_dir)):
                if not entry.endswith(_WAL_SUFFIX):
                    continue
                name = entry[: -len(_WAL_SUFFIX)]
                validate_collection_name(name)
                collection = self.get_or_create(name)
                wal = collection.wal
                replayed = 0
                for seq, payload in wal.replay():
                    outcome = collection.ingest(payload, replay_seq=seq)
                    if not outcome.get("duplicate"):
                        replayed += 1
                collection.wal_replayed = replayed
                if replayed:
                    summary["replayed"][name] = replayed
                summary["torn_truncations"] += wal.torn_truncations
        # Snapshot-restored collections whose log never existed (or was
        # truncated away) still need a WAL and a continuous sequence floor.
        for collection in self._collections.values():
            self._attach_wal(collection)
            if collection.wal is not None:
                collection.wal.ensure_next_seq(collection.wal_applied_seq + 1)
        return summary

    # -------------------------------------------------------------- snapshots
    def _checkpoint(self, name: str) -> PipelineCheckpoint:
        if not self.snapshot_dir:
            raise ConfigurationError("service started without a snapshot directory")
        validate_collection_name(name)
        return PipelineCheckpoint(os.path.join(self.snapshot_dir, name))

    def snapshot(self, name: str) -> dict:
        """Persist one collection; return where and what was written.

        Order matters for crash safety: sync the WAL, write the checkpoint
        (fsynced), *then* truncate the log up to the snapshotted sequence
        number — a crash between the last two steps leaves extra log
        records that replay skips as duplicates.
        """
        collection = self._collections.get(name)
        if collection is None:
            raise ConfigurationError(f"unknown collection {name!r}")
        if collection.degraded_reason is not None:
            raise DegradedError(
                f"collection {name!r} is read-only (degraded): "
                f"{collection.degraded_reason}"
            )
        checkpoint = self._checkpoint(name)
        wal = collection.wal
        if wal is not None:
            try:
                wal.sync()
            except OSError as error:
                collection.degraded_reason = f"WAL sync failed: {error}"
                raise DegradedError(
                    f"collection {name!r} entered read-only (degraded) "
                    f"mode: {error}"
                ) from error
        checkpoint.save(collection.snapshot_state())
        service_fault(f"snapshot.save.{name}")
        truncated = 0
        if wal is not None:
            truncated = wal.truncate_upto(collection.wal_applied_seq)
        return {
            "collection": name,
            "path": str(checkpoint.state_path),
            "profiles": collection.index.num_profiles,
            "wal_truncated_records": truncated,
        }

    def load_snapshots(self) -> list[str]:
        """Restore every collection snapshotted under ``snapshot_dir``.

        Returns the restored names.  Collections already registered (e.g.
        preloaded from a spec) are left alone; unreadable snapshots raise —
        refusing to serve half a dataset beats serving it silently.  A save
        cut short leaves the new copy, the previous one, or (a first
        snapshot) none, and then the untruncated log replays instead.
        """
        if not self.snapshot_dir or not os.path.isdir(self.snapshot_dir):
            return []
        restored = []
        for name in sorted(os.listdir(self.snapshot_dir)):
            if name in self._collections:
                continue
            checkpoint = PipelineCheckpoint(os.path.join(self.snapshot_dir, name))
            if not checkpoint.exists():
                continue
            state = checkpoint.load()
            self._collections[name] = ServiceCollection.restore(state)
            restored.append(name)
        return restored

    # -------------------------------------------------------------- lifecycle
    def close_all(self) -> None:
        """Close every collection (idempotent, never raises per-collection)."""
        for collection in self._collections.values():
            try:
                collection.close()
            except Exception:  # noqa: BLE001 - shutdown must keep sweeping
                pass

    def stats(self) -> dict:
        return {name: c.stats() for name, c in sorted(self._collections.items())}
