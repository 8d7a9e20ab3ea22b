"""Checkpoint/resume for pipeline runs, and the one durable-file writer.

After every completed stage the runner serialises the whole run state — the
resolved spec, the artifact store, the per-stage execution records (with
their metrics) and the input data — into one pickle under the checkpoint
directory.
A re-run with ``resume=True`` (or ``python -m repro.cli resume``) loads that
state, verifies the spec still matches, and skips every completed stage.

Integrity: the manifest records the version and the SHA-256 checksums of the
state and of the previous state, which each save rotates into a backup slot.
:meth:`PipelineCheckpoint.load` reads the manifest first and unpickles only
a copy whose checksum it records — the state file, else the backup — so a
torn file or a save cut short at any step loads the newest verified copy,
at most one stage behind.  No manifest, or no verified copy, raises.  It
unpickles through :mod:`repro.pipeline.legacy`, so a state an earlier
version wrote loads in the current shape.

Every durable file of the package (checkpoint state and manifest, service
snapshots, the service WAL's truncate-rewrite) is written the same way:
:func:`write_synced_temp` fsyncs a ``<target>.<random>.tmp`` beside the
target, :func:`commit_temp` renames it over the target and fsyncs the
directory.  A crash leaves the old file or the new one, plus at most one
temp for :func:`sweep`.  The sweep asks no one whether a temp is in use: a
directory of durable files has one owning process, which sweeps only when
it has no write in flight.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import re
import tempfile
from pathlib import Path
from typing import Any

from repro.exceptions import PipelineError
from repro.pipeline import legacy

STATE_FILE = "pipeline_state.pkl"
BACKUP_FILE = "pipeline_state.prev.pkl"
MANIFEST_FILE = "pipeline_manifest.json"
CHECKPOINT_VERSION = 1

# ``<target>.<random>.tmp``: the names ``write_synced_temp`` gives its temps.
_TEMP_NAME = re.compile(r".+\.[a-z0-9_]+\.tmp")

def _checksum(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _unlink_quietly(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


def write_synced_temp(path: "str | os.PathLike[str]", data: bytes) -> str:
    """Write ``data`` to a new temp beside ``path`` and fsync it; return the
    temp's name, or remove it on any exception."""
    path = os.fspath(path)
    descriptor, temp = tempfile.mkstemp(
        dir=os.path.dirname(path) or ".", prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(descriptor, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
    except BaseException:
        _unlink_quietly(temp)
        raise
    return temp


def commit_temp(temp: str, path: "str | os.PathLike[str]") -> None:
    """Rename a synced temp over ``path`` (removing it if that fails), then
    fsync the directory so the rename survives power loss."""
    try:
        os.replace(temp, path)
    except BaseException:
        _unlink_quietly(temp)
        raise
    if os.name == "posix":
        descriptor = os.open(os.path.dirname(os.fspath(path)) or ".", os.O_RDONLY)
        try:
            os.fsync(descriptor)
        finally:
            os.close(descriptor)


def temp_files(directory: "str | os.PathLike[str]") -> list[str]:
    """The temps of :func:`write_synced_temp` in an existing ``directory``."""
    entries = sorted(os.listdir(directory))
    return [os.path.join(directory, entry) for entry in entries if _TEMP_NAME.fullmatch(entry)]


def sweep(directory: "str | os.PathLike[str]") -> list[str]:
    """Remove every temp in ``directory``; return the removed paths."""
    removed = temp_files(directory)
    for path in removed:
        _unlink_quietly(path)
    return removed


class PipelineCheckpoint:
    """One checkpoint directory: an atomic pickle plus a readable manifest."""

    def __init__(self, path: "str | os.PathLike[str]") -> None:
        self.directory = Path(path)

    @property
    def state_path(self) -> Path:
        return self.directory / STATE_FILE

    @property
    def backup_path(self) -> Path:
        return self.directory / BACKUP_FILE

    @property
    def manifest_path(self) -> Path:
        return self.directory / MANIFEST_FILE

    def exists(self) -> bool:
        """True when a state file or its backup is present."""
        return self.state_path.is_file() or self.backup_path.is_file()

    # ------------------------------------------------------------------ save
    def save(self, state: dict[str, Any]) -> None:
        """Durably persist ``state`` with a checksum, keeping the previous one.

        Sweep, rotate the verified state into the backup slot, write the
        manifest, write the state: until the new state lands, the manifest
        on disk records the checksum of the previous state wherever it sits,
        so a crash at any step leaves a loadable checkpoint.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        sweep(self.directory)
        state = dict(state)
        state["version"] = CHECKPOINT_VERSION
        data = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
        try:
            previous = self._newest_verified(self._recorded_checksums())
        except PipelineError:  # nothing verifiable to keep
            previous = None
        if previous is not None and previous[0] == self.state_path:
            os.replace(self.state_path, self.backup_path)
        manifest = {
            "version": CHECKPOINT_VERSION,
            "checksum": _checksum(data),
            "backup_checksum": None if previous is None else previous[1],
            "completed": list(state.get("completed", [])),
            "stages": [entry.get("stage") for entry in state.get("spec", {}).get("stages", [])],
            "artifacts": state.get("artifact_manifest", {}),
        }
        manifest_data = json.dumps(manifest, indent=2).encode("utf-8")
        for path, content in ((self.manifest_path, manifest_data), (self.state_path, data)):
            commit_temp(write_synced_temp(path, content), path)

    # ------------------------------------------------------------------ load
    def load(self) -> dict[str, Any]:
        """Load the newest copy, state file then backup, whose checksum the
        manifest records; raise :class:`~repro.exceptions.PipelineError`
        when none does."""
        if not self.exists():
            raise PipelineError(f"no checkpoint found at {self.state_path}")
        found = self._newest_verified(self._recorded_checksums())
        if found is None:
            backup = (
                "the backup failed verification too" if self.backup_path.is_file()
                else "no backup exists"
            )
            raise PipelineError(
                f"checkpoint state at {self.state_path} is missing or corrupt and "
                f"{backup}: no checksum in {self.manifest_path} matches"
            )
        path, _digest, data = found
        try:
            state = legacy.unpickle_state(data)
        except Exception as error:
            raise PipelineError(
                f"checkpoint state {path} failed to unpickle: {error!r}"
            ) from error
        return legacy.current_state(state)

    def _recorded_checksums(self) -> set[str]:
        """The state checksums the manifest records.  No checksum, no
        unpickle: a manifest that is missing, unreadable, without a checksum
        or of another version raises."""
        try:
            manifest = json.loads(self.manifest_path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as error:
            raise PipelineError(
                f"checkpoint manifest {self.manifest_path} is missing or "
                f"unreadable, so no state can be verified: {error}"
            ) from error
        if not isinstance(manifest, dict) or not isinstance(manifest.get("checksum"), str):
            raise PipelineError(f"checkpoint manifest {self.manifest_path} records no checksum")
        if manifest.get("version") != CHECKPOINT_VERSION:
            raise PipelineError(
                f"checkpoint version {manifest.get('version')!r} is not supported "
                f"(expected {CHECKPOINT_VERSION})"
            )
        recorded = (manifest["checksum"], manifest.get("backup_checksum"))
        return {value for value in recorded if isinstance(value, str)}

    def _newest_verified(self, accepted: set[str]) -> "tuple[Path, str, bytes] | None":
        """``(path, checksum, bytes)`` of the state file, else the backup,
        whose checksum is in ``accepted``."""
        for path in (self.state_path, self.backup_path):
            try:
                data = path.read_bytes()
            except OSError:
                continue
            digest = _checksum(data)
            if digest in accepted:
                return path, digest, data
        return None
