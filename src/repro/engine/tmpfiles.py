"""Managed temporary file artifacts: pid-stamped names, one sweep.

The service WAL's truncate-rewrite temp (``waltmp``) is the on-disk artifact
with a lifetime tied to a process.  Its caller names the directory it lives
in — the WAL directory — and its name carries the **creator pid**
(``repro-<kind>-<pid>-<seq>``), mirroring the shared-memory segment naming
of :mod:`repro.engine.sharedmem`, so a crash sweep
(:func:`sweep_orphaned_artifacts`) can tell a live owner's file from a dead
one's and reclaim disk after a crash without ever touching an artifact that
is still in use.

Ownership mirrors the segment registries: paths created here join a
process-local live set and leave it on :func:`discard_artifact`; the sweep
skips the live set, skips any artifact whose creator pid is alive, and
removes the rest.
"""

from __future__ import annotations

import itertools
import os

_artifact_ids = itertools.count()

# Absolute paths created (and not yet discarded) by this process.  A forked
# worker inherits a copy, which is harmless: the sweep also skips every
# artifact whose creator pid is alive, and workers never sweep their parent.
_live_owned: set[str] = set()


def make_artifact_path(kind: str, directory: "str | os.PathLike") -> str:
    """Reserve a pid-stamped artifact file path under ``directory`` (the
    file is not created).

    The path joins the live-owned set immediately, so a concurrent sweep in
    this process never reclaims it between reservation and first write.
    """
    if not kind.isalnum():
        raise ValueError(f"artifact kind must be alphanumeric, got {kind!r}")
    path = os.path.join(directory, f"repro-{kind}-{os.getpid()}-{next(_artifact_ids)}")
    _live_owned.add(path)
    return path


def release_artifact(path: str) -> None:
    """Drop ownership of one artifact *without* removing it.

    For artifacts that graduate into a durable file via ``os.replace`` (the
    WAL's truncate-rewrite): after the rename the reserved path no longer
    exists, but it must leave the live set so shutdown sweeps stay exact.
    """
    _live_owned.discard(path)


def discard_artifact(path: str) -> None:
    """Remove one artifact file and drop its ownership.

    Idempotent and silent on a path that is already gone — exactly like the
    segment unlink helpers this mirrors.
    """
    _live_owned.discard(path)
    try:
        os.unlink(path)
    except OSError:
        pass


def pid_alive(pid: int) -> bool:
    """The one liveness probe of both orphan sweeps (files here, segments in
    :mod:`repro.engine.sharedmem`); any doubt counts as alive — never sweep
    what might still be in use."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - pid exists, other user
        return True
    except OSError:  # pragma: no cover - defensive
        return True
    return True


def owner_pid(name: str) -> "int | None":
    """Creator pid of a managed artifact or segment name, ``None`` if foreign.

    The one parser of the ``repro-<kind>-<pid>-<seq>`` scheme, for both
    orphan sweeps (files here, shared-memory segments in
    :mod:`repro.engine.sharedmem`).  Only exact matches are claimed:
    ``tempfile.mkdtemp`` suffixes, extra fields and other non-integer fields
    are someone else's and are left alone.
    """
    parts = name.split("-")
    if len(parts) != 4 or parts[0] != "repro" or not parts[1].isalnum():
        return None
    try:
        int(parts[3])
        return int(parts[2])
    except ValueError:
        return None


def sweep_orphaned_artifacts(
    directory: "str | os.PathLike", kind: "str | None" = None
) -> list[str]:
    """Remove managed artifacts whose creator process is gone.

    Scans ``directory`` for ``repro-<kind>-<pid>-<seq>`` entries and removes
    those whose pid no longer exists — the on-disk companion of
    :func:`repro.engine.sharedmem.sweep_orphaned_segments`.  ``kind``
    restricts the sweep to one family (the service's startup recovery sweeps
    only ``waltmp`` under its WAL directory).  Returns the removed paths.
    """
    try:
        entries = os.listdir(directory)
    except OSError:
        return []
    marker = None if kind is None else f"repro-{kind}-"
    removed = []
    for entry in entries:
        if marker is not None and not entry.startswith(marker):
            continue
        pid = owner_pid(entry)
        if pid is None:
            continue
        path = os.path.join(directory, entry)
        if path in _live_owned:
            continue
        if pid == os.getpid() or pid_alive(pid):
            continue
        discard_artifact(path)
        removed.append(path)
    return removed


def live_artifacts(kind: "str | None" = None) -> list[str]:
    """The artifacts this process currently owns (optionally one kind)."""
    if kind is None:
        return sorted(_live_owned)
    marker = f"repro-{kind}-"
    return sorted(
        path for path in _live_owned if os.path.basename(path).startswith(marker)
    )


def discard_live_artifacts(kind: "str | None" = None) -> list[str]:
    """Remove every artifact this process still owns; return the paths.

    The graceful-shutdown sweep of a long-lived process (the ER service): a
    batch run discards each artifact as its owner closes, but a server that
    is killed mid-request must be able to drop everything it ever created in
    one call.  Restricting to ``kind`` leaves other families untouched.
    """
    paths = live_artifacts(kind)
    for path in paths:
        discard_artifact(path)
    return paths
