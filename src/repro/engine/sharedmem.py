"""Lifecycle of the engine's POSIX shared-memory segments.

The range pool maps the meta-blocking CSR index from one
``multiprocessing.shared_memory`` segment
(:mod:`repro.metablocking.sharedmem` packs the fields); this module holds the
generic machinery below it — deterministic naming, resource-tracker-safe
attach, idempotent close/unlink and the post-crash orphan sweep.

Naming
------
Every engine segment is named ``repro-<kind>-<pid>-<seq>`` (``kind`` tags the
subsystem, ``csr`` for the shared CSR index; ``pid`` is the creating process;
``seq`` a per-process counter), the same scheme as the on-disk artifacts of
:mod:`repro.engine.tmpfiles`, whose :func:`~repro.engine.tmpfiles.owner_pid`
parses both.

Ownership
---------
The driver exports (creates) a segment and unlinks it; pool workers only
attach and close.  Two process-local registries:

* ``_live_owned`` — names created (and not yet unlinked) by *this* process.
  The sweep never touches an own-pid name that is still registered here.
* ``_handles`` — attachment cache (see :func:`cache_attachment`): worker
  processes serving many maps keep a few recent mappings alive instead of
  re-mmapping per map, and a cached handle defuses the ``BufferError``
  that ``SharedMemory.__del__`` raises while zero-copy views are live.

Sweeping
--------
:func:`sweep_orphaned_segments` unlinks engine segments whose creator is
dead (a crashed worker or a killed previous driver) or whose own-pid
registration was lost (an abandoned export).  The engine context runs it when
it discards a broken pool; every step is best-effort and idempotent, so
concurrent releases never turn into errors.
"""

from __future__ import annotations

import itertools
import os

from repro.engine.tmpfiles import owner_pid, pid_alive

SEGMENT_FAMILY = "repro"

_segment_ids = itertools.count()

# How many non-owned attachments (beyond the one being attached) a worker
# keeps mapped; older ones are evicted so a long-lived pool serving many
# runs never accumulates mappings.
_KEEP_RECENT_ATTACHMENTS = 2

# Attachment cache, one entry per segment name; values expose ``owner``,
# ``released`` and ``release()`` (e.g. SharedIndexBuffers).
_handles: dict[str, object] = {}

# Names of segments created (and still owned, i.e. not yet unlinked) by this
# process.  See the module docstring for how the sweep consults it.
_live_owned: set[str] = set()


def make_segment_name(kind: str) -> str:
    """A fresh ``repro-<kind>-<pid>-<seq>`` name for this process."""
    if not kind.isalnum():
        raise ValueError(f"segment kind must be alphanumeric, got {kind!r}")
    return f"{SEGMENT_FAMILY}-{kind}-{os.getpid()}-{next(_segment_ids)}"


# ----------------------------------------------------------------- tracking
def attach_untracked(name: str):
    """Attach to a segment without registering it with the resource tracker.

    Only the segment's creator unlinks it.  An attaching pool worker that was
    forked *before* the driver's resource tracker started would otherwise
    spawn its own tracker, record the name there, and warn about a "leaked"
    segment at exit — after the segment has long been unlinked.  Python 3.13 exposes this as
    ``track=False``; on earlier versions the registration hook is stubbed
    out for the duration of the attach (workers are single-threaded per
    task, so this is race-free).
    """
    from multiprocessing import shared_memory

    try:
        return shared_memory.SharedMemory(name=name, create=False, track=False)
    except TypeError:  # Python < 3.13: no track parameter
        pass
    from multiprocessing import resource_tracker

    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None  # type: ignore[assignment]
    try:
        return shared_memory.SharedMemory(name=name, create=False)
    finally:
        resource_tracker.register = original


# ------------------------------------------------------------------ closing
def quiet_close(shm) -> None:
    """Close ``shm`` without tripping over live zero-copy views.

    ``SharedMemory.close()`` raises ``BufferError`` while ndarray views built
    over ``shm.buf`` are alive.  Instead, drop the handle's references and
    close the file descriptor: the memoryview/mmap pair stays referenced by
    the views and is unmapped when the last view dies, and the defused
    ``SharedMemory.__del__`` no-ops instead of spraying ignored exceptions.
    """
    try:
        shm.close()
        return
    except BufferError:
        pass
    shm._buf = None
    shm._mmap = None
    fd = getattr(shm, "_fd", -1)
    if fd >= 0:
        try:
            os.close(fd)
        except OSError:  # pragma: no cover - already closed
            pass
        shm._fd = -1


def release_segment(shm, owner: bool) -> None:
    """Finalizer body: close the mapping, unlink once if we created it.

    Both steps are idempotent: a run-scoped release, a GC finalizer backstop
    and the post-crash orphan sweep can race over the same segment, so a
    mapping already closed or a name already unlinked (by whichever got
    there first) must be a no-op, never an error.
    """
    _handles.pop(shm.name, None)
    if owner:
        _live_owned.discard(shm.name)
    quiet_close(shm)
    if owner:
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass


# ------------------------------------------------------------------- caches
def cache_attachment(name: str, handle) -> None:
    """Cache an attached handle for the process lifetime, evicting old ones.

    A long-lived pool worker sees a handful of fresh segments per run; older
    non-owned attachments are evicted so the cache never pins more than a
    few mappings.  Evicted handles only drop *this* reference — views handed
    out earlier keep their mmap alive until they die, and a same-name
    re-attach simply maps again.
    """
    stale = [
        key
        for key, cached in _handles.items()
        if not getattr(cached, "owner", False) and key != name
    ]
    for key in stale[: -_KEEP_RECENT_ATTACHMENTS or None]:
        _handles.pop(key).release()  # type: ignore[attr-defined]
    _handles[name] = handle


def cached_attachment(name: str):
    """The cached live handle for ``name``, or ``None``."""
    cached = _handles.get(name)
    if cached is not None and not getattr(cached, "released", False):
        return cached
    return None


def register_owned(name: str) -> None:
    """Record that this process created ``name`` and has not unlinked it."""
    _live_owned.add(name)


# ------------------------------------------------------------------- sweeps
def sweep_orphaned_segments() -> list[str]:
    """Unlink orphaned engine segments; returns the swept names.

    Called by the engine context when it discards a pool broken by a worker
    crash.  Two kinds of orphans are swept:

    * own-pid segments that are no longer in the live-owner registry — an
      export abandoned without release whose finalizer never ran (e.g.
      state torn by a crashed fork);
    * segments of a *dead* process — a crashed pool worker, or a previous
      driver killed before its run-scoped release or exit backstop could
      unlink.

    Segments of other live processes, and names that are not exactly
    ``repro-<kind>-<pid>-<seq>``, are always left alone, so concurrent runs
    on one machine never sweep each other or a foreign segment.  Everything
    is best-effort and idempotent: a name unlinked by the owner between
    listing and sweeping is skipped silently.
    """
    shm_dir = "/dev/shm"
    if not os.path.isdir(shm_dir):  # pragma: no cover - non-POSIX platforms
        return []
    own_pid = os.getpid()
    swept: list[str] = []
    for entry in sorted(os.listdir(shm_dir)):
        pid = owner_pid(entry)
        if pid is None:
            continue
        if pid == own_pid:
            if entry in _live_owned:
                continue
        elif pid_alive(pid):
            continue  # owner still alive: not ours to sweep
        try:
            os.unlink(os.path.join(shm_dir, entry))
        except FileNotFoundError:  # pragma: no cover - released mid-sweep
            continue
        except OSError:  # pragma: no cover - defensive
            continue
        _handles.pop(entry, None)
        swept.append(entry)
    return swept


def live_segments(kind: str | None = None) -> list[str]:
    """Names of this process's engine segments still present in /dev/shm.

    Test helper for the no-leak guarantee; ``kind`` restricts to one
    subsystem (``"csr"``).  Returns an empty list on platforms
    without a /dev/shm view of POSIX shared memory.
    """
    shm_dir = "/dev/shm"
    if not os.path.isdir(shm_dir):  # pragma: no cover - non-POSIX platforms
        return []
    prefix = (
        f"{SEGMENT_FAMILY}-{kind}-{os.getpid()}-"
        if kind is not None
        else f"{SEGMENT_FAMILY}-"
    )
    own_marker = f"-{os.getpid()}-"
    return sorted(
        entry
        for entry in os.listdir(shm_dir)
        if entry.startswith(prefix) and (kind is not None or own_marker in entry)
    )
