"""Generic lifecycle for the engine's POSIX shared-memory segments.

Two subsystems publish ``multiprocessing.shared_memory`` segments: the CSR
index broadcast (:mod:`repro.metablocking.sharedmem`) and the peer-to-peer
shuffle block store (:mod:`repro.engine.shuffle`).  Both need the same
machinery — deterministic naming, resource-tracker-safe attach, idempotent
close/unlink, and a post-crash orphan sweep — so it lives here, below both.

Naming
------
Every engine segment is named ``repro-<kind>-<pid>-<seq>``:

* ``kind`` tags the subsystem (``csr`` for the shared CSR index, ``shuf``
  for shuffle blocks) so sweeps and leak checks can tell them apart;
* ``pid`` is the *creating* process — the driver for a CSR export or a
  serial-executor shuffle, a pool worker for a process-executor shuffle
  block.  The sweep uses it to decide whether a segment can still have a
  live owner;
* ``seq`` is a per-process counter, so retried tasks never reuse a name.

Ownership
---------
Creation and unlinking may happen in *different* processes: a pool worker
creates a shuffle block, the driver unlinks it once the reduce phase has
consumed it.  Three process-local registries arbitrate:

* ``_live_owned`` — names created (and not yet unlinked) by *this* process.
  The sweep never touches an own-pid name that is still registered here.
* ``_protected`` — driver-side set of in-flight shuffle blocks: names whose
  creating worker may already be dead (pool rebuild) but whose payload a
  pending reduce task still needs.  The executor protects names as task
  outcomes arrive (see ``TaskOutcome.published_segments``) and the shuffle
  releases them after the reduce phase.  The sweep skips protected names.
* ``_handles`` — attachment cache (see :func:`cache_attachment`): worker
  processes serving many stages keep a few recent mappings alive instead of
  re-mmapping per stage, and a cached handle defuses the ``BufferError``
  that ``SharedMemory.__del__`` raises while zero-copy views are live.

Sweeping
--------
:func:`sweep_orphaned_segments` unlinks engine segments whose creator is
dead (a crashed worker or a killed previous driver) or whose own-pid
registration was lost (an abandoned export), always skipping protected
names.  It is called by the multiprocessing executor when it discards a
broken pool and again when it closes; every step is best-effort and
idempotent, so concurrent releases never turn into errors.
"""

from __future__ import annotations

import itertools
import os

from repro.engine.tmpfiles import pid_alive

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

# Driver-side names of in-flight shuffle blocks that must survive a pool
# rebuild even though their creating worker is dead.
_protected: set[str] = set()

# Worker-side capture of segment names published during the current task
# (mirrors the accumulator-update capture): the names ride back to the
# driver on the TaskOutcome so the driver can protect them before any sweep.
_publish_capture: list[str] | None = None


def make_segment_name(kind: str) -> str:
    """A fresh ``repro-<kind>-<pid>-<seq>`` name for this process."""
    if not kind.isalnum():
        raise ValueError(f"segment kind must be alphanumeric, got {kind!r}")
    return f"{SEGMENT_FAMILY}-{kind}-{os.getpid()}-{next(_segment_ids)}"


# ----------------------------------------------------------------- tracking
def attach_untracked(name: str):
    """Attach to a segment without registering it with the resource tracker.

    Only the segment's creator (or the driver, for shuffle blocks) unlinks
    it.  An attaching pool worker that was forked *before* the driver's
    resource tracker started would otherwise spawn its own tracker, record
    the name there, and warn about a "leaked" segment at exit — after the
    segment has long been unlinked.  Python 3.13 exposes this as
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


def create_untracked(name: str, size: int):
    """Create a segment without a resource-tracker registration.

    Used for shuffle blocks, whose creator (a pool worker) is *not* the
    process that unlinks them (the driver): a tracked creation would leave
    the creator's tracker believing the name leaked once the driver unlinks
    it.  Cleanup of untracked segments is the driver's release path plus
    :func:`sweep_orphaned_segments`.
    """
    from multiprocessing import shared_memory

    try:
        return shared_memory.SharedMemory(name=name, create=True, size=size, track=False)
    except TypeError:  # Python < 3.13: no track parameter
        pass
    shm = shared_memory.SharedMemory(name=name, create=True, size=size)
    from multiprocessing import resource_tracker

    try:
        resource_tracker.unregister(shm._name, "shared_memory")  # type: ignore[attr-defined]
    except Exception:  # pragma: no cover - tracker internals vary
        pass
    return shm


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


def _unlink_balanced(shm) -> None:
    """Unlink an *untracked* handle without confusing the resource tracker.

    On Python < 3.13 ``SharedMemory.unlink()`` unconditionally sends an
    unregister message; for a handle whose registration was suppressed at
    create/attach time that message has no matching entry and the tracker
    logs a ``KeyError``.  Registering just before unlinking balances the
    pair.  Python 3.13 handles created with ``track=False`` skip the
    message entirely and need no balancing.
    """
    if not getattr(shm, "_track", True):
        shm.unlink()
        return
    from multiprocessing import resource_tracker

    try:
        resource_tracker.register(shm._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker internals vary
        pass
    shm.unlink()


def unlink_segment(name: str) -> None:
    """Unlink a segment by name from any process (idempotent).

    This is the driver-side release of a worker-published shuffle block: the
    driver never held a handle, so it attaches untracked just long enough to
    unlink.  A name already gone is a no-op.
    """
    _live_owned.discard(name)
    _protected.discard(name)
    handle = _handles.pop(name, None)
    if handle is not None:
        try:
            handle.release()  # type: ignore[attr-defined]
        except Exception:  # pragma: no cover - defensive
            pass
    try:
        shm = attach_untracked(name)
    except FileNotFoundError:
        return
    try:
        _unlink_balanced(shm)
    except FileNotFoundError:  # pragma: no cover - released mid-sweep
        pass
    quiet_close(shm)


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


# --------------------------------------------------------------- protection
def protect_segments(names) -> None:
    """Shield in-flight shuffle blocks from the orphan sweep (driver-side)."""
    _protected.update(names)


def unprotect_segments(names) -> None:
    """Drop the sweep shield once the blocks have been consumed."""
    _protected.difference_update(names)


# ---------------------------------------------------------- publish capture
def begin_publish_capture() -> None:
    """Start recording segment names published by the current task."""
    global _publish_capture
    _publish_capture = []


def end_publish_capture() -> list[str]:
    """Stop recording; return the names published since ``begin``."""
    global _publish_capture
    captured, _publish_capture = _publish_capture, None
    return captured or []


def record_published(name: str) -> bool:
    """Note a published segment in the active capture.

    Returns ``True`` when a capture is active (worker task — the name rides
    back on the task outcome and ownership transfers to the driver) and
    ``False`` otherwise (driver-side publish — the caller should register
    ownership locally instead).
    """
    if _publish_capture is None:
        return False
    _publish_capture.append(name)
    return True


# ------------------------------------------------------------------- sweeps
def sweep_orphaned_segments() -> list[str]:
    """Unlink orphaned engine segments; returns the swept names.

    Called by the multiprocessing executor when it rebuilds a pool after a
    worker crash and again when it closes.  Two kinds of orphans are swept:

    * own-pid segments that are no longer in the live-owner registry — an
      export abandoned without release whose finalizer never ran (e.g.
      state torn by a crashed fork);
    * segments of a *dead* process — a crashed pool worker, or a previous
      driver killed before its run-scoped release or exit backstop could
      unlink.

    Names in the protected set (in-flight shuffle blocks whose creating
    worker died but whose payload a pending reduce still needs) and
    segments of other live processes are always left alone, so concurrent
    runs on one machine never sweep each other.  Everything is best-effort
    and idempotent: a name unlinked by the owner between listing and
    sweeping is skipped silently.
    """
    shm_dir = "/dev/shm"
    if not os.path.isdir(shm_dir):  # pragma: no cover - non-POSIX platforms
        return []
    own_pid = os.getpid()
    swept: list[str] = []
    for entry in sorted(os.listdir(shm_dir)):
        if not entry.startswith(f"{SEGMENT_FAMILY}-"):
            continue
        try:
            pid = int(entry.split("-")[2])
        except (IndexError, ValueError):  # pragma: no cover - foreign name
            continue
        if entry in _protected:
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
    subsystem (``"csr"``, ``"shuf"``).  Returns an empty list on platforms
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
