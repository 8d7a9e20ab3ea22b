"""Pluggable stage executors: where the engine's stages actually run.

The scheduler records *what* ran; an :class:`Executor` decides *where*.  Two
implementations exist:

* :class:`SerialExecutor` — runs every partition in the driver process, in
  partition order.  This is the historical behaviour and the default.
* :class:`MultiprocessingExecutor` — ships each partition of a stage to a
  :class:`concurrent.futures.ProcessPoolExecutor` worker, turning the
  engine's recorded task parallelism into real multi-core wall-clock
  parallelism.

Every physical stage routes through :meth:`Executor.run_stage`: fused narrow
chains (see :class:`~repro.engine.rdd.MappedPartitionsRDD`) *and* the two
phases of a shuffle — the map-side bucket/combine tasks and the reduce-side
merge tasks of :func:`repro.engine.shuffle.execute_shuffle`.

A stage is shippable when its per-partition function chain pickles:
the chain is serialised **once per stage** in the driver (so an unpicklable
closure fails fast with a clear :class:`~repro.exceptions.EngineError`
instead of hanging a worker), and each worker task replays it over its own
partition.  :class:`~repro.engine.broadcast.Broadcast` values travel inside
the chain through a registry-backed ``__reduce__`` — one live copy per worker
process — and :class:`~repro.engine.accumulators.Accumulator` updates are
captured task-side and replayed on the driver objects in partition order, so
the merged driver state is identical to a serial run (same float accumulation
order, same counts).

Executor selection is the ``executor`` engine option (:mod:`repro.options`):
``"serial"``, ``"process"``, ``"process:4"`` (4 workers), or an
:class:`Executor` instance handed to ``EngineContext(executor=...)``.

Fault tolerance: the multiprocessing executor owns a
:class:`~repro.engine.faults.FaultPolicy` that governs an *attempt loop*
around each shipped stage — a crashed worker (``BrokenProcessPool``), a hung
task (per-task timeout) or a task exception fails only that attempt wave;
the pool is torn down and rebuilt, orphaned ``/dev/shm`` segments are swept,
and only the still-failing partitions are re-run after a deterministic
backoff.  Retrying is bit-for-bit safe because a task is a pure replay of
the pickled chain over an immutable partition and only final successful
outcomes are merged into driver state.  When the policy is exhausted the
stage either raises or replays the failing partitions in the driver
(``on_exhausted="serial-fallback"``), re-running the *pickled* chain under
task-side accumulator capture so the partition-order replay — and therefore
every float accumulation — stays identical to a clean run.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import sys
import time
from collections.abc import Callable, Iterable, Iterator, Sequence
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any

import itertools

from repro.engine import accumulators as _accumulators
from repro.engine import broadcast as _broadcast
from repro.engine import sharedmem as _sharedmem
from repro.engine import tmpfiles as _tmpfiles
from repro.engine.faults import (
    FaultInjector,
    FaultPolicy,
    _FaultProbe,
)
from repro.exceptions import EngineError
from repro.options import EngineOptions, resolve_option

try:  # pragma: no cover - resource is POSIX-only
    import resource as _resource
except ImportError:  # pragma: no cover - non-POSIX platform
    _resource = None  # type: ignore[assignment]

def _max_rss_bytes() -> int:
    """Peak resident set size of *this* process, in bytes (0 when unknown).

    ``ru_maxrss`` is a process-lifetime high-water mark: kilobytes on Linux,
    bytes on macOS.
    """
    if _resource is None:  # pragma: no cover - non-POSIX platform
        return 0
    peak = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
    return int(peak) if sys.platform == "darwin" else int(peak) * 1024

StageFunc = Callable[[int, Iterator[Any]], Iterable[Any]]

# Every shipped stage gets a token; all its tasks share one payload, so each
# worker deserialises the chain (and any broadcast riding in it) once per
# stage instead of once per task.
_stage_tokens = itertools.count()

# Worker-side single-slot chain cache.  Stages execute one after another, so
# keeping only the latest chain both maximises hits and avoids pinning the
# broadcasts of finished stages in worker memory.
_cached_token: int | None = None
_cached_funcs: tuple[StageFunc, ...] = ()


def _load_chain(payload: bytes, token: int) -> tuple[StageFunc, ...]:
    global _cached_token, _cached_funcs
    if _cached_token != token:
        _cached_funcs = pickle.loads(payload)
        _cached_token = token
    return _cached_funcs


@dataclass
class TaskOutcome:
    """What one task (one partition of one stage) produced.

    Besides the materialised partition this carries everything the driver
    must merge back: the task's wall-clock, which worker ran it, the
    accumulator updates it recorded (replayed driver-side in partition
    order) and how often it read each broadcast variable.  ``attempts`` and
    ``failures`` record the fault-tolerance history of the partition:
    ``attempts`` counts execution attempts including the final successful
    one, ``failures`` the failed attempts before it (0 on a clean run).
    ``published_segments`` names the shared-memory shuffle blocks the task
    published (see :mod:`repro.engine.shuffle`); the driver protects them
    from the orphan sweep the moment the outcome is collected, so a pool
    rebuild never unlinks a block a pending reduce task still needs.
    ``max_rss_bytes`` is the executing process's peak resident set size
    (the ``getrusage`` high-water mark) sampled as the task finished — the
    per-task memory signal the scale bench guard reads.
    """

    partition: list[Any]
    elapsed_seconds: float = 0.0
    worker: str = "driver"
    accumulator_updates: dict[int, list[Any]] = field(default_factory=dict)
    broadcast_reads: dict[int, int] = field(default_factory=dict)
    attempts: int = 1
    failures: int = 0
    published_segments: list[str] = field(default_factory=list)
    max_rss_bytes: int = 0


@dataclass
class StageResult:
    """All task outcomes of one executed stage, in partition order."""

    executor: str
    tasks: list[TaskOutcome]

    @property
    def partitions(self) -> list[list[Any]]:
        return [task.partition for task in self.tasks]


class Executor:
    """Runs the fused function chain of a narrow stage over its partitions."""

    name = "executor"

    def spec(self) -> str:
        """The executor spec string that rebuilds an equivalent executor."""
        return self.name

    def run_stage(
        self,
        funcs: Sequence[StageFunc],
        source_partitions: Sequence[Sequence[Any]],
        name: str = "stage",
    ) -> StageResult:
        raise NotImplementedError

    def close(self) -> None:
        """Release executor resources (worker pools); idempotent."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class SerialExecutor(Executor):
    """Run every task in the driver process, in partition order."""

    name = "serial"

    def run_stage(
        self,
        funcs: Sequence[StageFunc],
        source_partitions: Sequence[Sequence[Any]],
        name: str = "stage",
    ) -> StageResult:
        tasks = []
        for index, partition in enumerate(source_partitions):
            start = time.perf_counter()
            rows: Iterable[Any] = iter(partition)
            for func in funcs:
                rows = func(index, rows)
            data = list(rows)
            tasks.append(
                TaskOutcome(
                    data,
                    time.perf_counter() - start,
                    max_rss_bytes=_max_rss_bytes(),
                )
            )
        return StageResult(self.name, tasks)


def _run_remote_task(
    payload: bytes, token: int, index: int, partition: list[Any]
) -> TaskOutcome:
    """Worker-side task body: replay the pickled chain over one partition.

    Accumulator updates and broadcast reads are captured per task (the worker
    process is long-lived and serves many tasks) and returned for the driver
    to merge.
    """
    start = time.perf_counter()
    funcs = _load_chain(payload, token)
    baseline = _broadcast.snapshot_access_counts()
    _accumulators.begin_task_capture()
    _sharedmem.begin_publish_capture()
    try:
        rows: Iterable[Any] = iter(partition)
        for func in funcs:
            rows = func(index, rows)
        data = list(rows)
    except BaseException:
        # The task failed after possibly publishing shuffle blocks; nothing
        # will ever consume them (a retry republishes fresh names), so
        # unlink them here while this worker still owns them.
        for name in _sharedmem.end_publish_capture():
            _sharedmem.unlink_segment(name)
        raise
    finally:
        updates = _accumulators.end_task_capture()
    published = _sharedmem.end_publish_capture()
    reads = _broadcast.access_count_delta(baseline)
    return TaskOutcome(
        data,
        time.perf_counter() - start,
        f"pid-{os.getpid()}",
        updates,
        reads,
        published_segments=published,
        max_rss_bytes=_max_rss_bytes(),
    )


def _run_driver_task(payload: bytes, index: int, partition: list[Any]) -> TaskOutcome:
    """Driver-side per-partition serial fallback of the fault-tolerant loop.

    Replays the *pickled* chain: accumulators rebuild (via their
    ``__reduce__``) as capturing task-side replicas, so the recorded updates
    are merged by the caller in partition order together with the pool
    outcomes — preserving the exact accumulation order of a clean run.
    Broadcasts resolve through the registry back to the driver originals,
    whose access counts increment directly (hence no reads are reported).
    """
    start = time.perf_counter()
    funcs = pickle.loads(payload)
    _accumulators.begin_task_capture()
    try:
        rows: Iterable[Any] = iter(partition)
        for func in funcs:
            rows = func(index, rows)
        data = list(rows)
    finally:
        updates = _accumulators.end_task_capture()
    return TaskOutcome(
        data,
        time.perf_counter() - start,
        "driver",
        updates,
        {},
        max_rss_bytes=_max_rss_bytes(),
    )


def _sweep_shared_segments() -> None:
    """Best-effort sweep of orphaned shared-memory segments after a crash.

    Covers every ``repro-*`` segment family — broadcast CSR buffers and
    shuffle blocks alike — while honouring the driver's protected set of
    in-flight shuffle blocks (see :mod:`repro.engine.sharedmem`).  The
    on-disk artifact families (spill directories, memmap index buffers)
    are swept in the same breath via :mod:`repro.engine.tmpfiles`.  Any
    failure is swallowed: leaked segments are a resource concern, never a
    correctness one.
    """
    try:
        _sharedmem.sweep_orphaned_segments()
    except Exception:  # pragma: no cover - defensive
        pass
    try:
        _tmpfiles.sweep_orphaned_artifacts()
    except Exception:  # pragma: no cover - defensive
        pass


def _release_published(outcomes: Iterable["TaskOutcome | None"]) -> None:
    """Unlink the shuffle blocks of already-collected outcomes on abort.

    When a stage raises after some tasks succeeded, their published (and by
    then protected) segments would otherwise outlive the failed shuffle —
    the driver-side release in ``execute_shuffle`` never sees the refs.
    """
    for outcome in outcomes:
        if outcome is None:
            continue
        for name in outcome.published_segments:
            _sharedmem.unlink_segment(name)


class MultiprocessingExecutor(Executor):
    """Run each task of a stage in a process pool (real multi-core execution).

    Parameters
    ----------
    max_workers:
        Pool size; defaults to ``os.cpu_count()``.
    on_unpicklable:
        What to do when a stage's function chain does not pickle (user code
        captured an unpicklable closure): ``"fallback"`` (default) runs that
        stage serially in the driver and labels it
        ``process[...]→serial-fallback`` in the stage metrics; ``"raise"``
        raises :class:`~repro.exceptions.EngineError` immediately.
    fault_policy / fault_injector:
        Recovery contract for shipped tasks and the deterministic test-only
        chaos harness: instances, spec strings, or ``None`` to resolve the
        ``fault_policy`` / ``fault_inject`` engine options
        (:mod:`repro.options`) from the environment and defaults.

    The pool is created lazily on the first shipped stage (with the ``fork``
    start method where available, so already-registered broadcasts are
    inherited copy-on-write) and must be released with :meth:`close` — or use
    the executor / its :class:`~repro.engine.context.EngineContext` as a
    context manager.  A pool broken by a worker crash or a hung task is torn
    down and lazily rebuilt by the fault-tolerant attempt loop of
    :meth:`run_stage`; rebuilt pools re-fork from the driver, so broadcast
    registry state is inherited exactly as on first creation.
    """

    name = "process"

    def __init__(
        self,
        max_workers: int | None = None,
        on_unpicklable: str = "fallback",
        fault_policy: "FaultPolicy | str | dict | None" = None,
        fault_injector: "FaultInjector | str | None" = None,
    ) -> None:
        if on_unpicklable not in ("fallback", "raise"):
            raise EngineError(
                f"on_unpicklable must be 'fallback' or 'raise', got {on_unpicklable!r}"
            )
        if max_workers is not None and max_workers <= 0:
            raise EngineError("max_workers must be positive")
        self.max_workers = max_workers or os.cpu_count() or 1
        self.on_unpicklable = on_unpicklable
        self.fault_policy = resolve_option("fault_policy", fault_policy)
        self.fault_injector = resolve_option("fault_inject", fault_injector)
        self._pool: ProcessPoolExecutor | None = None
        self._closed = False

    @property
    def label(self) -> str:
        return f"{self.name}[{self.max_workers}]"

    def spec(self) -> str:
        return f"{self.name}:{self.max_workers}"

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            # Prefer cheap copy-on-write workers, but only on Linux: macOS
            # offers "fork" too yet forking after system frameworks have been
            # touched can deadlock (why CPython made "spawn" the macOS
            # default).  Everything shipped to workers is spawn-safe anyway —
            # broadcasts ride in the chain payload — so other platforms just
            # use their default start method.
            mp_context = (
                multiprocessing.get_context("fork")
                if sys.platform == "linux"
                and "fork" in multiprocessing.get_all_start_methods()
                else None
            )
            self._pool = ProcessPoolExecutor(
                max_workers=self.max_workers, mp_context=mp_context
            )
        return self._pool

    def run_stage(
        self,
        funcs: Sequence[StageFunc],
        source_partitions: Sequence[Sequence[Any]],
        name: str = "stage",
    ) -> StageResult:
        if self._closed:
            # A silent restart here would fork a fresh pool that nothing owns
            # or shuts down; surface the lifecycle bug instead.
            raise EngineError(
                "MultiprocessingExecutor was closed; create a new executor "
                "(or a new EngineContext) to run further stages"
            )
        try:
            payload = pickle.dumps(tuple(funcs), protocol=pickle.HIGHEST_PROTOCOL)
        except ValueError:
            # Not an unpicklable closure: e.g. a destroyed Broadcast refusing
            # to ship.  That is a lifecycle bug — surface it untranslated
            # rather than misdiagnosing it or silently downgrading to serial.
            raise
        except Exception as error:
            if self.on_unpicklable == "raise":
                raise EngineError(
                    f"stage function chain is not picklable and cannot be shipped "
                    f"to worker processes: {error!r}. Move closures to module-level "
                    f"callables with bound arguments, or run this stage with the "
                    f"serial executor."
                ) from error
            serial = SerialExecutor().run_stage(funcs, source_partitions)
            return StageResult(f"{self.label}→serial-fallback", serial.tasks)
        token = next(_stage_tokens)
        policy = self.fault_policy
        num_tasks = len(source_partitions)
        outcomes: list[TaskOutcome | None] = [None] * num_tasks
        failure_counts = [0] * num_tasks
        pending = list(range(num_tasks))
        last_error: BaseException | None = None
        attempt = 0
        while pending and attempt < policy.max_attempts:
            attempt += 1
            final_attempt = attempt >= policy.max_attempts
            if attempt > 1:
                delay = policy.backoff(attempt - 1)
                if delay > 0:
                    time.sleep(delay)
            # Fault injection (tests only): attempt waves with a matching
            # clause ship a probe-prefixed copy of the chain under a fresh
            # token; clean waves reuse the original payload unchanged.
            attempt_payload, attempt_token = payload, token
            if self.fault_injector is not None:
                clauses = self.fault_injector.plan(name, attempt)
                if clauses:
                    probe = _FaultProbe(clauses, name, attempt)
                    attempt_payload = pickle.dumps(
                        (probe, *tuple(funcs)), protocol=pickle.HIGHEST_PROTOCOL
                    )
                    attempt_token = next(_stage_tokens)
            wave: list[tuple[int, Any]] = []
            pool_broken = False
            try:
                pool = self._ensure_pool()
                for index in pending:
                    wave.append(
                        (
                            index,
                            pool.submit(
                                _run_remote_task,
                                attempt_payload,
                                attempt_token,
                                index,
                                list(source_partitions[index]),
                            ),
                        )
                    )
            except (BrokenProcessPool, RuntimeError) as error:
                last_error = error
                pool_broken = True
            # Collect in submission order: partition order is what keeps the
            # driver-side merge (dict insertion, accumulator replay)
            # identical to a serial run.  Every submitted future of the wave
            # is consumed (or the pool torn down), so a failure never leaves
            # orphaned tasks running behind the driver's back.
            still_pending: list[int] = []
            for index, future in wave:
                try:
                    outcome = future.result(timeout=policy.task_timeout)
                except FutureTimeoutError as error:
                    last_error = error
                    failure_counts[index] += 1
                    still_pending.append(index)
                    if not pool_broken:
                        # Hung workers cannot be cancelled; kill them so the
                        # remaining futures of this wave fail fast instead of
                        # each waiting out the full timeout.
                        pool_broken = True
                        self._terminate_workers()
                except BrokenProcessPool as error:
                    last_error = error
                    failure_counts[index] += 1
                    still_pending.append(index)
                    pool_broken = True
                except Exception as error:
                    # The task itself raised (user code or injected fault).
                    last_error = error
                    failure_counts[index] += 1
                    if final_attempt and policy.on_exhausted == "raise":
                        # Unrecoverable: cancel the outstanding futures of
                        # this wave, unlink the shuffle blocks of the tasks
                        # that did succeed (nothing will consume them) and
                        # surface the original exception.
                        self._discard_pool()
                        _release_published(outcomes)
                        raise
                    still_pending.append(index)
                else:
                    # Shield this task's shuffle blocks from the orphan
                    # sweep *before* any pool teardown: the publishing
                    # worker may crash later in the wave, but these blocks
                    # are already owed to a pending reduce task.
                    _sharedmem.protect_segments(outcome.published_segments)
                    outcome.attempts = attempt
                    outcome.failures = failure_counts[index]
                    outcomes[index] = outcome
            submitted = {index for index, _ in wave}
            for index in pending:
                if index not in submitted:
                    failure_counts[index] += 1
                    still_pending.append(index)
            if pool_broken:
                self._discard_pool()
            pending = sorted(set(still_pending))
        label = self.label
        if pending:
            if policy.on_exhausted != "serial-fallback":
                _release_published(outcomes)
                raise EngineError(
                    f"stage {name!r}: {len(pending)} task(s) still failing "
                    f"after {policy.max_attempts} attempt(s); last error: "
                    f"{last_error!r}"
                ) from last_error
            # Exhausted: replay the failing partitions in the driver.  The
            # *pickled* chain is replayed (not the original funcs), so
            # accumulators rebuild as capturing task-side replicas and the
            # updates are merged in partition order with the pool outcomes —
            # the same replay order as a clean run.
            for index in pending:
                outcome = _run_driver_task(
                    payload, index, list(source_partitions[index])
                )
                outcome.attempts = failure_counts[index] + 1
                outcome.failures = failure_counts[index]
                outcomes[index] = outcome
            label = f"{self.label}→serial-fallback"
        tasks = [outcome for outcome in outcomes if outcome is not None]
        if len(tasks) != num_tasks:  # pragma: no cover - defensive
            _release_published(outcomes)
            raise EngineError(f"stage {name!r} lost task outcomes during recovery")
        return StageResult(label, tasks)

    def _terminate_workers(self) -> None:
        """Forcibly kill the pool's worker processes (hung-task recovery)."""
        pool = self._pool
        if pool is None:
            return
        for process in list(getattr(pool, "_processes", {}).values()):
            if process.is_alive():
                process.terminate()

    def _discard_pool(self) -> None:
        """Tear down the pool without waiting; a later wave rebuilds lazily.

        ``cancel_futures=True`` drops any still-queued tasks so a failed
        stage does not leak work, and the shared-memory sweep releases
        ``/dev/shm`` segments orphaned by crashed workers.
        """
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        _sweep_shared_segments()

    def close(self) -> None:
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
            # With the workers now reaped, catch any segment a retried or
            # crashed task stranded mid-publish (pid-alive checks during the
            # run skip segments of live-but-idle workers).
            _sweep_shared_segments()

    def __repr__(self) -> str:
        return (
            f"MultiprocessingExecutor(max_workers={self.max_workers}, "
            f"on_unpicklable={self.on_unpicklable!r}, "
            f"fault_policy={self.fault_policy.spec()!r})"
        )


def make_executor(options: EngineOptions) -> Executor:
    """Build the executor the resolved ``options`` name.

    ``options.executor`` is a canonical spec (``"serial"``, ``"process"``,
    ``"process:<N>"``) or a caller-built :class:`Executor`, returned as is.
    The fault policy and injector configure only the process pool: serial
    execution has no pool to recover.
    """
    spec = options.executor
    if isinstance(spec, Executor):
        return spec
    kind, _, workers = spec.partition(":")
    if kind == "serial":
        return SerialExecutor()
    return MultiprocessingExecutor(
        max_workers=int(workers) if workers else None,
        fault_policy=options.fault_policy,
        fault_injector=options.fault_inject,
    )
