"""The engine context: a range pool for the parallel meta-blocking job.

The paper's parallel meta-blocking (Section 2.1, "inspired by the broadcast
join") partitions the node ids, shares the compact block index and lets each
task weigh the edges of its own nodes.  That is the one job this engine runs,
so the engine is one operation: :meth:`EngineContext.map` applies a callable
to a list of items (cost-balanced ``(lo, hi)`` node ranges) and returns the
results in item order — in the driver under ``executor="serial"``, on a
process pool opened for that one map under ``"process:N"``.  Each call
records one row of ``context.scheduler.stage_table()``.

Broadcast is the fork: on Linux the pool's workers are forked after the
callable (and the index it carries) exists, so they inherit it copy-on-write
and it is never pickled.  Other platforms keep their default start method and
the callable travels by value, pickled once per worker as the pool
initializer's argument.

Failure contract: a task exception re-raises in the driver with its own type;
a crashed worker raises :class:`~repro.exceptions.EngineError` as soon as the
pool notices.  Either way the map's pool is shut down before ``map`` returns,
so no worker outlives the call and the next map starts clean.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import time
from collections.abc import Callable, Iterable
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any

from repro.exceptions import EngineError

# Cheap copy-on-write workers on Linux; macOS offers "fork" too, but forking
# after system frameworks loaded can deadlock, so other platforms keep their
# default start method.
_MP_CONTEXT = multiprocessing.get_context("fork") if sys.platform == "linux" else None

# The callable of the map a worker serves, set once per worker by _install.
_task: "Callable[[Any], Any] | None" = None


def canonical_executor(spec: Any) -> str:
    """``"serial"`` / ``"process"`` / ``"process:<N>"`` from an executor spec
    (``None`` or blank: ``"serial"``); canonicalising twice is a no-op."""
    if spec is None or (isinstance(spec, str) and not spec.strip()):
        return "serial"
    if not isinstance(spec, str):
        raise EngineError(f"executor spec must be a string, got {spec!r}")
    name, _, argument = spec.partition(":")
    name, argument = name.strip().lower(), argument.strip()
    if name in ("serial", "sync", "driver"):
        if argument:
            raise EngineError(
                f"the serial executor takes no worker count (got {spec!r}); "
                f"use 'process:<N>' for a worker pool"
            )
        return "serial"
    if name in ("process", "processes", "multiprocessing", "mp"):
        if not argument:
            return "process"
        try:
            return f"process:{int(argument)}"
        except ValueError as error:
            raise EngineError(f"invalid worker count in executor spec {spec!r}") from error
    raise EngineError(
        f"unknown executor {spec!r}; expected 'serial', 'process' or 'process:<N>'"
    )


def _install(func: Callable[[Any], Any]) -> None:
    """Pool initializer: hold the map's callable for every task of this worker."""
    global _task
    _task = func


def _run_task(item: Any) -> "tuple[Any, float, int]":
    """Worker body: apply the map's callable to one item, timed."""
    started = time.perf_counter()
    result = _task(item)
    return result, time.perf_counter() - started, os.getpid()


class Scheduler:
    """The stage rows of one context: what ran, where, and for how long.

    ``skew`` is the slowest task over the mean task (1.0 = balanced ranges).
    Nothing is shuffled, so the two shuffle byte columns are always 0; they
    stay for readers of the historical row shape.
    """

    def __init__(self) -> None:
        self.rows: list[dict[str, Any]] = []

    def record(
        self, name: str, executor: str, tasks: int, seconds: "list[float]",
        workers: "set[int]", failures: int = 0,
    ) -> None:
        mean = sum(seconds) / len(seconds) if seconds else 0.0
        self.rows.append({
            "stage": len(self.rows),
            "description": name,
            "executor": executor,
            "workers": len(workers),
            "tasks": tasks,
            "failures": failures,
            "elapsed_s": round(sum(seconds), 6),
            "shuffle_write_bytes": 0,
            "shuffle_relay_bytes": 0,
            "skew": round(max(seconds) / mean, 3) if mean else 0.0,
        })

    def stage_table(self) -> "list[dict[str, Any]]":
        """One row per :meth:`EngineContext.map` call, in call order."""
        return [dict(row) for row in self.rows]


class EngineContext:
    """Maps a callable over items, in the driver or on worker processes.

    Parameters
    ----------
    default_parallelism:
        How many ranges a job splits its nodes into.
    executor:
        Where the tasks run (:func:`canonical_executor`): ``"serial"`` (or
        ``None``) in the driver, ``"process:N"`` on up to ``N`` forked
        workers per map (``"process"``: one per CPU).  The canonical spec is
        kept as :attr:`executor_spec`.
    """

    def __init__(self, default_parallelism: int = 4, executor: "str | None" = None) -> None:
        if default_parallelism <= 0:
            raise EngineError("default_parallelism must be positive")
        self.default_parallelism = default_parallelism
        self.executor_spec = canonical_executor(executor)
        kind, _, count = self.executor_spec.partition(":")
        # 0 workers = tasks run in the driver.
        self.workers = 0 if kind == "serial" else int(count or os.cpu_count() or 1)
        self.executor = f"process[{self.workers}]" if self.workers else "serial"
        self.scheduler = Scheduler()
        self._stopped = False

    # ------------------------------------------------------------------- map
    def map(self, func: Callable[[Any], Any], items: Iterable[Any], name: str = "map") -> list:
        """``[func(item) for item in items]``, one task per item.

        On a process executor the map opens a pool of ``min(workers,
        len(items))`` workers (none for no items) and shuts it down before
        returning, whatever happens.
        """
        if self._stopped:
            raise EngineError("this EngineContext was stopped; create a new one")
        items = list(items)
        if not self.workers:
            seconds: list[float] = []
            try:
                results = []
                for item in items:
                    started = time.perf_counter()
                    results.append(func(item))
                    seconds.append(time.perf_counter() - started)
            except BaseException:
                self.scheduler.record(name, self.executor, len(items), seconds, {os.getpid()}, 1)
                raise
            self.scheduler.record(name, self.executor, len(items), seconds, {os.getpid()})
            return results
        outcomes: list = []
        failures = 1
        try:
            if items:
                pool = ProcessPoolExecutor(
                    min(self.workers, len(items)), mp_context=_MP_CONTEXT,
                    initializer=_install, initargs=(func,),
                )
                try:
                    for future in [pool.submit(_run_task, item) for item in items]:
                        outcomes.append(future.result())
                finally:
                    pool.shutdown(wait=True, cancel_futures=True)
            failures = 0
        except BrokenProcessPool as error:
            raise EngineError(f"{name!r}: a worker process died") from error
        finally:
            self.scheduler.record(
                name, self.executor, len(items),
                [seconds for _result, seconds, _pid in outcomes],
                {pid for _result, _seconds, pid in outcomes}, failures,
            )
        return [result for result, _seconds, _pid in outcomes]

    # --------------------------------------------------------------- metrics
    def metrics_summary(self) -> "dict[str, Any]":
        """Totals over every map run on this context so far."""
        rows = self.scheduler.rows
        return {
            "default_parallelism": self.default_parallelism,
            "executor": self.executor,
            "stages": len(rows),
            "tasks": sum(row["tasks"] for row in rows),
            "task_failures": sum(row["failures"] for row in rows),
        }

    # ------------------------------------------------------------- lifecycle
    def stop(self) -> None:
        """Refuse further maps; idempotent.  No pool outlives a map."""
        self._stopped = True

    def __enter__(self) -> "EngineContext":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def __repr__(self) -> str:
        return (
            f"EngineContext(default_parallelism={self.default_parallelism}, "
            f"executor={self.executor!r})"
        )
