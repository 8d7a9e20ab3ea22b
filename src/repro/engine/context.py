"""The engine context: a range pool for the parallel meta-blocking job.

The paper's parallel meta-blocking (Section 2.1, "inspired by the broadcast
join") partitions the node ids, shares the compact block index and lets each
task weigh the edges of its own nodes.  That is the one job this engine runs,
so the engine is one operation: :meth:`EngineContext.map` applies a picklable
callable to a list of items (cost-balanced ``(lo, hi)`` node ranges) and
returns the results in item order — in the driver under ``executor="serial"``,
on a lazily forked process pool under ``"process:N"``.  Each call records one
row of ``context.scheduler.stage_table()``.

Failure contract: a task exception re-raises in the driver with its own type;
a crashed worker raises :class:`~repro.exceptions.EngineError` as soon as the
pool notices, the pool is discarded (the next map forks a fresh one) and the
dead-pid sweep of :mod:`repro.engine.sharedmem` reclaims whatever segment the
worker left behind.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import pickle
import sys
import time
from collections.abc import Callable, Iterable
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any

from repro.engine import sharedmem
from repro.exceptions import EngineError
from repro.options import resolve_executor

_payload_ids = itertools.count()

# Worker-side single-slot cache: every task of one map shares one pickled
# callable, so a worker unpickles it (and maps the shared index riding in it)
# once per map rather than once per task.
_cached: "tuple[int | None, Any]" = (None, None)


def _run_task(payload: bytes, token: int, item: Any) -> "tuple[Any, float, int]":
    """Worker body: apply the map's callable to one item, timed."""
    global _cached
    if _cached[0] != token:
        _cached = (token, pickle.loads(payload))
    started = time.perf_counter()
    result = _cached[1](item)
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
    """A pool of worker processes (or none) that maps a callable over items.

    Parameters
    ----------
    default_parallelism:
        How many ranges a job splits its nodes into.
    executor:
        The ``executor`` engine option (:mod:`repro.options`): ``"serial"``
        runs tasks in the driver, ``"process:N"`` on ``N`` forked workers
        (``"process"``: one per CPU); ``None`` resolves the environment and
        the default.  The canonical spec is kept as :attr:`executor_spec`.
    """

    def __init__(self, default_parallelism: int = 4, executor: "str | None" = None) -> None:
        if default_parallelism <= 0:
            raise EngineError("default_parallelism must be positive")
        self.default_parallelism = default_parallelism
        self.executor_spec = resolve_executor(executor)
        kind, _, count = self.executor_spec.partition(":")
        # 0 workers = tasks run in the driver.
        self.workers = 0 if kind == "serial" else int(count or os.cpu_count() or 1)
        self.executor = f"process[{self.workers}]" if self.workers else "serial"
        self.scheduler = Scheduler()
        self._pool: "ProcessPoolExecutor | None" = None
        self._stopped = False

    # ------------------------------------------------------------------- map
    def map(self, func: Callable[[Any], Any], items: Iterable[Any], name: str = "map") -> list:
        """``[func(item) for item in items]``, one task per item, on the pool."""
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
        payload = pickle.dumps(func, protocol=pickle.HIGHEST_PROTOCOL)
        token = next(_payload_ids)
        pool = self._ensure_pool()
        futures = [pool.submit(_run_task, payload, token, item) for item in items]
        outcomes = []
        try:
            for future in futures:
                outcomes.append(future.result())
        except BrokenProcessPool as error:
            self._record_outcomes(name, len(items), outcomes, failures=1)
            self._discard_pool()
            raise EngineError(
                f"{name!r}: a worker process died; the pool was discarded"
            ) from error
        except BaseException:
            for future in futures:
                future.cancel()
            self._record_outcomes(name, len(items), outcomes, failures=1)
            raise
        self._record_outcomes(name, len(items), outcomes)
        return [result for result, _seconds, _pid in outcomes]

    def _record_outcomes(self, name: str, tasks: int, outcomes: list, failures: int = 0) -> None:
        self.scheduler.record(
            name, self.executor, tasks,
            [seconds for _result, seconds, _pid in outcomes],
            {pid for _result, _seconds, pid in outcomes}, failures,
        )

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            # Cheap copy-on-write workers on Linux; macOS offers "fork" too,
            # but forking after system frameworks loaded can deadlock, so
            # other platforms keep their default start method.
            mp_context = (
                multiprocessing.get_context("fork") if sys.platform == "linux" else None
            )
            self._pool = ProcessPoolExecutor(max_workers=self.workers, mp_context=mp_context)
        return self._pool

    def _discard_pool(self) -> None:
        """Reap a broken pool, then sweep the segments its dead workers left.

        The pool already terminated every worker when it broke, so waiting
        is bounded; it also means no dead worker is still an unreaped zombie
        whose pid would look alive to the sweep.  Workers create no files,
        so there is no file sweep.
        """
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
        sharedmem.sweep_orphaned_segments()

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
        """Shut the pool down; idempotent.  ``map`` raises afterwards."""
        self._stopped = True
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "EngineContext":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def __repr__(self) -> str:
        return (
            f"EngineContext(default_parallelism={self.default_parallelism}, "
            f"executor={self.executor!r})"
        )
