"""The engine context: a range pool for the parallel meta-blocking job.

The paper's parallel meta-blocking (Section 2.1, "inspired by the broadcast
join") partitions the node ids, shares the compact block index and lets each
task weigh the edges of its own nodes.  That is the one job this engine runs,
so the engine is one operation: :meth:`EngineContext.map` applies a callable
to a list of items (cost-balanced ``(lo, hi)`` node ranges) and returns the
results in item order — in the driver under ``executor="serial"``; under
``"process:N"`` item ``i`` runs on process ``i mod P``, ``P = min(N,
len(items))``, where process 0 is the driver and the others are children
forked for that one map, each sending its results back on its own pipe.
Each call records one row of ``context.scheduler.stage_table()``.

Broadcast is the fork: on Linux the children are forked after the callable
(and the index it carries) exists, so they inherit it copy-on-write and it is
never pickled.  Other platforms keep their default start method and the
callable travels by value, pickled once per child.

Failure contract: a task exception re-raises in the driver with its own type,
whoever ran it (one that does not pickle: :class:`~repro.exceptions.
EngineError` naming its type); a child that dies raises ``EngineError``; a
task that exits its process ends the driver if the driver ran it, as under
``MetaBlocker.run``.  Whatever happens, every child is joined (after an
exception, killed first) before ``map`` returns, so the next map starts clean.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import sys
import time
from collections.abc import Callable, Iterable
from typing import Any

from repro.exceptions import EngineError

# Cheap copy-on-write children on Linux; macOS offers "fork" too, but forking
# after system frameworks loaded can deadlock, so other platforms keep their
# default start method.
_MP_CONTEXT = multiprocessing.get_context("fork" if sys.platform == "linux" else None)


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
        if not argument.isdecimal() or int(argument) < 1:
            raise EngineError(f"invalid worker count in executor spec {spec!r}: need at least 1")
        return f"process:{int(argument)}"
    raise EngineError(
        f"unknown executor {spec!r}; expected 'serial', 'process' or 'process:<N>'"
    )


def _run_share(func: Callable[[Any], Any], pairs: "list[tuple[int, Any]]", done: list) -> None:
    """Apply ``func`` to each ``(index, item)``, appending ``(index, result, seconds)``."""
    for index, item in pairs:
        started = time.perf_counter()
        result = func(item)
        done.append((index, result, time.perf_counter() - started))


def _serve(func: Callable[[Any], Any], pairs: "list[tuple[int, Any]]", writer: Any) -> None:
    """Child body: run this child's share, send ``(pid, done, exception)``."""
    done: list = []
    try:
        _run_share(func, pairs, done)
        error = None
    except BaseException as raised:
        done, error = [], raised
        try:
            pickle.loads(pickle.dumps(error))
        except Exception:
            error = EngineError(f"a task raised {type(raised).__name__}, which does not pickle")
    try:
        writer.send((os.getpid(), done, error))
    except Exception as unsent:
        writer.send((os.getpid(), [], EngineError(f"a task result does not pickle: {unsent!r}")))


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
        ``None``) in the driver, ``"process:N"`` on up to ``N`` processes per
        map, the driver and the children forked for that map (``"process"``:
        one per CPU).  The canonical spec is kept as :attr:`executor_spec`.
    """

    def __init__(self, default_parallelism: int = 4, executor: "str | None" = None) -> None:
        if default_parallelism <= 0:
            raise EngineError("default_parallelism must be positive")
        self.default_parallelism = default_parallelism
        self.executor_spec = canonical_executor(executor)
        kind, _, count = self.executor_spec.partition(":")
        # 0 workers = every task runs in the driver.
        self.workers = 0 if kind == "serial" else int(count or os.cpu_count() or 1)
        self.executor = f"process[{self.workers}]" if self.workers else "serial"
        self.scheduler = Scheduler()
        self._stopped = False

    # ------------------------------------------------------------------- map
    def map(self, func: Callable[[Any], Any], items: Iterable[Any], name: str = "map") -> list:
        """``[func(item) for item in items]``, one task per item.

        On a process executor the map forks ``min(workers, len(items)) - 1``
        children (none for 0 or 1 items), runs items ``0::P`` in the driver,
        receives the rest and joins every child before returning.
        """
        if self._stopped:
            raise EngineError("this EngineContext was stopped; create a new one")
        pairs = list(enumerate(items))
        processes = max(1, min(self.workers, len(pairs)))
        children, done, failures = [], [], 1
        pids = {os.getpid()} if pairs else set()
        try:
            for rank in range(1, processes):
                reader, writer = _MP_CONTEXT.Pipe(duplex=False)
                child = _MP_CONTEXT.Process(target=_serve, args=(func, pairs[rank::processes], writer))
                child.start()
                children.append((child, reader))
                writer.close()  # the next child must not inherit it: EOF means died
            _run_share(func, pairs[::processes], done)
            for _child, reader in children:
                try:
                    pid, child_done, error = reader.recv()
                except EOFError:
                    raise EngineError(f"{name!r}: a worker process died") from None
                pids.add(pid)
                done.extend(child_done)
                if error is not None:
                    raise error
            failures = 0
        except BaseException:
            for child, _reader in children:
                child.kill()
            raise
        finally:
            for child, reader in children:
                child.join()
                reader.close()
            self.scheduler.record(
                name, self.executor, len(pairs), [seconds for _i, _r, seconds in done],
                pids, failures,
            )
        done.sort(key=lambda task: task[0])
        return [result for _index, result, _seconds in done]

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
        """Refuse further maps; idempotent.  No child outlives a map."""
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
