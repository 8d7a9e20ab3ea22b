"""The engine context: the range map of the parallel meta-blocking job.

The paper's parallel meta-blocking (Section 2.1, "inspired by the broadcast
join") partitions the node ids, shares the compact block index and lets each
task weigh the edges of its own nodes.  Here the broadcast join is described
and run as a range map in the driver: :meth:`EngineContext.map` applies a
callable to a list of items (cost-balanced ``(lo, hi)`` node ranges) and
returns the results in item order; every task reads the driver's index, which
is the broadcast.  Each call records one row of
``context.scheduler.stage_table()``.

The executor spec (``"serial"``, ``"process"``, ``"process:N"``) is still
parsed and validated, so a caller that names one keeps working, but no value
forks: on two cores a forked pool was slower than the driver at every
measured size, and the ranges bound memory whichever process runs them.  A
raising task re-raises in the driver as it is.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterable
from typing import Any

from repro.exceptions import EngineError


def canonical_executor(spec: Any) -> str:
    """``"serial"`` / ``"process"`` / ``"process:<N>"`` from an executor spec
    (``None`` or blank: ``"serial"``); canonicalising twice is a no-op."""
    if spec is None or (isinstance(spec, str) and not spec.strip()):
        return "serial"
    if not isinstance(spec, str):
        raise EngineError(f"executor spec must be a string, got {spec!r}")
    name, _, argument = spec.partition(":")
    name, argument = name.strip().lower(), argument.strip()
    if name == "serial":
        if argument:
            raise EngineError(f"the serial executor takes no worker count (got {spec!r})")
        return "serial"
    if name == "process":
        if not argument:
            return "process"
        if not argument.isdecimal() or int(argument) < 1:
            raise EngineError(f"invalid worker count in executor spec {spec!r}: need at least 1")
        return f"process:{int(argument)}"
    raise EngineError(
        f"unknown executor {spec!r}; expected 'serial', 'process' or 'process:<N>'"
    )


class Scheduler:
    """The stage rows of one context: what ran, and for how long.

    ``skew`` is the slowest task over the mean task (1.0 = balanced ranges).
    Every task runs in the driver and nothing is shuffled, so ``executor``
    reads ``"serial"`` and the two shuffle byte columns are always 0; they
    stay for readers of the historical row shape.
    """

    def __init__(self) -> None:
        self.rows: list[dict[str, Any]] = []

    def record(self, name: str, tasks: int, seconds: "list[float]", failures: int) -> None:
        mean = sum(seconds) / len(seconds) if seconds else 0.0
        self.rows.append({
            "stage": len(self.rows),
            "description": name,
            "executor": "serial",
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
    """Maps a callable over items in the driver, one stage row per map.

    Parameters
    ----------
    default_parallelism:
        How many ranges a job splits its nodes into.
    executor:
        An executor spec (:func:`canonical_executor`), kept as
        :attr:`executor_spec`; every value runs the tasks in the driver.
    """

    def __init__(self, default_parallelism: int = 4, executor: "str | None" = None) -> None:
        if default_parallelism <= 0:
            raise EngineError("default_parallelism must be positive")
        self.default_parallelism = default_parallelism
        self.executor_spec = canonical_executor(executor)
        self.scheduler = Scheduler()
        self._stopped = False

    def map(self, func: Callable[[Any], Any], items: Iterable[Any], name: str = "map") -> list:
        """``[func(item) for item in items]``, one timed task per item."""
        if self._stopped:
            raise EngineError("this EngineContext was stopped; create a new one")
        items = list(items)
        results: list = []
        seconds: "list[float]" = []
        failures = 1
        try:
            for item in items:
                started = time.perf_counter()
                results.append(func(item))
                seconds.append(time.perf_counter() - started)
            failures = 0
        finally:
            self.scheduler.record(name, len(items), seconds, failures)
        return results

    def stop(self) -> None:
        """Refuse further maps; idempotent."""
        self._stopped = True

    def __enter__(self) -> "EngineContext":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def __repr__(self) -> str:
        return (
            f"EngineContext(default_parallelism={self.default_parallelism}, "
            f"executor={self.executor_spec!r})"
        )
