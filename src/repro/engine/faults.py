"""Fault-tolerance policy and deterministic fault injection for the engine.

The executor layer decides *where* tasks run; this module decides *what
happens when they fail*.  Two pieces:

* :class:`FaultPolicy` — the recovery contract of a
  :class:`~repro.engine.executors.MultiprocessingExecutor`: how many times a
  task may be attempted, how long one attempt may run before the pool is
  declared hung (``task_timeout``), how long to back off between attempt
  waves (bounded exponential backoff with deterministic jitter derived from
  ``jitter_seed``), and what to do when the attempts are exhausted
  (``on_exhausted="raise"`` surfaces the last error;
  ``"serial-fallback"`` replays the still-failing partitions in the driver).
* :class:`FaultInjector` — a deterministic, test-only chaos harness.  An
  injection spec names exact fault coordinates (stage substring, task index,
  attempt number) and a fault mode: ``crash`` (worker dies via
  ``os._exit``), ``raise`` (task raises :class:`FaultInjected`), ``hang``
  (task sleeps, to exercise the timeout path) or ``disk`` (an
  :class:`OSError`, modelling a failed device — the service layer's WAL
  maps it to read-only degraded mode).  The executor prepends a picklable
  :class:`_FaultProbe` to the shipped chain only for attempt waves with a
  matching clause, so clean attempts run the exact original payload.

The same clause grammar drives the **service fault points**
(:func:`service_fault`, spec from ``REPRO_SERVICE_FAULT``): named code
points in the ER service — ``wal.append``, ``ingest.apply.<collection>``,
``snapshot.save.<collection>``, ``compact.<collection>``, ... — call
``service_fault(point)`` as they execute; a clause's stage substring is
matched against the point name and its attempt number against the
per-point hit counter (the task coordinate is unused).  ``crash`` at a
service point kills the whole process with :data:`CRASH_EXIT_CODE` — the
chaos harness (``scripts/service_chaos.py``) uses this to kill a serving
process mid-ingest / mid-compaction / mid-snapshot deterministically and
assert WAL replay reconstructs the exact pre-crash state.

Retrying is bit-for-bit safe for the same reason serial fallback is: a task
is a pure replay of a pickled function chain over an immutable input
partition, and only the *final successful* outcome of each partition is
merged into driver state (accumulators, broadcast read counts), so a killed
or repeated attempt leaves no trace in the result.

Shared-memory segments and recovery
-----------------------------------
A recovered crash must not leak OS resources, and a sweep must not destroy
state a surviving task still needs.  When the executor tears down a broken
pool it runs :func:`repro.engine.sharedmem.sweep_orphaned_segments` over
every engine-owned ``/dev/shm`` segment (``repro-csr-*`` CSR broadcast
buffers *and* ``repro-shuf-*`` shuffle blocks — the pid embedded in the name
identifies the creating process):

* segments whose creator is **dead** are unlinked — a crashed worker's
  half-published shuffle blocks, a killed driver's stale export;
* segments of **live** processes, the driver's registered own exports, and
  names in the **protected set** are skipped.  The protected set holds
  shuffle blocks published by tasks that already *succeeded*: the executor
  protects them as each task outcome is collected, so a later crash in the
  same wave can rebuild the pool without sweeping blocks a pending reduce
  task still needs, even though their creating worker is gone.  The shuffle
  releases (unprotects + unlinks) every block after its reduce phase.

A failed task *retry* republishes its buckets under fresh segment names
(per-process sequence numbers are never reused); blocks stranded by the
failed attempt are unlinked by the worker's own exception handler when the
worker survives, or by the sweep once it is dead — and the executor sweeps
once more on :meth:`~repro.engine.executors.MultiprocessingExecutor.close`,
when all workers have been reaped.

Configuration: the ``fault_policy`` and ``fault_inject`` engine options
(:mod:`repro.options` lists every way to set them).  Policy spec string:
``"retries=2,timeout=30,backoff=0.5,backoff_max=10,seed=7,on_exhausted=serial-fallback"``.
Injection clause grammar:
``mode[~seconds]@stage[:task][#attempt]`` joined by ``;`` — e.g.
``"crash@metablocking.weights:0#1;hang~5@shuffle.reduce:*#*"``.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any, Mapping

from repro.exceptions import EngineError
from repro.utils.hashing import stable_hash

SERVICE_INJECT_ENV_VAR = "REPRO_SERVICE_FAULT"

_ON_EXHAUSTED = ("raise", "serial-fallback")
_MODES = ("crash", "raise", "hang", "disk")
_DEFAULT_HANG_SECONDS = 30.0

# os._exit code used by injected worker crashes; chosen outside the range of
# codes the interpreter itself produces so a crash in CI logs is unambiguous.
CRASH_EXIT_CODE = 70


class FaultInjected(EngineError):
    """Raised by an injected ``raise``-mode fault (test harness only)."""


# --------------------------------------------------------------------- policy
@dataclass(frozen=True)
class FaultPolicy:
    """Recovery contract for tasks shipped to the multiprocessing executor.

    ``max_attempts`` counts pool attempts per task (1 = no retries, the
    default — identical to the historical fail-fast behaviour).
    ``task_timeout`` bounds one attempt's wall-clock; on expiry the pool is
    torn down (hung workers are terminated) and the wave retried.
    ``backoff(n)`` returns the pause before retry wave ``n+1``: exponential
    in the number of failed waves, capped at ``backoff_max`` and scaled by a
    deterministic jitter factor in ``[0.5, 1.0]`` derived from
    ``jitter_seed`` — same seed, same delays, run after run.
    """

    max_attempts: int = 1
    backoff_base: float = 0.1
    backoff_max: float = 5.0
    jitter_seed: int = 0
    task_timeout: float | None = None
    on_exhausted: str = "raise"

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise EngineError(
                f"fault policy needs max_attempts >= 1, got {self.max_attempts!r}"
            )
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise EngineError("fault policy backoff delays must be non-negative")
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise EngineError(
                f"fault policy task_timeout must be positive, got {self.task_timeout!r}"
            )
        if self.on_exhausted not in _ON_EXHAUSTED:
            raise EngineError(
                f"fault policy on_exhausted must be one of {_ON_EXHAUSTED}, "
                f"got {self.on_exhausted!r}"
            )

    @property
    def retries(self) -> int:
        """Extra attempts after the first (``max_attempts - 1``)."""
        return self.max_attempts - 1

    def backoff(self, failed_waves: int) -> float:
        """Deterministic delay (seconds) before the next attempt wave."""
        if failed_waves <= 0 or self.backoff_base <= 0:
            return 0.0
        delay = min(self.backoff_max, self.backoff_base * 2 ** (failed_waves - 1))
        fraction = stable_hash((self.jitter_seed, failed_waves)) % 10_000 / 10_000
        return delay * (0.5 + 0.5 * fraction)

    def spec(self) -> str:
        """Round-trippable spec string (inverse of :meth:`parse`)."""
        parts = [f"retries={self.retries}"]
        if self.task_timeout is not None:
            parts.append(f"timeout={self.task_timeout:g}")
        parts.append(f"backoff={self.backoff_base:g}")
        parts.append(f"backoff_max={self.backoff_max:g}")
        if self.jitter_seed:
            parts.append(f"seed={self.jitter_seed}")
        if self.on_exhausted != "raise":
            parts.append(f"on_exhausted={self.on_exhausted}")
        return ",".join(parts)

    @classmethod
    def parse(cls, spec: "str | Mapping[str, Any]") -> "FaultPolicy":
        """Build a policy from a ``key=value`` spec string or a mapping.

        Keys: ``retries`` (extra attempts; ``max_attempts`` is also
        accepted), ``timeout`` (seconds, ``none`` disables), ``backoff``,
        ``backoff_max``, ``seed`` and ``on_exhausted``.
        """
        if isinstance(spec, Mapping):
            items = dict(spec)
        else:
            items = {}
            for clause in spec.split(","):
                clause = clause.strip()
                if not clause:
                    continue
                key, separator, value = clause.partition("=")
                if not separator:
                    raise EngineError(
                        f"fault policy clause {clause!r} is not 'key=value' "
                        f"(in spec {spec!r})"
                    )
                items[key.strip().lower()] = value.strip()
        kwargs: dict[str, Any] = {}
        try:
            for key, value in items.items():
                key = str(key).strip().lower().replace("-", "_")
                if key == "retries":
                    kwargs["max_attempts"] = int(value) + 1
                elif key == "max_attempts":
                    kwargs["max_attempts"] = int(value)
                elif key in ("timeout", "task_timeout"):
                    if value is None or str(value).strip().lower() in ("none", ""):
                        kwargs["task_timeout"] = None
                    else:
                        kwargs["task_timeout"] = float(value)
                elif key in ("backoff", "backoff_base"):
                    kwargs["backoff_base"] = float(value)
                elif key == "backoff_max":
                    kwargs["backoff_max"] = float(value)
                elif key in ("seed", "jitter_seed"):
                    kwargs["jitter_seed"] = int(value)
                elif key == "on_exhausted":
                    kwargs["on_exhausted"] = str(value).strip().lower()
                else:
                    raise EngineError(
                        f"unknown fault policy key {key!r} in spec {spec!r}"
                    )
        except (TypeError, ValueError) as error:
            raise EngineError(
                f"invalid fault policy value in spec {spec!r}: {error}"
            ) from error
        return cls(**kwargs)


# ------------------------------------------------------------------- injector
@dataclass(frozen=True)
class FaultClause:
    """One injection coordinate: fire ``mode`` at (stage, task, attempt).

    ``stage`` is substring-matched against the executed stage's name;
    ``task`` / ``attempt`` of ``None`` mean "every task" / "every attempt"
    (the ``*`` wildcard in the spec grammar).
    """

    mode: str
    stage: str
    task: int | None = 0
    attempt: int | None = 1
    seconds: float = _DEFAULT_HANG_SECONDS

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise EngineError(
                f"fault mode must be one of {_MODES}, got {self.mode!r}"
            )
        if not self.stage:
            raise EngineError("fault clause needs a stage substring after '@'")
        if self.seconds < 0:
            raise EngineError("fault hang duration must be non-negative")

    def matches(self, stage_name: str, attempt: int) -> bool:
        if self.stage not in stage_name:
            return False
        return self.attempt is None or self.attempt == attempt


class FaultInjector:
    """Deterministic fault injection at (stage, task, attempt) coordinates.

    Built from clauses (see :class:`FaultClause`) or parsed from a spec
    string: clauses joined by ``;``, each
    ``mode[~seconds]@stage[:task][#attempt]`` with ``*`` wildcards for task
    and attempt.  The same spec always fires the same faults in the same
    places — chaos tests replay exactly.
    """

    def __init__(self, clauses: "tuple[FaultClause, ...] | list[FaultClause]") -> None:
        self.clauses = tuple(clauses)
        if not self.clauses:
            raise EngineError("fault injector needs at least one clause")

    def plan(self, stage_name: str, attempt: int) -> "tuple[FaultClause, ...]":
        """Clauses that fire in stage ``stage_name`` during attempt ``attempt``."""
        return tuple(
            clause for clause in self.clauses if clause.matches(stage_name, attempt)
        )

    @classmethod
    def parse(cls, spec: str) -> "FaultInjector":
        clauses = []
        for raw in spec.split(";"):
            raw = raw.strip()
            if not raw:
                continue
            clauses.append(_parse_clause(raw, spec))
        if not clauses:
            raise EngineError(f"fault injection spec {spec!r} has no clauses")
        return cls(clauses)

    def __repr__(self) -> str:
        return f"FaultInjector(clauses={self.clauses!r})"


def _parse_clause(raw: str, spec: str) -> FaultClause:
    head, separator, location = raw.partition("@")
    if not separator:
        raise EngineError(
            f"fault clause {raw!r} has no '@stage' part (in spec {spec!r})"
        )
    mode, _, seconds_text = head.strip().partition("~")
    mode = mode.strip().lower()
    seconds = _DEFAULT_HANG_SECONDS
    if seconds_text.strip():
        try:
            seconds = float(seconds_text)
        except ValueError as error:
            raise EngineError(
                f"invalid duration in fault clause {raw!r} (in spec {spec!r})"
            ) from error
    attempt: int | None = 1
    if "#" in location:
        location, _, attempt_text = location.rpartition("#")
        attempt = _parse_coordinate(attempt_text, "attempt", raw, spec, minimum=1)
    task: int | None = 0
    if ":" in location:
        location, _, task_text = location.rpartition(":")
        task = _parse_coordinate(task_text, "task", raw, spec, minimum=0)
    return FaultClause(
        mode=mode, stage=location.strip(), task=task, attempt=attempt, seconds=seconds
    )


def _parse_coordinate(
    text: str, what: str, raw: str, spec: str, *, minimum: int
) -> int | None:
    text = text.strip()
    if text == "*":
        return None
    try:
        value = int(text)
    except ValueError as error:
        raise EngineError(
            f"invalid {what} {text!r} in fault clause {raw!r} (in spec {spec!r})"
        ) from error
    if value < minimum:
        raise EngineError(
            f"{what} must be >= {minimum} in fault clause {raw!r} (in spec {spec!r})"
        )
    return value


class _FaultProbe:
    """Picklable chain prefix that fires matched faults inside a worker task.

    The executor prepends one probe to the shipped chain for an attempt wave
    with matching clauses; at call time the probe checks its task coordinate
    and either crashes the worker, raises :class:`FaultInjected` or sleeps —
    then passes the rows through unchanged, so a non-matching task in the
    same wave computes the exact same result as an unprobed run.
    """

    __slots__ = ("clauses", "stage", "attempt")

    def __init__(
        self, clauses: "tuple[FaultClause, ...]", stage: str, attempt: int
    ) -> None:
        self.clauses = clauses
        self.stage = stage
        self.attempt = attempt

    def __call__(self, index: int, rows: Any) -> Any:
        for clause in self.clauses:
            if clause.task is not None and clause.task != index:
                continue
            if clause.mode == "crash":
                os._exit(CRASH_EXIT_CODE)
            if clause.mode == "raise":
                raise FaultInjected(
                    f"injected fault: stage {self.stage!r} task {index} "
                    f"attempt {self.attempt}"
                )
            if clause.mode == "disk":
                raise OSError(
                    f"injected disk fault: stage {self.stage!r} task {index} "
                    f"attempt {self.attempt}"
                )
            time.sleep(clause.seconds)
        return rows

    def __repr__(self) -> str:
        return (
            f"_FaultProbe(stage={self.stage!r}, attempt={self.attempt}, "
            f"clauses={self.clauses!r})"
        )


# ------------------------------------------------------- service fault points
class ServicePointInjector:
    """Fire injected faults at named service code points, hit-counted.

    Reuses the :class:`FaultClause` grammar: the clause's stage substring is
    matched against the point name and its attempt number against this
    injector's per-point hit counter (first call to a point is hit 1); the
    task coordinate is ignored.  Same spec, same hits, same faults — service
    chaos runs replay exactly like engine ones.
    """

    def __init__(self, injector: FaultInjector) -> None:
        self.injector = injector
        self._hits: dict[str, int] = {}

    def fire(self, point: str) -> None:
        hit = self._hits.get(point, 0) + 1
        self._hits[point] = hit
        for clause in self.injector.clauses:
            if not clause.matches(point, hit):
                continue
            if clause.mode == "crash":
                os._exit(CRASH_EXIT_CODE)
            if clause.mode == "raise":
                raise FaultInjected(f"injected fault at {point!r} hit {hit}")
            if clause.mode == "disk":
                raise OSError(f"injected disk fault at {point!r} hit {hit}")
            time.sleep(clause.seconds)


_SERVICE_UNSET = object()
_service_injector: "ServicePointInjector | None | object" = _SERVICE_UNSET


def service_fault(point: str) -> None:
    """Fire injected service-layer faults at ``point``.

    A no-op unless ``REPRO_SERVICE_FAULT`` holds an injection spec — the
    production fast path is one cached ``is None`` check.  The spec is read
    once per process; tests switching specs call :func:`reset_service_faults`.
    """
    global _service_injector
    if _service_injector is _SERVICE_UNSET:
        spec = os.environ.get(SERVICE_INJECT_ENV_VAR, "").strip() or None
        _service_injector = (
            ServicePointInjector(FaultInjector.parse(spec)) if spec else None
        )
    if _service_injector is not None:
        _service_injector.fire(point)


def reset_service_faults() -> None:
    """Drop the cached service injector (re-reads the env on next fire)."""
    global _service_injector
    _service_injector = _SERVICE_UNSET
