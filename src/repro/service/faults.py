"""Deterministic fault points of the ER service, for crash/replay testing.

Named code points — ``wal.append``, ``wal.truncate``,
``ingest.apply.<collection>``, ``ingest.ack.<collection>``,
``snapshot.save.<collection>``, ``compact.<collection>``,
``matches.<collection>`` — call :func:`service_fault` as they execute.  It is
a no-op unless ``REPRO_SERVICE_FAULT`` holds an injection spec: clauses joined
by ``;``, each ``mode[~seconds]@point[#hit]`` —

* ``mode``: ``crash`` (the process exits with :data:`CRASH_EXIT_CODE`),
  ``raise`` (:class:`FaultInjected`), ``disk`` (an :class:`OSError`, which
  the WAL maps to read-only degraded mode) or ``hang`` (sleep ``seconds``,
  default 30);
* ``point``: a substring of the point name;
* ``hit``: which call of that point fires, counted per point from 1
  (default 1; ``*`` fires on every call).

Same spec, same hits, same faults: ``scripts/service_chaos.py`` kills a
serving process mid-ingest, mid-compaction or mid-snapshot this way and
asserts that WAL replay rebuilds the exact pre-crash state.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

from repro.exceptions import ConfigurationError, SparkERError

SERVICE_INJECT_ENV_VAR = "REPRO_SERVICE_FAULT"

_MODES = ("crash", "raise", "hang", "disk")
_DEFAULT_HANG_SECONDS = 30.0

# os._exit code of an injected crash; outside the range of codes the
# interpreter itself produces, so a crash in CI logs is unambiguous.
CRASH_EXIT_CODE = 70


class FaultInjected(SparkERError):
    """Raised by an injected ``raise``-mode fault (test harness only)."""


@dataclass(frozen=True)
class FaultClause:
    """Fire ``mode`` at the ``hit``-th call of points containing ``point``
    (``hit=None``: every call)."""

    mode: str
    point: str
    hit: "int | None" = 1
    seconds: float = _DEFAULT_HANG_SECONDS


def parse_faults(spec: str) -> "tuple[FaultClause, ...]":
    """The clauses of an injection spec (see the module docstring)."""
    clauses = tuple(_parse_clause(raw.strip(), spec) for raw in spec.split(";") if raw.strip())
    if not clauses:
        raise ConfigurationError(f"fault injection spec {spec!r} has no clauses")
    return clauses


def _parse_clause(raw: str, spec: str) -> FaultClause:
    def invalid(problem: str) -> ConfigurationError:
        return ConfigurationError(f"{problem} in fault clause {raw!r} (in spec {spec!r})")

    head, separator, location = raw.partition("@")
    mode, _, seconds_text = head.strip().lower().partition("~")
    point, _, hit_text = location.partition("#")
    if not separator or not point.strip():
        raise invalid("no '@point'")
    if mode.strip() not in _MODES:
        raise invalid(f"unknown mode {mode!r} (expected one of {_MODES})")
    try:
        seconds = float(seconds_text) if seconds_text.strip() else _DEFAULT_HANG_SECONDS
        hit = None if hit_text.strip() == "*" else int(hit_text or 1)
    except ValueError:
        raise invalid("a non-numeric duration or hit") from None
    if seconds < 0 or (hit is not None and hit < 1):
        raise invalid("a negative duration or a hit below 1")
    return FaultClause(mode.strip(), point.strip(), hit, seconds)


class ServicePointInjector:
    """Fire the clauses of one spec at named points, counting hits per point."""

    def __init__(self, clauses: "tuple[FaultClause, ...]") -> None:
        self.clauses = clauses
        self._hits: dict[str, int] = {}

    def fire(self, point: str) -> None:
        hit = self._hits[point] = self._hits.get(point, 0) + 1
        for clause in self.clauses:
            if clause.point not in point or clause.hit not in (None, hit):
                continue
            if clause.mode == "crash":
                os._exit(CRASH_EXIT_CODE)
            if clause.mode == "raise":
                raise FaultInjected(f"injected fault at {point!r} hit {hit}")
            if clause.mode == "disk":
                raise OSError(f"injected disk fault at {point!r} hit {hit}")
            time.sleep(clause.seconds)


_UNSET = object()
_injector: "ServicePointInjector | None | object" = _UNSET


def service_fault(point: str) -> None:
    """Fire injected faults at ``point``.

    A no-op unless ``REPRO_SERVICE_FAULT`` holds an injection spec — the
    production fast path is one cached ``is None`` check.  The spec is read
    once per process; tests switching specs call :func:`reset_service_faults`.
    """
    global _injector
    if _injector is _UNSET:
        spec = os.environ.get(SERVICE_INJECT_ENV_VAR, "").strip()
        _injector = ServicePointInjector(parse_faults(spec)) if spec else None
    if _injector is not None:
        _injector.fire(point)  # type: ignore[union-attr]


def reset_service_faults() -> None:
    """Drop the cached injector (re-reads the environment on the next fire)."""
    global _injector
    _injector = _UNSET
