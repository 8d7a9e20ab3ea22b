"""The engine option: the one door ``executor`` goes through to reach the engine.

One value tunes *how* a run executes without changing *what* it computes:
where the meta-blocking range tasks run (``executor``).  It is reachable four
ways — a keyword argument, a pipeline-spec ``engine.executor`` key, the
``run`` flags ``--executor`` / ``--workers`` and the ``REPRO_ENGINE_EXECUTOR``
environment variable — and :func:`resolve_executor` is the one resolution
(explicit > spec > environment > ``serial``, then validated).  Entry points
resolve once and hand the canonical string down; ``os.environ`` is read for
it here and nowhere else.  Keys of removed options that stored artifacts may
still carry are handled by :func:`drop_retired_keys`.
"""

from __future__ import annotations

import argparse
import os
from collections.abc import Mapping
from typing import Any

from repro.exceptions import (
    ConfigurationError,
    EngineError,
    PipelineValidationError,
    SparkERError,
)

EXECUTOR_ENV_VAR = "REPRO_ENGINE_EXECUTOR"

# What an ``engine`` section may hold: the pipeline's own two keys plus the
# option.
ENGINE_SECTION_KEYS = frozenset({"enabled", "parallelism", "executor"})


def _canonical_executor(spec: Any) -> str:
    """``"serial"`` / ``"process"`` / ``"process:<N>"``."""
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


def _unset(value: Any) -> bool:
    return value is None or (isinstance(value, str) and not value.strip())


def resolve_executor(
    explicit: Any = None, spec: "Mapping[str, Any] | None" = None
) -> str:
    """Resolve the executor: explicit > spec > environment > ``serial``.

    ``spec`` is a pipeline spec's ``engine`` section.  The result is the
    canonical string (``"serial"``, ``"process"``, ``"process:2"``), so
    resolving it again is a no-op.  A bad value raises
    :class:`~repro.exceptions.EngineError` naming the source that supplied it.
    """
    value, source = explicit, "executor"
    if _unset(value) and spec is not None:
        value, source = spec.get("executor"), "engine.executor"
    if _unset(value):
        value, source = os.environ.get(EXECUTOR_ENV_VAR), EXECUTOR_ENV_VAR
    if _unset(value):
        value, source = "serial", "executor"
    try:
        return _canonical_executor(value)
    except EngineError as error:
        raise EngineError(f"{source}: {error}") from None


# ------------------------------------------------------------ CLI composition
def executor_from_args(args: argparse.Namespace) -> "str | None":
    """Build the executor spec from ``--executor`` / ``--workers``.

    ``--workers`` without ``--executor`` implies the process executor — a
    worker count for the serial executor would otherwise be silently ignored.
    """
    executor = args.executor or ("process" if args.workers is not None else None)
    if executor is None or args.workers is None:
        return executor
    return f"{executor}:{args.workers}"


# ------------------------------------------------------------- retired keys
#: Options that no longer exist: the values a stored artifact (pipeline
#: checkpoint, ``--output-config`` file, service snapshot) may carry for them
#: and still describe what every run now does (``None``: any value does), and
#: what was removed.
_RETIRED = {
    "kernel_backend": (
        (None, "auto", "numpy"),
        "numpy is required and the interpreted meta-blocking kernel no longer exists",
    ),
    # It only chose how shuffle payloads travelled; nothing is shuffled now.
    "block_store": (None, "the engine no longer shuffles, so there are no block stores"),
    "fault_policy": (
        (None, "retries=0,backoff=0.1,backoff_max=5"),
        "task retries and timeouts no longer exist; a crashed worker fails the run",
    ),
    "fault_inject": ((None,), "the engine fault injector no longer exists"),
    # A memmap-backed index computed the same edges as the in-memory one.
    "buffer_backend": (None, "the CSR index always lives in process memory"),
    # Its last consumer was the memmap buffer file.
    "tmp_dir": (None, "the only temp file left, the WAL rewrite, lives in its WAL directory"),
}


def drop_retired_keys(
    mapping: "Mapping[str, Any]", error: "type[SparkERError]" = ConfigurationError
) -> "dict[str, Any]":
    """``mapping`` without the keys of retired options.

    A value the retired option would have resolved to today is dropped
    silently; any other (``kernel_backend: python`` asked for the removed
    interpreted kernel, ``fault_policy: retries=2`` for retries) raises
    ``error`` instead of running something else.
    """
    kept = dict(mapping)
    for key, (harmless, removed) in _RETIRED.items():
        value = kept.pop(key, None)
        if harmless is not None and value not in harmless:
            raise error(f"{key}={value!r}: the option was removed — {removed}; drop the key")
    return kept


def check_engine_section(section: "Mapping[str, Any]") -> "dict[str, Any]":
    """Reject keys an ``engine`` section cannot hold (typos included);
    return the section without retired keys."""
    section = drop_retired_keys(section, PipelineValidationError)
    unknown = set(section) - ENGINE_SECTION_KEYS
    if unknown:
        raise PipelineValidationError(
            f"unknown keys in the spec's engine section: {sorted(unknown)}; "
            f"accepted: {sorted(ENGINE_SECTION_KEYS)}"
        )
    return section
