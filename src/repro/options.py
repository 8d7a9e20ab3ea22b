"""Engine options: the one door a setting goes through to reach the engine.

Three values tune *how* a run executes without changing *what* it computes:
where the meta-blocking range tasks run (``executor``), where the
meta-blocking index keeps its buffers (``buffer_backend``) and where
run-scoped files land (``tmp_dir``).  Each is reachable four ways — a keyword
argument, a pipeline-spec ``engine.*`` key, a ``run`` CLI flag and a
``REPRO_*`` environment variable — and this module is the only place that
knows it: :data:`OPTIONS` is the table, :meth:`EngineOptions.resolve` the one
resolution (explicit > spec > environment > default, then validated), and
the CLI flags, the ``engine``-section validation and the docs table are all
derived from the same rows.  Keys of removed options that stored artifacts
may still carry are handled by :func:`drop_retired_keys`.

Entry points (``cli run``, ``Pipeline.from_spec``, ``SparkER``,
``ServiceCollection``) resolve once and hand the frozen :class:`EngineOptions`
down; only the leaves that act on a value unpack it, and a leaf built without
options calls :meth:`EngineOptions.resolve` itself, so
``MetaBlocker("cbs", "wnp")`` still honours the environment.  Worker
processes receive the driver's resolved values — ``os.environ`` is read for
these variables here and nowhere else.
"""

from __future__ import annotations

import argparse
import os
import tempfile
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any, Callable

from repro.exceptions import (
    ConfigurationError,
    EngineError,
    MetaBlockingError,
    PipelineValidationError,
    SparkERError,
)

BUFFER_CHOICES = ("ram", "memmap")


# ----------------------------------------------------------------- validators
# Each takes the winning raw value (``None`` = nothing was set anywhere) and
# returns the resolved one.
def _executor(spec: Any) -> str:
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


def _buffer_backend(spec: Any) -> str:
    """``"ram"`` / ``"memmap"``."""
    if not isinstance(spec, str):
        raise MetaBlockingError(f"buffer backend spec must be a string, got {spec!r}")
    name = spec.strip().lower()
    if name not in BUFFER_CHOICES:
        raise MetaBlockingError(
            f"unknown buffer backend {spec!r}; valid backends: {', '.join(BUFFER_CHOICES)}"
        )
    return name


def _tmp_dir(spec: Any) -> str:
    """The artifact root as a string; nothing set means the platform default."""
    if spec is None:
        return tempfile.gettempdir()
    if not isinstance(spec, (str, os.PathLike)):
        raise EngineError(f"tmp dir must be a path, got {spec!r}")
    return os.fspath(spec)


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


# ------------------------------------------------------------------ the table
@dataclass(frozen=True)
class Option:
    """One engine option and every way it can be set.

    ``flags`` are the ``argparse`` declarations of its ``run`` flags and
    ``from_args`` composes them into one explicit value when a flag is not
    the value itself.  A pipeline spec's ``engine`` section sets it under the
    field's own name.
    """

    field: str
    env_var: str
    default: "str | None"
    validate: Callable[[Any], Any]
    consumer: str
    flags: "tuple[tuple[str, dict[str, Any]], ...]" = ()
    from_args: "Callable[[argparse.Namespace], Any] | None" = None


OPTIONS: "tuple[Option, ...]" = (
    Option(
        "executor", "REPRO_ENGINE_EXECUTOR", "serial", _executor,
        "`EngineContext` (where the meta-blocking range tasks run)",
        flags=(
            ("--executor", dict(
                choices=["serial", "process"],
                help="where the meta-blocking range tasks run (implies "
                     "--engine): 'serial' in this process, 'process' on a "
                     "process pool")),
            ("--workers", dict(
                type=int,
                help="process-pool worker count (implies --executor process; "
                     "default: CPU count)")),
        ),
        from_args=executor_from_args,
    ),
    Option(
        "buffer_backend", "REPRO_BUFFER_BACKEND", "ram", _buffer_backend,
        "`CSRBlockIndex` (where the CSR vectors live)",
        flags=(
            ("--buffer-backend", dict(
                choices=list(BUFFER_CHOICES),
                help="where the meta-blocking CSR index buffers live: "
                     "'ram' (default) keeps them in process memory, "
                     "'memmap' backs them with a file under --tmp-dir so "
                     "the OS can page the index out of core "
                     "(bit-for-bit identical output)")),
        ),
    ),
    Option(
        "tmp_dir", "REPRO_TMPDIR", None, _tmp_dir,
        "`engine.tmpfiles` (root of the memmap buffers; "
        "default: the system temp dir)",
        flags=(
            ("--tmp-dir", dict(
                help="root directory for engine temp artifacts (memmap "
                     "index buffers); default: REPRO_TMPDIR or the system "
                     "temp dir")),
        ),
    ),
)

_BY_FIELD = {option.field: option for option in OPTIONS}

# What an ``engine`` section may hold: the pipeline's own two keys plus every
# option.
ENGINE_SECTION_KEYS = frozenset({"enabled", "parallelism", *_BY_FIELD})


def _unset(value: Any) -> bool:
    return value is None or (isinstance(value, str) and not value.strip())


def resolve_option(
    field: str, explicit: Any = None, spec: "Mapping[str, Any] | None" = None
) -> Any:
    """Resolve one option: explicit > spec > environment > default, validated.

    The per-field half of :meth:`EngineOptions.resolve`, for the leaf that
    acts on a single value (``tmpfiles`` on the temp root).  A validation error names the source that
    supplied the bad value.
    """
    option = _BY_FIELD[field]
    value, source = explicit, field
    if _unset(value) and spec is not None:
        value, source = spec.get(field), f"engine.{field}"
    if _unset(value):
        value, source = os.environ.get(option.env_var), option.env_var
    if _unset(value):
        value, source = option.default, field
    try:
        return option.validate(value)
    except SparkERError as error:
        raise type(error)(f"{source}: {error}") from None


@dataclass(frozen=True)
class EngineOptions:
    """The three resolved engine options of one run (build with :meth:`resolve`).

    Every value is a canonical string (``"process:2"``, ``"memmap"``, a
    directory).
    """

    executor: str
    buffer_backend: str
    tmp_dir: str

    @classmethod
    def resolve(
        cls,
        spec: "Mapping[str, Any] | None" = None,
        *,
        base: "EngineOptions | None" = None,
        **explicit: Any,
    ) -> "EngineOptions":
        """Resolve every option once.

        ``explicit`` keyword values win, then the ``engine`` section ``spec``
        of a pipeline spec, then the ``REPRO_*`` environment, then the
        default.  With ``base`` (already-resolved options handed down from an
        entry point) only the explicit values are resolved; everything else is
        taken from ``base`` unchanged.
        """
        unknown = set(explicit) - set(_BY_FIELD)
        if unknown:
            raise TypeError(f"unknown engine options: {sorted(unknown)}")
        return cls(
            **{
                field: getattr(base, field)
                if base is not None and _unset(explicit.get(field))
                else resolve_option(field, explicit.get(field), spec)
                for field in _BY_FIELD
            }
        )

    def as_spec(self) -> "dict[str, object]":
        """The ``engine``-section keys that reproduce these options."""
        return {field: getattr(self, field) for field in _BY_FIELD}


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


# --------------------------------------------------- derived: spec, CLI, docs
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


def add_cli_arguments(parser: argparse.ArgumentParser) -> None:
    """Declare every option's flags on the ``run`` sub-parser."""
    for option in OPTIONS:
        for flag, keywords in option.flags:
            parser.add_argument(flag, **keywords)


def explicit_from_args(args: argparse.Namespace) -> "dict[str, Any]":
    """The options the user set on the command line, keyed by field."""
    explicit = {}
    for option in OPTIONS:
        if not option.flags:
            continue
        if option.from_args is not None:
            value = option.from_args(args)
        else:
            value = getattr(args, option.field)
        if value is not None:
            explicit[option.field] = value
    return explicit


def docs_table() -> "list[str]":
    """The "Engine options" markdown table of ``docs/ARCHITECTURE.md``."""
    lines = [
        "| field | CLI flag | spec key | env var | default | consumed by |",
        "|---|---|---|---|---|---|",
    ]
    for option in OPTIONS:
        flags = " / ".join(f"`{flag}`" for flag, _ in option.flags) or "—"
        default = f"`{option.default}`" if option.default else "—"
        lines.append(
            f"| `{option.field}` | {flags} | `engine.{option.field}` | `{option.env_var}` "
            f"| {default} | {option.consumer} |"
        )
    return lines
