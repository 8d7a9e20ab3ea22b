"""Engine options: the one door a setting goes through to reach the engine.

Six values tune *how* a run executes without changing *what* it computes:
where narrow stages run (``executor``), where the meta-blocking index keeps
its buffers (``buffer_backend``), where run-scoped files land (``tmp_dir``),
how failed tasks recover (``fault_policy``, and the test-only
``fault_inject``), and how shuffle blocks travel (``block_store``).  Each is
reachable four ways — a keyword argument, a pipeline-spec ``engine.*`` key,
a ``run`` CLI flag and a ``REPRO_*`` environment variable — and this module
is the only place that knows it: :data:`OPTIONS` is the table, :meth:`EngineOptions.resolve` the one
resolution (explicit > spec > environment > default, then validated), and
the CLI flags, the ``engine``-section validation and the docs table are all
derived from the same rows.

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
BLOCK_STORE_CHOICES = ("driver", "shared-memory", "spill")


# ----------------------------------------------------------------- validators
# Each takes the winning raw value (``None`` = nothing was set anywhere) and
# returns the resolved one.  Engine classes are imported lazily: the engine
# modules import this one.
def _executor(spec: Any) -> Any:
    """``"serial"`` / ``"process"`` / ``"process:<N>"``, or an instance."""
    from repro.engine.executors import Executor

    if isinstance(spec, Executor):
        return spec
    if not isinstance(spec, str):
        raise EngineError(f"executor spec must be an Executor or a string, got {spec!r}")
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


def _fault_policy(spec: Any) -> Any:
    """A :class:`FaultPolicy`; nothing set means the no-retry policy."""
    from repro.engine.faults import FaultPolicy

    if spec is None:
        return FaultPolicy()
    if isinstance(spec, FaultPolicy):
        return spec
    if isinstance(spec, (str, Mapping)):
        return FaultPolicy.parse(spec)
    raise EngineError(
        f"fault policy must be a FaultPolicy, spec string or mapping, got {spec!r}"
    )


def _fault_inject(spec: Any) -> Any:
    """A :class:`FaultInjector`, or ``None`` — the production default."""
    from repro.engine.faults import FaultInjector

    if spec is None or isinstance(spec, FaultInjector):
        return spec
    if isinstance(spec, str):
        return FaultInjector.parse(spec)
    raise EngineError(
        f"fault injector must be a FaultInjector or a spec string, got {spec!r}"
    )


def _block_store(spec: Any) -> Any:
    """``"driver"`` / ``"shared-memory"`` / ``"spill"``, or an instance."""
    from repro.engine.shuffle import BlockStore

    if isinstance(spec, BlockStore):
        return spec
    if not isinstance(spec, str):
        raise EngineError(f"block store spec must be a BlockStore or a string, got {spec!r}")
    name = spec.strip().lower()
    if name in ("driver", "inline"):
        return "driver"
    if name in ("shared-memory", "shared_memory", "sharedmem", "shm"):
        return "shared-memory"
    if name in ("spill", "file", "spill-file"):
        return "spill"
    raise EngineError(
        f"unknown block store {spec!r}; expected 'driver', 'shared-memory' or 'spill'"
    )


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


def fault_policy_from_args(args: argparse.Namespace) -> "str | None":
    """Build the fault-policy spec from ``--task-retries`` / ``--task-timeout``."""
    parts = []
    if args.task_retries is not None:
        if args.task_retries < 0:
            raise SparkERError("--task-retries must be >= 0")
        parts.append(f"retries={args.task_retries}")
    if args.task_timeout is not None:
        parts.append(f"timeout={args.task_timeout:g}")
    return ",".join(parts) or None


# ------------------------------------------------------------------ the table
@dataclass(frozen=True)
class Option:
    """One engine option and every way it can be set.

    ``flags`` are the ``argparse`` declarations of its ``run`` flags and
    ``from_args`` composes them into one explicit value when a flag is not
    the value itself; ``in_spec`` says whether a pipeline spec's ``engine``
    section may set it (under the field's own name).
    """

    field: str
    env_var: str
    default: "str | None"
    validate: Callable[[Any], Any]
    consumer: str
    flags: "tuple[tuple[str, dict[str, Any]], ...]" = ()
    from_args: "Callable[[argparse.Namespace], Any] | None" = None
    in_spec: bool = True

    @property
    def spec_key(self) -> "str | None":
        return self.field if self.in_spec else None


OPTIONS: "tuple[Option, ...]" = (
    Option(
        "executor", "REPRO_ENGINE_EXECUTOR", "serial", _executor,
        "`EngineContext` (where narrow stages run)",
        flags=(
            ("--executor", dict(
                choices=["serial", "process"],
                help="engine executor for narrow stages (implies --engine); "
                     "'process' runs shippable stages on a process pool")),
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
        "`engine.tmpfiles` (root of memmap buffers and spill directories; "
        "default: the system temp dir)",
        flags=(
            ("--tmp-dir", dict(
                help="root directory for engine temp artifacts (memmap "
                     "index buffers, shuffle spill files); default: "
                     "REPRO_TMPDIR or the system temp dir")),
        ),
    ),
    Option(
        "fault_policy", "REPRO_FAULT_POLICY", None, _fault_policy,
        "`MultiprocessingExecutor` (task retries/timeouts; default: fail fast)",
        flags=(
            ("--task-retries", dict(
                type=int,
                help="extra attempts per task before the fault policy is "
                     "exhausted (process executor only; default 0 = fail "
                     "fast, like REPRO_FAULT_POLICY unset)")),
            ("--task-timeout", dict(
                type=float,
                help="per-task timeout in seconds; a hung worker is killed, "
                     "the pool rebuilt and the task retried (process "
                     "executor only)")),
        ),
        from_args=fault_policy_from_args,
    ),
    Option(
        "fault_inject", "REPRO_FAULT_INJECT", None, _fault_inject,
        "`MultiprocessingExecutor` (deterministic chaos harness, tests only; "
        "kwarg `fault_injector=`)",
        in_spec=False,  # a test hook, never part of a run's provenance
    ),
    Option(
        "block_store", "REPRO_BLOCK_STORE", "driver", _block_store,
        "`EngineContext` (how shuffle blocks travel)",
        flags=(
            ("--block-store", dict(
                choices=list(BLOCK_STORE_CHOICES),
                help="how shuffle payloads travel between engine tasks: "
                     "'driver' relays them through the driver (default), "
                     "'shared-memory' publishes them as named shared-memory "
                     "segments exchanged peer-to-peer (spills per block when "
                     "shm is unavailable), 'spill' uses pickle files")),
        ),
    ),
)

_BY_FIELD = {option.field: option for option in OPTIONS}

# What an ``engine`` section may hold: the pipeline's own two keys plus every
# option settable from a spec.
ENGINE_SECTION_KEYS = frozenset(
    {"enabled", "parallelism"}
    | {option.field for option in OPTIONS if option.in_spec}
)


def _unset(value: Any) -> bool:
    return value is None or (isinstance(value, str) and not value.strip())


def resolve_option(
    field: str, explicit: Any = None, spec: "Mapping[str, Any] | None" = None
) -> Any:
    """Resolve one option: explicit > spec > environment > default, validated.

    The per-field half of :meth:`EngineOptions.resolve`, for the leaves that
    act on a single value (``tmpfiles`` on the temp root, the process
    executor on its fault policy).  A validation error names the source that
    supplied the bad value.
    """
    option = _BY_FIELD[field]
    value, source = explicit, field
    if _unset(value) and spec is not None and option.spec_key is not None:
        value, source = spec.get(option.spec_key), f"engine.{option.spec_key}"
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
    """The six resolved engine options of one run (build with :meth:`resolve`).

    Strings are canonical names (``"process:2"``, ``"memmap"``,
    ``"shared-memory"``); ``fault_policy`` / ``fault_inject`` are parsed
    objects; ``executor`` / ``block_store`` may instead hold a caller-built
    instance, which :class:`~repro.engine.context.EngineContext` uses as is.
    """

    executor: Any
    buffer_backend: str
    tmp_dir: str
    fault_policy: Any
    fault_inject: Any
    block_store: Any

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
        section: dict[str, object] = {}
        for option in OPTIONS:
            value = getattr(self, option.field)
            if option.spec_key is not None and value is not None:
                section[option.spec_key] = value if isinstance(value, str) else value.spec()
        return section


# ------------------------------------------------------------- retired keys
#: Options that no longer exist, with the values a stored artifact (pipeline
#: checkpoint, ``--output-config`` file, service snapshot) may carry for them
#: and still describe what every run now does.
_RETIRED = {"kernel_backend": (None, "auto", "numpy")}


def drop_retired_keys(
    mapping: "Mapping[str, Any]", error: "type[SparkERError]" = ConfigurationError
) -> "dict[str, Any]":
    """``mapping`` without the keys of retired options.

    A value the retired option would have resolved to today is dropped
    silently; any other (``kernel_backend: python`` asked for the removed
    interpreted kernel) raises ``error`` instead of running something else.
    """
    kept = dict(mapping)
    for key, harmless in _RETIRED.items():
        value = kept.pop(key, None)
        if value not in harmless:
            raise error(
                f"{key}={value!r}: the option was removed — numpy is required and "
                f"the interpreted meta-blocking kernel no longer exists; drop the key"
            )
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
        spec_key = f"`engine.{option.spec_key}`" if option.spec_key else "—"
        default = f"`{option.default}`" if option.default else "—"
        lines.append(
            f"| `{option.field}` | {flags} | {spec_key} | `{option.env_var}` "
            f"| {default} | {option.consumer} |"
        )
    return lines
