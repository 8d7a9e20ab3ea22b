"""The typed stage protocol of the pipeline package.

A stage declares *ports*: named inputs and outputs, each tagged with an
artifact kind.  Port names double as default store keys; a spec can rebind
them (``"inputs": {"blocks": "raw_blocks"}``) so the same stage class works at
any position of a graph.  Declaring kinds up front is what makes composition
checkable before anything runs: :meth:`repro.pipeline.runner.Pipeline.validate`
simulates the store and rejects a wiring whose artifacts are missing or of
the wrong kind.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, ClassVar

from repro.exceptions import PipelineValidationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.pipeline.runner import PipelineContext


@dataclass(frozen=True)
class ArtifactSpec:
    """One declared port of a stage: a name, an artifact kind, optionality.

    The port ``name`` is also the keyword argument under which the artifact
    is passed to :meth:`Stage.run` and the default store key.
    """

    name: str
    kind: str | None = None
    required: bool = True

    def __post_init__(self) -> None:
        if self.kind is None:
            object.__setattr__(self, "kind", self.name)


def _port(name: str, kind: str | None = None, *, required: bool = True) -> ArtifactSpec:
    """Shorthand used by the stage declarations."""
    return ArtifactSpec(name=name, kind=kind, required=required)


class Stage:
    """Base class of every pipeline stage.

    Class attributes
    ----------------
    kind:
        The registry key of the stage (``"token_blocking"``, ``"matching"``…).
    inputs / outputs:
        The declared ports (:class:`ArtifactSpec` tuples).

    Instance attributes
    -------------------
    label:
        The unique name of this stage *instance* inside a pipeline; defaults
        to ``kind``.  Report rows and checkpoints are keyed by label.
    bind / emit:
        Port-name → store-key remappings for inputs and outputs.
    """

    kind: ClassVar[str] = ""
    inputs: ClassVar[tuple[ArtifactSpec, ...]] = ()
    outputs: ClassVar[tuple[ArtifactSpec, ...]] = ()

    label: str
    bind: dict[str, str]
    emit: dict[str, str]

    def __init__(self) -> None:
        # Concrete stages call super().__init__() before storing their params.
        self.label = type(self).kind
        self.bind = {}
        self.emit = {}

    # ------------------------------------------------------------ composition
    def configure(
        self,
        *,
        label: str | None = None,
        inputs: dict[str, str] | None = None,
        outputs: dict[str, str] | None = None,
    ) -> "Stage":
        """Set the instance label and port remappings; returns ``self``.

        Unknown port names raise :class:`PipelineValidationError` so a typo in
        a spec fails at composition time, not mid-run.
        """
        if label is not None:
            self.label = label
        for mapping, ports, what in (
            (inputs, self.inputs, "input"),
            (outputs, self.outputs, "output"),
        ):
            if not mapping:
                continue
            known = {spec.name for spec in ports}
            for port in mapping:
                if port not in known:
                    raise PipelineValidationError(
                        f"stage {self.kind!r} has no {what} port {port!r}; "
                        f"ports: {sorted(known) or '(none)'}"
                    )
            target = self.bind if what == "input" else self.emit
            target.update(mapping)
        return self

    def input_key(self, port: str) -> str:
        """The store key this instance reads ``port`` from."""
        return self.bind.get(port, port)

    def output_key(self, port: str) -> str:
        """The store key this instance writes ``port`` to."""
        return self.emit.get(port, port)

    # ----------------------------------------------------------------- params
    def params(self) -> dict[str, object]:
        """The resolved constructor parameters of this instance.

        The default implementation mirrors the ``__init__`` signature: every
        parameter must be stored under an attribute of the same name.  The
        result is JSON-compatible for all built-in stages and is what
        ``Pipeline.resolved_spec()`` records for provenance.
        """
        signature = inspect.signature(type(self).__init__)
        resolved: dict[str, object] = {}
        for name, parameter in signature.parameters.items():
            if name == "self" or parameter.kind in (
                inspect.Parameter.VAR_POSITIONAL,
                inspect.Parameter.VAR_KEYWORD,
            ):
                continue
            resolved[name] = getattr(self, name)
        return resolved

    # ------------------------------------------------------------------ spec
    def as_spec(self) -> dict[str, object]:
        """One resolved spec entry (stage kind, label, params, port bindings)."""
        entry: dict[str, object] = {"stage": self.kind}
        if self.label != self.kind:
            entry["label"] = self.label
        params = self.params()
        if params:
            entry["params"] = params
        if self.bind:
            entry["inputs"] = dict(self.bind)
        if self.emit:
            entry["outputs"] = dict(self.emit)
        return entry

    # ------------------------------------------------------------------- run
    def run(self, context: "PipelineContext", **artifacts: Any) -> dict[str, Any]:
        """Execute the stage; return a port-name → artifact mapping."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(label={self.label!r})"


@dataclass
class StageExecution:
    """What one stage did during a run (the unified-report record)."""

    label: str
    kind: str
    params: dict[str, object] = field(default_factory=dict)
    seconds: float = 0.0
    resumed: bool = False
    engine: dict[str, int] = field(default_factory=dict)

    def as_row(self, metrics: dict[str, object] | None = None) -> dict[str, object]:
        """One row of the unified per-stage table (CLI output)."""
        row: dict[str, object] = {
            "stage": self.label,
            "status": "resumed" if self.resumed else "run",
            "seconds": round(self.seconds, 4),
            "tasks": self.engine.get("tasks", 0),
        }
        if metrics:
            row.update(metrics)
        return row
