"""The pipeline runner: validated composition, execution, checkpoint/resume.

``Pipeline`` executes a list of :class:`~repro.pipeline.stage.Stage` instances
in order over a shared :class:`~repro.pipeline.artifacts.ArtifactStore`,
recording one :class:`~repro.pipeline.stage.StageExecution` per stage (its
params, wall-clock and metrics).  Pipelines are
buildable three ways:

* directly, from stage instances: ``Pipeline([TokenBlockingStage(), ...])``;
* declaratively, from a plain dict/JSON spec: ``Pipeline.from_spec({...})``;
* from a checkpoint directory: ``Pipeline.from_checkpoint(path)``.

When a ``checkpoint`` directory is given to :meth:`Pipeline.run`, the whole
run state is persisted after every completed stage; re-running with
``resume=True`` (or ``Pipeline.resume(path)``) skips completed stages and
continues from the stored artifacts — the resumed result is identical to an
uninterrupted run.
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from typing import Any

from repro.data.dataset import ProfileCollection
from repro.data.ground_truth import GroundTruth
from repro.exceptions import PipelineError, PipelineValidationError
from repro.options import drop_retired_keys
from repro.pipeline.artifacts import PROFILES, ArtifactStore
from repro.pipeline.checkpoint import PipelineCheckpoint
from repro.pipeline.registry import make_stage
from repro.pipeline.stage import Stage, StageExecution
from repro.utils.timers import Timer

_SPEC_ENTRY_KEYS = {"stage", "label", "params", "inputs", "outputs"}

# "dataset" is CLI provenance (which inputs to load), tolerated so resolved
# specs written by `run --output-config` feed straight back into from_spec;
# "engine" is the section of older specs (see from_spec).
_SPEC_TOP_KEYS = {"name", "engine", "seeds", "stages", "dataset"}


@dataclass
class PipelineContext:
    """Everything a stage may need beyond its declared input artifacts."""

    ground_truth: GroundTruth | None = None
    extras: dict[str, Any] = field(default_factory=dict)
    max_comparisons: int = 0
    metrics: dict[str, object] = field(default_factory=dict)

    def record(self, metrics: Mapping[str, object]) -> None:
        """Record metrics of the running stage into its execution record."""
        self.metrics.update(metrics)


@dataclass
class PipelineResult:
    """Everything one pipeline run produced."""

    name: str
    artifacts: ArtifactStore
    executions: list[StageExecution]
    spec: dict[str, object] = field(default_factory=dict)
    completed: list[str] = field(default_factory=list)
    partial: bool = False

    # ------------------------------------------------------- common artifacts
    @property
    def candidate_pairs(self) -> set[tuple[int, int]]:
        return self.artifacts.get("candidate_pairs", set())  # type: ignore[return-value]

    @property
    def similarity_graph(self):
        return self.artifacts.get("similarity_graph")

    @property
    def clusters(self) -> list:
        return self.artifacts.get("clusters", [])  # type: ignore[return-value]

    @property
    def entities(self) -> list[dict[str, object]]:
        return self.artifacts.get("entities", [])  # type: ignore[return-value]

    # ------------------------------------------------------------ executions
    def execution(self, label: str) -> StageExecution | None:
        """The execution record of the stage labelled ``label`` (or None)."""
        return next((e for e in self.executions if e.label == label), None)

    def metric_rows(self) -> list[dict[str, object]]:
        """Per-stage rows: the label, then what the stage recorded."""
        return [execution.metric_row() for execution in self.executions]

    def stage_rows(self) -> list[dict[str, object]]:
        """Per-stage rows: status and seconds."""
        return [execution.as_row() for execution in self.executions]

    def summary(self) -> dict[str, object]:
        """Headline numbers of the run."""
        summary: dict[str, object] = {
            "stages_run": sum(1 for e in self.executions if not e.resumed),
            "stages_resumed": sum(1 for e in self.executions if e.resumed),
            "seconds": round(sum(e.seconds for e in self.executions), 4),
        }
        for key in ("candidate_pairs", "similarity_graph", "clusters", "entities"):
            value = self.artifacts.get(key)
            if value is None:
                continue
            try:
                summary[key] = len(value)  # type: ignore[arg-type]
            except TypeError:
                pass
        return summary


class Pipeline:
    """An ordered, validated stage graph over a keyed artifact store.

    Parameters
    ----------
    stages:
        The stage instances, executed in order.
    name:
        Label used in reports and specs.
    seeds:
        Extra artifacts the caller promises to provide at :meth:`run` time,
        as a key → kind mapping; ``profiles`` is always seeded.
    """

    def __init__(
        self,
        stages: Iterable[Stage],
        *,
        name: str = "pipeline",
        seeds: Mapping[str, str] | None = None,
    ) -> None:
        self.stages = list(stages)
        if not self.stages:
            raise PipelineValidationError("a pipeline needs at least one stage")
        self.name = name
        self.seeds = {PROFILES: PROFILES}
        if seeds:
            self.seeds.update(seeds)
        self.validate()

    # ------------------------------------------------------------- composition
    def validate(self, available: Mapping[str, str] | None = None) -> None:
        """Simulate the store and reject inconsistent wirings.

        Checks that stage labels are unique and that every required input key
        exists — with the declared kind — by the time its stage runs.
        """
        manifest: dict[str, str] = dict(available if available is not None else self.seeds)
        labels: set[str] = set()
        for position, stage in enumerate(self.stages):
            if stage.label in labels:
                raise PipelineValidationError(
                    f"duplicate stage label {stage.label!r}; give one instance an "
                    "explicit 'label' in the spec"
                )
            labels.add(stage.label)
            for spec in stage.inputs:
                key = stage.input_key(spec.name)
                if key in manifest:
                    if manifest[key] != spec.kind:
                        raise PipelineValidationError(
                            f"stage {stage.label!r} (position {position}) expects "
                            f"input {key!r} of kind {spec.kind!r} but the store "
                            f"will hold kind {manifest[key]!r}"
                        )
                elif spec.required:
                    raise PipelineValidationError(
                        f"stage {stage.label!r} (position {position}) requires "
                        f"input {key!r} of kind {spec.kind!r}, which no earlier "
                        "stage produces and no seed provides"
                    )
            for spec in stage.outputs:
                manifest[stage.output_key(spec.name)] = spec.kind

    # -------------------------------------------------------------------- spec
    @classmethod
    def from_spec(cls, spec: Mapping[str, object]) -> "Pipeline":
        """Build a pipeline from a plain dict/JSON spec.

        Spec shape::

            {
              "name": "my-pipeline",                    # optional
              "seeds": {"blocks": "blocks"},            # optional extra seeds
              "stages": [
                {"stage": "token_blocking",
                 "label": "tb",                         # optional
                 "params": {"min_token_length": 2},     # optional
                 "inputs": {...}, "outputs": {...}}     # optional rebinding
              ]
            }

        Specs written by earlier versions may carry an ``engine`` section,
        whose keys are all retired (:func:`~repro.options.drop_retired_keys`):
        the three it could hold are dropped whatever their value, one that
        asks for a removed feature (``kernel_backend: python``) is refused,
        and an unknown key is an error.  Stage params go through the same
        door (the LSH parameters ``loose_schema`` once took are dropped);
        any other unknown param is refused.
        """
        if not isinstance(spec, Mapping):
            raise PipelineValidationError("a pipeline spec must be a mapping")
        unknown_top = set(spec) - _SPEC_TOP_KEYS
        if unknown_top:
            raise PipelineValidationError(
                f"unknown keys in pipeline spec: {sorted(unknown_top)}; "
                f"accepted: {sorted(_SPEC_TOP_KEYS)}"
            )
        stage_entries = spec.get("stages")
        if not isinstance(stage_entries, (list, tuple)) or not stage_entries:
            raise PipelineValidationError("spec['stages'] must be a non-empty list")
        stages: list[Stage] = []
        for entry in stage_entries:
            if isinstance(entry, str):
                entry = {"stage": entry}
            if not isinstance(entry, Mapping):
                raise PipelineValidationError(
                    f"each stage entry must be a mapping or a stage name, got {entry!r}"
                )
            unknown = set(entry) - _SPEC_ENTRY_KEYS
            if unknown:
                raise PipelineValidationError(
                    f"unknown keys in stage entry: {sorted(unknown)}; "
                    f"accepted: {sorted(_SPEC_ENTRY_KEYS)}"
                )
            kind = entry.get("stage")
            if not isinstance(kind, str):
                raise PipelineValidationError("each stage entry needs a 'stage' name")
            params = drop_retired_keys(entry.get("params") or {}, PipelineValidationError)
            stage = make_stage(kind, params)
            stage.configure(
                label=entry.get("label"),
                inputs=dict(entry.get("inputs") or {}),
                outputs=dict(entry.get("outputs") or {}),
            )
            stages.append(stage)

        unknown = drop_retired_keys(spec.get("engine") or {}, PipelineValidationError)
        if unknown:
            raise PipelineValidationError(
                f"unknown keys in the spec's engine section: {sorted(unknown)}"
            )
        return cls(
            stages,
            name=str(spec.get("name", "pipeline")),
            seeds=dict(spec.get("seeds") or {}),
        )

    def resolved_spec(self) -> dict[str, object]:
        """The provenance spec: every stage with its resolved parameters.

        Round-trips: ``Pipeline.from_spec(p.resolved_spec())`` builds an
        equivalent pipeline.
        """
        spec: dict[str, object] = {
            "name": self.name,
            "stages": [stage.as_spec() for stage in self.stages],
        }
        extra_seeds = {k: v for k, v in self.seeds.items() if k != PROFILES}
        if extra_seeds:
            spec["seeds"] = extra_seeds
        return spec

    # -------------------------------------------------------------- checkpoint
    @classmethod
    def from_checkpoint(
        cls, checkpoint: "str | os.PathLike[str] | PipelineCheckpoint"
    ) -> "Pipeline":
        """Rebuild the pipeline whose run state is stored in ``checkpoint``."""
        if not isinstance(checkpoint, PipelineCheckpoint):
            checkpoint = PipelineCheckpoint(checkpoint)
        state = checkpoint.load()
        return cls.from_spec(state["spec"])

    @classmethod
    def resume(
        cls,
        checkpoint: "str | os.PathLike[str] | PipelineCheckpoint",
        *,
        extras: Mapping[str, Any] | None = None,
        stop_after: str | None = None,
    ) -> "PipelineResult":
        """One-call resume: rebuild from ``checkpoint`` and finish the run.

        Extras are never checkpointed (they exist precisely because they do
        not serialise), so a run that used them must pass them again here.
        """
        if not isinstance(checkpoint, PipelineCheckpoint):
            checkpoint = PipelineCheckpoint(checkpoint)
        # Load the (potentially huge) state pickle once and share it with
        # run() instead of letting it re-load the same file.
        state = checkpoint.load()
        return cls.from_spec(state["spec"]).run(
            None,
            extras=extras,
            checkpoint=checkpoint,
            resume=True,
            stop_after=stop_after,
            _resume_state=state,
        )

    # --------------------------------------------------------------------- run
    def run(
        self,
        profiles: ProfileCollection | None,
        ground_truth: GroundTruth | None = None,
        *,
        artifacts: Mapping[str, object] | None = None,
        extras: Mapping[str, Any] | None = None,
        checkpoint: "str | os.PathLike[str] | PipelineCheckpoint | None" = None,
        resume: bool = False,
        stop_after: str | None = None,
        _resume_state: "dict[str, Any] | None" = None,
    ) -> PipelineResult:
        """Execute the stage graph; return every artifact and each stage's record.

        Parameters
        ----------
        profiles / ground_truth:
            The input data.  ``profiles`` may be ``None`` only when resuming
            (the checkpoint stores the inputs of the original run).
        artifacts:
            Extra seed artifacts, keyed by store key; the kind defaults to
            the key, or pass ``(kind, value)`` tuples for remapped keys.
        extras:
            Non-serialisable stage inputs (matching rules, custom matchers…),
            available to stages as ``context.extras``.  Never written to
            checkpoints — pass them again when resuming.
        checkpoint:
            Directory to persist the run state into after every stage.
        resume:
            Load ``checkpoint`` and skip its completed stages.
        stop_after:
            Stop (checkpoint intact) after the stage with this label.
        """
        if stop_after is not None and stop_after not in {s.label for s in self.stages}:
            raise PipelineValidationError(
                f"stop_after={stop_after!r} matches no stage label"
            )
        if checkpoint is not None and not isinstance(checkpoint, PipelineCheckpoint):
            checkpoint = PipelineCheckpoint(checkpoint)

        extras_dict = dict(extras) if extras else {}
        if resume:
            if checkpoint is None:
                raise PipelineError("resume=True requires a checkpoint directory")
            state = _resume_state if _resume_state is not None else checkpoint.load()
            if state.get("spec", {}).get("stages") != self.resolved_spec()["stages"]:
                raise PipelineError(
                    "checkpoint was written by a different pipeline spec; "
                    "rebuild it with Pipeline.from_checkpoint() or start fresh"
                )
            store: ArtifactStore = state["store"]
            executions: list[StageExecution] = list(state["executions"])
            for execution in executions:
                execution.resumed = True
            if profiles is None:
                profiles = state["profiles"]
            if ground_truth is None:
                ground_truth = state["ground_truth"]
        else:
            if profiles is None:
                raise PipelineError("run() needs a profile collection")
            store = ArtifactStore()
            executions = []
            store.put(PROFILES, PROFILES, profiles)
            for key, value in (artifacts or {}).items():
                if isinstance(value, tuple) and len(value) == 2 and isinstance(value[0], str):
                    store.put(key, value[0], value[1])
                else:
                    store.put(key, key, value)

        # Re-validate against what is actually seeded (catches partial
        # pipelines whose declared seeds were never provided).
        self.validate(available=store.manifest())

        # Only ground-truth statistics read the all-pairs count.
        context = PipelineContext(
            ground_truth=ground_truth,
            extras=extras_dict,
            max_comparisons=profiles.max_comparisons() if ground_truth is not None else 0,
        )

        completed = {execution.label for execution in executions}
        stopped = False
        for stage in self.stages:
            if stage.label in completed:
                if stop_after == stage.label:
                    stopped = True
                    break
                continue
            inputs: dict[str, Any] = {}
            for spec in stage.inputs:
                key = stage.input_key(spec.name)
                if key in store:
                    inputs[spec.name] = store.get(key)
                elif spec.required:
                    raise PipelineError(
                        f"stage {stage.label!r} is missing required input {key!r}"
                    )
            context.metrics = {}
            with Timer() as timer:
                outputs = stage.run(context, **inputs)
            for spec in stage.outputs:
                if spec.name not in outputs:
                    raise PipelineError(
                        f"stage {stage.label!r} did not produce declared "
                        f"output {spec.name!r}"
                    )
                store.put(stage.output_key(spec.name), spec.kind, outputs[spec.name])
            executions.append(
                StageExecution(
                    label=stage.label,
                    kind=stage.kind,
                    params=stage.params(),
                    seconds=timer.elapsed,
                    metrics=context.metrics,
                )
            )
            if checkpoint is not None:
                checkpoint.save({
                    "spec": self.resolved_spec(),
                    "completed": [e.label for e in executions],
                    "store": store,
                    "executions": executions,
                    "profiles": profiles,
                    "ground_truth": ground_truth,
                    "artifact_manifest": store.manifest(),
                })
            if stop_after == stage.label:
                stopped = True
                break

        return PipelineResult(
            name=self.name,
            artifacts=store,
            executions=executions,
            spec=self.resolved_spec(),
            completed=[execution.label for execution in executions],
            partial=stopped,
        )

    def __repr__(self) -> str:
        labels = ", ".join(stage.label for stage in self.stages)
        return f"Pipeline(name={self.name!r}, stages=[{labels}])"
