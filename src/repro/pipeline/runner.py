"""The pipeline runner: validated composition, execution, checkpoint/resume.

``Pipeline`` executes a list of :class:`~repro.pipeline.stage.Stage` instances
in order over a shared :class:`~repro.pipeline.artifacts.ArtifactStore`,
recording per-stage wall-clock and engine-metric deltas into one unified
report.  Pipelines are buildable three ways:

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
from repro.engine.context import EngineContext
from repro.evaluation.report import PipelineReport
from repro.exceptions import EngineError, PipelineError, PipelineValidationError
from repro.options import check_engine_section, resolve_executor
from repro.pipeline.artifacts import PROFILES, ArtifactStore
from repro.pipeline.checkpoint import PipelineCheckpoint
from repro.pipeline.registry import make_stage
from repro.pipeline.stage import Stage, StageExecution
from repro.utils.timers import StageTimings, Timer

_UNSET = object()

# Monotonic counters in EngineContext.metrics_summary(): per-stage and per-run
# views report them as deltas; everything else (e.g. default_parallelism) is
# a configuration gauge and passes through unchanged.
_ENGINE_COUNTERS = ("stages", "tasks", "task_failures")

_SPEC_ENTRY_KEYS = {"stage", "label", "params", "inputs", "outputs"}

# "dataset" is CLI provenance (which inputs to load), tolerated so resolved
# specs written by `run --output-config` feed straight back into from_spec.
_SPEC_TOP_KEYS = {"name", "engine", "seeds", "stages", "dataset"}


def _engine_snapshot(engine: EngineContext | None) -> dict[str, int]:
    if engine is None:
        return {}
    summary = engine.metrics_summary()
    return {counter: int(summary[counter]) for counter in _ENGINE_COUNTERS}


def _engine_delta(before: dict[str, int], after: dict[str, int]) -> dict[str, int]:
    return {counter: after[counter] - before[counter] for counter in after}


def _engine_run_metrics(
    engine: EngineContext | None, run_start: dict[str, object]
) -> dict[str, object]:
    """The engine summary scoped to this run: integer counters as deltas.

    An :class:`EngineContext` can outlive many pipeline runs (``SparkER``
    reuses one); reporting lifetime counters would double-count every run
    after the first.
    """
    if engine is None:
        return {}
    summary = dict(engine.metrics_summary())
    for key in _ENGINE_COUNTERS:
        summary[key] -= run_start[key]
    return summary


@dataclass
class PipelineContext:
    """Everything a stage may need beyond its declared input artifacts."""

    engine: EngineContext | None = None
    ground_truth: GroundTruth | None = None
    extras: dict[str, Any] = field(default_factory=dict)
    report: PipelineReport = field(default_factory=PipelineReport)
    max_comparisons: int = 0

    def record(self, stage: str, metrics: dict[str, object]) -> None:
        """Record the metric snapshot of one stage into the unified report."""
        self.report.add(stage, metrics)


@dataclass
class PipelineResult:
    """Everything one pipeline run produced."""

    name: str
    artifacts: ArtifactStore
    report: PipelineReport
    executions: list[StageExecution]
    timings: StageTimings
    engine_metrics: dict[str, object] = field(default_factory=dict)
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

    # ----------------------------------------------------------------- report
    def stage_rows(self) -> list[dict[str, object]]:
        """Uniform per-stage rows: status, seconds, engine counter deltas."""
        return [execution.as_row() for execution in self.executions]

    def summary(self) -> dict[str, object]:
        """Headline numbers of the run, engine metrics included."""
        summary: dict[str, object] = {
            "stages_run": sum(1 for e in self.executions if not e.resumed),
            "stages_resumed": sum(1 for e in self.executions if e.resumed),
            "seconds": round(self.timings.total, 4),
        }
        for key in ("candidate_pairs", "similarity_graph", "clusters", "entities"):
            value = self.artifacts.get(key)
            if value is None:
                continue
            try:
                summary[key] = len(value)  # type: ignore[arg-type]
            except TypeError:
                pass
        if self.engine_metrics:
            summary["engine"] = dict(self.engine_metrics)
        return summary


class Pipeline:
    """An ordered, validated stage graph over a keyed artifact store.

    Parameters
    ----------
    stages:
        The stage instances, executed in order.
    engine:
        Optional :class:`EngineContext` made available to every stage; a
        pipeline built by :meth:`from_spec` with an enabled engine section
        creates (and owns) its own context.
    name:
        Label used in reports and specs.
    seeds:
        Extra artifacts the caller promises to provide at :meth:`run` time,
        as a key → kind mapping; ``profiles`` is always seeded.
    executor:
        The run's ``executor`` engine option, recorded in
        :meth:`resolved_spec`; defaults to the engine's own, else to the
        environment and the default.
    """

    def __init__(
        self,
        stages: Iterable[Stage],
        *,
        engine: EngineContext | None = None,
        name: str = "pipeline",
        seeds: Mapping[str, str] | None = None,
        executor: str | None = None,
    ) -> None:
        self.stages = list(stages)
        if not self.stages:
            raise PipelineValidationError("a pipeline needs at least one stage")
        self.engine = engine
        self.name = name
        self.seeds = {PROFILES: PROFILES}
        if seeds:
            self.seeds.update(seeds)
        self._owns_engine = False
        if executor is None and engine is not None:
            executor = engine.executor_spec
        self.executor = resolve_executor(executor)
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
    def from_spec(
        cls,
        spec: Mapping[str, object],
        *,
        engine: "EngineContext | object" = _UNSET,
        executor: str | None = None,
    ) -> "Pipeline":
        """Build a pipeline from a plain dict/JSON spec.

        Spec shape::

            {
              "name": "my-pipeline",                    # optional
              "engine": {"enabled": true,               # optional section
                         "parallelism": 4,
                         "executor": "process:2"},
              "seeds": {"blocks": "blocks"},            # optional extra seeds
              "stages": [
                {"stage": "token_blocking",
                 "label": "tb",                         # optional
                 "params": {"min_token_length": 2},     # optional
                 "inputs": {...}, "outputs": {...}}     # optional rebinding
              ]
            }

        Besides ``enabled`` / ``parallelism`` the engine section holds the
        ``executor`` engine option (:mod:`repro.options`); it is resolved
        here, once — an explicit ``executor`` (e.g. from CLI flags) wins over
        the section, the section over ``REPRO_ENGINE_EXECUTOR`` — and an
        unknown key is rejected, and a retired one (``block_store``,
        ``fault_policy``, ...) dropped when harmless, rejected otherwise
        (:func:`~repro.options.drop_retired_keys`).  ``engine=`` overrides
        the spec's engine section with a caller-managed context (pass
        ``None`` to force driver-side execution).
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
            stage = make_stage(kind, dict(entry.get("params") or {}))
            stage.configure(
                label=entry.get("label"),
                inputs=dict(entry.get("inputs") or {}),
                outputs=dict(entry.get("outputs") or {}),
            )
            stages.append(stage)

        engine_section = check_engine_section(spec.get("engine") or {})
        try:
            executor = resolve_executor(executor, engine_section)
        except EngineError as error:
            raise PipelineValidationError(f"invalid engine option {error}") from error
        owns_engine = False
        if engine is not _UNSET:
            engine_context = engine  # caller-managed (possibly None)
        elif engine_section.get("enabled"):
            engine_context = EngineContext(
                default_parallelism=int(engine_section.get("parallelism", 4)),
                executor=executor,
            )
            owns_engine = True
        else:
            engine_context = None
        pipeline = cls(
            stages,
            engine=engine_context,  # type: ignore[arg-type]
            name=str(spec.get("name", "pipeline")),
            seeds=dict(spec.get("seeds") or {}),
            executor=executor,
        )
        pipeline._owns_engine = owns_engine
        return pipeline

    def resolved_spec(self) -> dict[str, object]:
        """The provenance spec: every stage with its resolved parameters.

        Round-trips: ``Pipeline.from_spec(p.resolved_spec())`` builds an
        equivalent pipeline.  The engine section records the executor the
        run resolved to — what actually ran, wherever it came from — so the
        spec replays identically under a different environment.
        """
        engine_section: dict[str, object] = {"enabled": self.engine is not None}
        if self.engine is not None:
            engine_section["parallelism"] = self.engine.default_parallelism
        engine_section["executor"] = self.executor
        spec: dict[str, object] = {
            "name": self.name,
            "engine": engine_section,
            "stages": [stage.as_spec() for stage in self.stages],
        }
        extra_seeds = {k: v for k, v in self.seeds.items() if k != PROFILES}
        if extra_seeds:
            spec["seeds"] = extra_seeds
        return spec

    # -------------------------------------------------------------- checkpoint
    @classmethod
    def from_checkpoint(
        cls,
        checkpoint: "str | os.PathLike[str] | PipelineCheckpoint",
        *,
        engine: "EngineContext | object" = _UNSET,
    ) -> "Pipeline":
        """Rebuild the pipeline whose run state is stored in ``checkpoint``."""
        if not isinstance(checkpoint, PipelineCheckpoint):
            checkpoint = PipelineCheckpoint(checkpoint)
        state = checkpoint.load()
        return cls.from_spec(state["spec"], engine=engine)

    @classmethod
    def resume(
        cls,
        checkpoint: "str | os.PathLike[str] | PipelineCheckpoint",
        *,
        engine: "EngineContext | object" = _UNSET,
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
        pipeline = cls.from_spec(state["spec"], engine=engine)
        try:
            return pipeline.run(
                None,
                extras=extras,
                checkpoint=checkpoint,
                resume=True,
                stop_after=stop_after,
                _resume_state=state,
            )
        finally:
            pipeline.shutdown()

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
        """Execute the stage graph and return every artifact plus the report.

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
            stored_stages = state.get("spec", {}).get("stages")
            if stored_stages != self.resolved_spec()["stages"]:
                raise PipelineError(
                    "checkpoint was written by a different pipeline spec; "
                    "rebuild it with Pipeline.from_checkpoint() or start fresh"
                )
            store: ArtifactStore = state["store"]
            report: PipelineReport = state["report"]
            executions: list[StageExecution] = list(state["executions"])
            timings: StageTimings = state["timings"]
            completed: set[str] = set(state["completed"])
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
            report = PipelineReport()
            executions = []
            timings = StageTimings()
            completed = set()
            store.put(PROFILES, PROFILES, profiles)
            for key, value in (artifacts or {}).items():
                if isinstance(value, tuple) and len(value) == 2 and isinstance(value[0], str):
                    store.put(key, value[0], value[1])
                else:
                    store.put(key, key, value)

        # Re-validate against what is actually seeded (catches partial
        # pipelines whose declared seeds were never provided).
        self.validate(available=store.manifest())

        run_start_metrics = dict(self.engine.metrics_summary()) if self.engine else {}
        context = PipelineContext(
            engine=self.engine,
            ground_truth=ground_truth,
            extras=extras_dict,
            report=report,
            max_comparisons=profiles.max_comparisons(),
        )

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
            before = _engine_snapshot(self.engine)
            with Timer() as timer:
                outputs = stage.run(context, **inputs)
            delta = _engine_delta(before, _engine_snapshot(self.engine))
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
                    engine=delta,
                )
            )
            timings.record(stage.label, timer.elapsed)
            completed.add(stage.label)
            if checkpoint is not None:
                checkpoint.save(
                    self._checkpoint_state(
                        store=store,
                        report=report,
                        executions=executions,
                        timings=timings,
                        completed=[e.label for e in executions],
                        profiles=profiles,
                        ground_truth=ground_truth,
                    )
                )
            if stop_after == stage.label:
                stopped = True
                break

        return PipelineResult(
            name=self.name,
            artifacts=store,
            report=report,
            executions=executions,
            timings=timings,
            engine_metrics=_engine_run_metrics(self.engine, run_start_metrics),
            spec=self.resolved_spec(),
            completed=[execution.label for execution in executions],
            partial=stopped,
        )

    def _checkpoint_state(self, **parts: Any) -> dict[str, Any]:
        store: ArtifactStore = parts["store"]
        return {
            "spec": self.resolved_spec(),
            "completed": parts["completed"],
            "store": store,
            "report": parts["report"],
            "executions": parts["executions"],
            "timings": parts["timings"],
            "profiles": parts["profiles"],
            "ground_truth": parts["ground_truth"],
            "artifact_manifest": store.manifest(),
        }

    # --------------------------------------------------------------- lifecycle
    def shutdown(self) -> None:
        """Release the engine if this pipeline created it (from a spec)."""
        if self._owns_engine and self.engine is not None:
            self.engine.stop()
            self._owns_engine = False

    def __enter__(self) -> "Pipeline":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    def __repr__(self) -> str:
        labels = ", ".join(stage.label for stage in self.stages)
        return f"Pipeline(name={self.name!r}, stages=[{labels}])"
