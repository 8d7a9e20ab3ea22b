"""The end-to-end SparkER facade (Figure 3 of the paper).

``profiles → Blocker → candidate pairs → Entity Matcher → matching pairs →
Entity Clusterer → output entities``.  Since the stage-graph redesign,
:class:`SparkER` is a thin compatibility wrapper over the canonical pipeline
spec (:meth:`SparkER.canonical_spec`): it builds a
:class:`repro.pipeline.Pipeline` from the spec, runs it, and re-packages the
artifacts into the legacy :class:`SparkERResult` shape — bit-for-bit
identical to what the hard-wired facade produced.  New code should use
``repro.pipeline`` directly; this class exists so existing callers (and the
paper's fixed wiring) keep working unchanged.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.clustering.base import EntityCluster, clusters_to_pairs
from repro.core.blocker import BlockerReport
from repro.core.config import SparkERConfig
from repro.data.dataset import ProfileCollection
from repro.data.ground_truth import GroundTruth
from repro.engine.context import EngineContext
from repro.evaluation.report import PipelineReport
from repro.looseschema.attribute_partitioning import AttributePartitioning
from repro.matching.matcher import Matcher, MatchingRule
from repro.matching.similarity_graph import SimilarityGraph
from repro.options import EngineOptions
from repro.pipeline import Pipeline, PipelineResult
from repro.utils.timers import StageTimings

# Pipeline stage label → legacy report name of the hard-wired facade.
_BLOCKER_LABELS = (
    "loose_schema",
    "token_blocking",
    "block_purging",
    "block_filtering",
    "meta_blocking",
)
_LEGACY_STAGE_NAMES = {
    **{label: f"blocker.{label}" for label in _BLOCKER_LABELS},
    "matching": "matcher",
    "clustering": "clusterer",
}
# Stage labels whose seconds roll up into the legacy three-bucket timings.
_TIMING_BUCKETS = {
    **{label: "blocker" for label in _BLOCKER_LABELS},
    "block_comparisons": "blocker",
    "matching": "matcher",
    "clustering": "clusterer",
    "entity_generation": "clusterer",
}


@dataclass
class SparkERResult:
    """All outputs of one end-to-end run."""

    blocker_report: BlockerReport
    candidate_pairs: set[tuple[int, int]]
    similarity_graph: SimilarityGraph
    clusters: list[EntityCluster]
    entities: list[dict[str, object]]
    report: PipelineReport = field(default_factory=PipelineReport)
    timings: StageTimings = field(default_factory=StageTimings)
    engine_metrics: dict[str, object] = field(default_factory=dict)
    pipeline_result: PipelineResult | None = None
    kernel_backend: str | None = None

    @property
    def matched_pairs(self) -> set[tuple[int, int]]:
        """The pairs the matcher labeled as matches."""
        return self.similarity_graph.pairs()

    @property
    def resolved_pairs(self) -> set[tuple[int, int]]:
        """The pairs asserted by the final clusters (after transitive closure)."""
        return clusters_to_pairs(self.clusters)

    def summary(self) -> dict[str, object]:
        """Headline numbers of the run, engine metrics included when present."""
        summary: dict[str, object] = {
            "candidate_pairs": len(self.candidate_pairs),
            "matched_pairs": len(self.matched_pairs),
            "clusters": len(self.clusters),
            "entities": len(self.entities),
        }
        if self.kernel_backend is not None:
            summary["kernel_backend"] = self.kernel_backend
        if self.engine_metrics:
            summary["engine"] = dict(self.engine_metrics)
        return summary


class SparkER:
    """The full entity-resolution pipeline (compatibility facade).

    Parameters
    ----------
    config:
        The pipeline configuration (defaults to the unsupervised defaults).
    use_engine:
        When True an :class:`EngineContext` is created with
        ``config.parallelism`` partitions and the distributed code paths are
        used for blocking, meta-blocking and clustering.
    executor:
        Shorthand for the ``executor`` engine option (``"serial"``,
        ``"process"``, ``"process:4"`` or an
        :class:`~repro.engine.executors.Executor` instance); only meaningful
        with ``use_engine=True``.
    options:
        Resolved :class:`~repro.options.EngineOptions` — build them with
        ``EngineOptions.resolve(kernel_backend=..., block_store=..., ...)``.
        Anything not given resolves from the ``REPRO_*`` environment and the
        defaults, once, here.
    partitioning:
        Optional user-supplied attribute partitioning (supervised mode).
    rules / labeled_pairs / matcher:
        Forwarded to the matching stage through the pipeline extras.
    """

    def __init__(
        self,
        config: SparkERConfig | None = None,
        *,
        use_engine: bool = False,
        executor: object | None = None,
        options: EngineOptions | None = None,
        partitioning: AttributePartitioning | None = None,
        rules: Sequence[MatchingRule] | None = None,
        labeled_pairs: Sequence[tuple[int, int, bool]] | None = None,
        matcher: Matcher | None = None,
    ) -> None:
        self.config = config or SparkERConfig.unsupervised_default()
        self.config.validate()
        self.options = EngineOptions.resolve(base=options, executor=executor)
        self.engine = (
            EngineContext(
                default_parallelism=self.config.parallelism, options=self.options
            )
            if use_engine
            else None
        )
        self.partitioning = partitioning
        self.rules = rules
        self.labeled_pairs = labeled_pairs
        self.custom_matcher = matcher

    # -------------------------------------------------------------- the spec
    @classmethod
    def canonical_spec(
        cls,
        config: SparkERConfig | None = None,
        *,
        use_engine: bool = False,
        executor: str | None = None,
        options: EngineOptions | None = None,
    ) -> dict[str, object]:
        """The declarative stage-graph spec equivalent to this facade.

        ``Pipeline.from_spec(SparkER.canonical_spec(config))`` reproduces
        ``SparkER(config).run(...)`` bit for bit.  The spec is plain data
        (JSON-serialisable), so it can be persisted, diffed and edited.
        ``options`` are recorded in its engine section; without them the
        section leaves every engine option to whoever loads the spec.
        """
        config = config or SparkERConfig.unsupervised_default()
        config.validate()
        blocker = config.blocker
        stages: list[dict[str, object]] = []
        if blocker.use_loose_schema:
            stages.append(
                {
                    "stage": "loose_schema",
                    "params": {"threshold": blocker.attribute_threshold},
                }
            )
        stages.append(
            {
                "stage": "token_blocking",
                "params": {
                    "min_token_length": blocker.min_token_length,
                    "remove_stopwords": blocker.remove_stopwords,
                    "use_entropy": blocker.use_entropy,
                },
                "outputs": {"blocks": "raw_blocks"},
            }
        )
        stages.append(
            {
                "stage": "block_purging",
                "params": {"max_profile_fraction": blocker.purge_factor},
                "inputs": {"blocks": "raw_blocks"},
                "outputs": {"blocks": "purged_blocks"},
            }
        )
        stages.append(
            {
                "stage": "block_filtering",
                "params": {"ratio": blocker.filter_ratio},
                "inputs": {"blocks": "purged_blocks"},
                "outputs": {"blocks": "filtered_blocks"},
            }
        )
        if blocker.use_meta_blocking:
            stages.append(
                {
                    "stage": "meta_blocking",
                    "params": {
                        "weighting": blocker.weighting_scheme,
                        "pruning": blocker.pruning_strategy,
                        "use_entropy": blocker.use_entropy,
                    },
                    "inputs": {"blocks": "filtered_blocks"},
                }
            )
        else:
            stages.append(
                {"stage": "block_comparisons", "inputs": {"blocks": "filtered_blocks"}}
            )
        matcher = config.matcher
        stages.append(
            {
                "stage": "matching",
                "params": {
                    "mode": matcher.mode,
                    "similarity": matcher.similarity,
                    "threshold": matcher.threshold,
                    "classifier_epochs": matcher.classifier_epochs,
                    "decision_threshold": matcher.decision_threshold,
                },
            }
        )
        clusterer = config.clusterer
        stages.append(
            {
                "stage": "clustering",
                "params": {
                    "algorithm": clusterer.algorithm,
                    "min_score": clusterer.min_score,
                },
            }
        )
        stages.append({"stage": "entity_generation"})
        engine_section: dict[str, object] = {
            "enabled": use_engine,
            "parallelism": config.parallelism,
        }
        if options is not None:
            engine_section.update(options.as_spec())
        if executor is not None:
            engine_section["executor"] = executor
        return {
            "name": "sparker",
            "engine": engine_section,
            "stages": stages,
        }

    def build_pipeline(self) -> Pipeline:
        """The canonical pipeline, wired to this facade's engine context."""
        spec = self.canonical_spec(
            self.config, use_engine=self.engine is not None, options=self.options
        )
        return Pipeline.from_spec(spec, engine=self.engine)

    # ------------------------------------------------------------------ public
    def run(
        self,
        profiles: ProfileCollection,
        ground_truth: GroundTruth | None = None,
    ) -> SparkERResult:
        """Run blocker → matcher → clusterer and return every artefact."""
        pipeline = self.build_pipeline()
        artifacts: dict[str, object] = {}
        # The legacy Blocker only consulted a user partitioning on the
        # loose-schema path; seeding it unconditionally would switch
        # schema-agnostic configs to loose-schema blocking.
        if self.partitioning is not None and self.config.blocker.use_loose_schema:
            artifacts["partitioning"] = self.partitioning
        extras: dict[str, object] = {}
        if self.rules is not None:
            extras["rules"] = self.rules
        if self.labeled_pairs is not None:
            extras["labeled_pairs"] = self.labeled_pairs
        if self.custom_matcher is not None:
            extras["matcher"] = self.custom_matcher
        result = pipeline.run(
            profiles, ground_truth, artifacts=artifacts or None, extras=extras or None
        )
        return self._legacy_result(result)

    def _legacy_result(self, result: PipelineResult) -> SparkERResult:
        """Re-package a pipeline result into the legacy facade shape."""
        store = result.artifacts
        blocker_report = BlockerReport(
            partitioning=store.get("partitioning"),  # type: ignore[arg-type]
            cluster_entropies=store.get("cluster_entropies") or {},  # type: ignore[arg-type]
            raw_blocks=store.get("raw_blocks"),  # type: ignore[arg-type]
            purged_blocks=store.get("purged_blocks"),  # type: ignore[arg-type]
            filtered_blocks=store.get("filtered_blocks"),  # type: ignore[arg-type]
            meta_blocking=store.get("meta_blocking"),  # type: ignore[arg-type]
            candidate_pairs=result.candidate_pairs,
        )
        report = PipelineReport()
        timings = StageTimings()
        for stage in result.report.stages:
            if stage.stage in _BLOCKER_LABELS:
                blocker_report.pipeline_report.add(stage.stage, stage.metrics)
            legacy_name = _LEGACY_STAGE_NAMES.get(stage.stage)
            if legacy_name is not None:
                report.add(legacy_name, stage.metrics)
        for execution in result.executions:
            bucket = _TIMING_BUCKETS.get(execution.label)
            if bucket is not None:
                timings.record(bucket, execution.seconds)
            if bucket == "blocker":
                blocker_report.timings.record(execution.label, execution.seconds)
        return SparkERResult(
            blocker_report=blocker_report,
            candidate_pairs=result.candidate_pairs,
            similarity_graph=store.get("similarity_graph"),  # type: ignore[arg-type]
            clusters=result.clusters,
            entities=result.entities,
            report=report,
            timings=timings,
            engine_metrics=result.engine_metrics,
            pipeline_result=result,
            kernel_backend=result.kernel_backend,
        )

    def __call__(
        self, profiles: ProfileCollection, ground_truth: GroundTruth | None = None
    ) -> SparkERResult:
        return self.run(profiles, ground_truth)

    def shutdown(self) -> None:
        """Release engine resources (worker pools); safe without an engine."""
        if self.engine is not None:
            self.engine.stop()
