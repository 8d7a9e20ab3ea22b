"""The end-to-end SparkER entry point (Figure 3 of the paper).

``profiles → Blocker → candidate pairs → Entity Matcher → matching pairs →
Entity Clusterer → output entities``.  :class:`SparkER` builds the canonical
stage-graph spec (:meth:`SparkER.canonical_spec`: the blocker chain of
:func:`~repro.core.blocker.blocker_stages` plus matching, clustering and
entity generation), runs it as a :class:`repro.pipeline.Pipeline` and hands
back the pipeline's own report and timings, keyed by stage label, beside the
artifacts of the run.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.clustering.base import EntityCluster, clusters_to_pairs
from repro.core.blocker import BlockerReport, blocker_seeds, blocker_stages
from repro.core.config import SparkERConfig
from repro.data.dataset import ProfileCollection
from repro.data.ground_truth import GroundTruth
from repro.engine.context import EngineContext
from repro.evaluation.report import PipelineReport
from repro.looseschema.attribute_partitioning import AttributePartitioning
from repro.matching.matcher import Matcher, MatchingRule
from repro.matching.similarity_graph import SimilarityGraph
from repro.options import resolve_executor
from repro.pipeline import Pipeline, PipelineResult
from repro.utils.timers import StageTimings


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
        if self.engine_metrics:
            summary["engine"] = dict(self.engine_metrics)
        return summary


class SparkER:
    """The full entity-resolution pipeline.

    Parameters
    ----------
    config:
        The pipeline configuration (defaults to the unsupervised defaults).
    use_engine:
        When True an :class:`EngineContext` is created with
        ``config.parallelism`` ranges and meta-blocking runs on its range
        pool; everything else runs on the driver either way.
    executor:
        The ``executor`` engine option (``"serial"``, ``"process"``,
        ``"process:4"``); only meaningful with ``use_engine=True``.  Not
        given, it resolves from ``REPRO_ENGINE_EXECUTOR`` and the default,
        once, here.
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
        executor: str | None = None,
        partitioning: AttributePartitioning | None = None,
        rules: Sequence[MatchingRule] | None = None,
        labeled_pairs: Sequence[tuple[int, int, bool]] | None = None,
        matcher: Matcher | None = None,
    ) -> None:
        self.config = config or SparkERConfig.unsupervised_default()
        self.config.validate()
        self.executor = resolve_executor(executor)
        self.engine = (
            EngineContext(self.config.parallelism, self.executor) if use_engine else None
        )
        self.partitioning = partitioning
        self.extras = {
            key: value
            for key, value in (("rules", rules), ("labeled_pairs", labeled_pairs), ("matcher", matcher))
            if value is not None
        }

    # -------------------------------------------------------------- the spec
    @classmethod
    def canonical_spec(
        cls,
        config: SparkERConfig | None = None,
        *,
        use_engine: bool = False,
        executor: str | None = None,
    ) -> dict[str, object]:
        """The declarative stage-graph spec :meth:`run` executes.

        ``Pipeline.from_spec(SparkER.canonical_spec(config))`` reproduces
        ``SparkER(config).run(...)`` bit for bit.  The spec is plain data
        (JSON-serialisable), so it can be persisted, diffed and edited.
        ``executor`` is recorded in its engine section; without it the
        section leaves the executor to whoever loads the spec.
        """
        config = config or SparkERConfig.unsupervised_default()
        config.validate()
        matcher, clusterer = config.matcher, config.clusterer
        stages = blocker_stages(config.blocker) + [
            {
                "stage": "matching",
                "params": {
                    "mode": matcher.mode,
                    "similarity": matcher.similarity,
                    "threshold": matcher.threshold,
                    "classifier_epochs": matcher.classifier_epochs,
                    "decision_threshold": matcher.decision_threshold,
                },
            },
            {
                "stage": "clustering",
                "params": {"algorithm": clusterer.algorithm, "min_score": clusterer.min_score},
            },
            {"stage": "entity_generation"},
        ]
        engine: dict[str, object] = {"enabled": use_engine, "parallelism": config.parallelism}
        if executor is not None:
            engine["executor"] = executor
        return {"name": "sparker", "engine": engine, "stages": stages}

    def build_pipeline(self) -> Pipeline:
        """The canonical pipeline, wired to this instance's engine context."""
        spec = self.canonical_spec(
            self.config, use_engine=self.engine is not None, executor=self.executor
        )
        return Pipeline.from_spec(spec, engine=self.engine)

    # ------------------------------------------------------------------ public
    def run(
        self,
        profiles: ProfileCollection,
        ground_truth: GroundTruth | None = None,
    ) -> SparkERResult:
        """Run blocker → matcher → clusterer and return every artefact."""
        result = self.build_pipeline().run(
            profiles,
            ground_truth,
            artifacts=blocker_seeds(self.config.blocker, self.partitioning),
            extras=self.extras,
        )
        return SparkERResult(
            blocker_report=BlockerReport.from_result(result),
            candidate_pairs=result.candidate_pairs,
            similarity_graph=result.similarity_graph,
            clusters=result.clusters,
            entities=result.entities,
            report=result.report,
            timings=result.timings,
            engine_metrics=result.engine_metrics,
            pipeline_result=result,
        )

    def __call__(
        self, profiles: ProfileCollection, ground_truth: GroundTruth | None = None
    ) -> SparkERResult:
        return self.run(profiles, ground_truth)

    def shutdown(self) -> None:
        """Release engine resources (worker pools); safe without an engine."""
        if self.engine is not None:
            self.engine.stop()
