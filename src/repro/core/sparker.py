"""The end-to-end SparkER entry point (Figure 3 of the paper).

``profiles → Blocker → candidate pairs → Entity Matcher → matching pairs →
Entity Clusterer → output entities``.  :class:`SparkER` builds the canonical
stage-graph spec (:meth:`SparkER.canonical_spec`: the blocker chain of
:func:`~repro.core.blocker.blocker_stages` plus matching, clustering and
entity generation), runs it as a :class:`repro.pipeline.Pipeline` and hands
back the run's stage executions (params, seconds and metrics, keyed by stage
label) beside its artifacts.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.clustering.base import EntityCluster, clusters_to_pairs
from repro.core.blocker import BlockerReport, blocker_seeds, blocker_stages
from repro.core.config import SparkERConfig
from repro.data.dataset import ProfileCollection
from repro.data.ground_truth import GroundTruth
from repro.looseschema.attribute_partitioning import AttributePartitioning
from repro.matching.matcher import Matcher, MatchingRule
from repro.matching.similarity_graph import SimilarityGraph
from repro.pipeline import Pipeline, PipelineResult, StageExecution


@dataclass
class SparkERResult:
    """All outputs of one end-to-end run."""

    blocker_report: BlockerReport
    candidate_pairs: set[tuple[int, int]]
    similarity_graph: SimilarityGraph
    clusters: list[EntityCluster]
    entities: list[dict[str, object]]
    pipeline_result: PipelineResult

    def execution(self, label: str) -> StageExecution | None:
        """The execution record of the stage labelled ``label`` (or None)."""
        return self.pipeline_result.execution(label)

    @property
    def matched_pairs(self) -> set[tuple[int, int]]:
        """The pairs the matcher labeled as matches."""
        return self.similarity_graph.pairs()

    @property
    def resolved_pairs(self) -> set[tuple[int, int]]:
        """The pairs asserted by the final clusters (after transitive closure)."""
        return clusters_to_pairs(self.clusters)

    def summary(self) -> dict[str, object]:
        """Headline numbers of the run."""
        return {
            "candidate_pairs": len(self.candidate_pairs),
            "matched_pairs": len(self.matched_pairs),
            "clusters": len(self.clusters),
            "entities": len(self.entities),
        }


class SparkER:
    """The full entity-resolution pipeline.

    Parameters
    ----------
    config:
        The pipeline configuration (defaults to the unsupervised defaults).
    partitioning:
        Optional user-supplied attribute partitioning (supervised mode).
    rules / labeled_pairs / matcher:
        Forwarded to the matching stage through the pipeline extras.
    """

    def __init__(
        self,
        config: SparkERConfig | None = None,
        *,
        partitioning: AttributePartitioning | None = None,
        rules: Sequence[MatchingRule] | None = None,
        labeled_pairs: Sequence[tuple[int, int, bool]] | None = None,
        matcher: Matcher | None = None,
    ) -> None:
        self.config = config or SparkERConfig.unsupervised_default()
        self.config.validate()
        self.partitioning = partitioning
        self.extras = {
            key: value
            for key, value in (("rules", rules), ("labeled_pairs", labeled_pairs), ("matcher", matcher))
            if value is not None
        }

    # -------------------------------------------------------------- the spec
    @classmethod
    def canonical_spec(cls, config: SparkERConfig | None = None) -> dict[str, object]:
        """The declarative stage-graph spec :meth:`run` executes.

        ``Pipeline.from_spec(SparkER.canonical_spec(config))`` reproduces
        ``SparkER(config).run(...)`` bit for bit.  The spec is plain data
        (JSON-serialisable), so it can be persisted, diffed and edited.
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
        return {"name": "sparker", "stages": stages}

    def build_pipeline(self) -> Pipeline:
        """The canonical pipeline of this instance's configuration."""
        return Pipeline.from_spec(self.canonical_spec(self.config))

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
            pipeline_result=result,
        )

    def __call__(
        self, profiles: ProfileCollection, ground_truth: GroundTruth | None = None
    ) -> SparkERResult:
        return self.run(profiles, ground_truth)
