"""The Blocker module (Figure 4 of the paper).

Pipeline: (optional) loose-schema generator → token blocking (schema-agnostic
or loose-schema) → block purging → block filtering → meta-blocking → candidate
pairs.  The chain is one list of stage-graph spec entries,
:func:`blocker_stages`; :class:`Blocker` runs that list through
:class:`~repro.pipeline.Pipeline` and :class:`~repro.core.sparker.SparkER`
runs it with matching and clustering appended.  Every intermediate block
collection and stage execution (with its metrics) is kept on the report, so
the process debugging can show how each step changed the number of blocks,
candidate pairs and recall/precision — exactly the quantities of the demo
GUI.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.blocking.block import BlockCollection
from repro.core.config import BlockerConfig
from repro.data.dataset import ProfileCollection
from repro.data.ground_truth import GroundTruth
from repro.looseschema.attribute_partitioning import AttributePartitioning
from repro.metablocking.metablocker import MetaBlockingResult
from repro.pipeline import Pipeline, PipelineResult, StageExecution


def blocker_stages(config: BlockerConfig) -> list[dict[str, object]]:
    """The blocker chain as spec entries: raw → purged → filtered blocks →
    candidate pairs (meta-blocking, or the blocks' own comparisons)."""
    stages: list[dict[str, object]] = []
    if config.use_loose_schema:
        stages.append(
            {"stage": "loose_schema", "params": {"threshold": config.attribute_threshold}}
        )
    stages += [
        {
            "stage": "token_blocking",
            "params": {
                "min_token_length": config.min_token_length,
                "remove_stopwords": config.remove_stopwords,
                "use_entropy": config.use_entropy,
            },
            "outputs": {"blocks": "raw_blocks"},
        },
        {
            "stage": "block_purging",
            "params": {"max_profile_fraction": config.purge_factor},
            "inputs": {"blocks": "raw_blocks"},
            "outputs": {"blocks": "purged_blocks"},
        },
        {
            "stage": "block_filtering",
            "params": {"ratio": config.filter_ratio},
            "inputs": {"blocks": "purged_blocks"},
            "outputs": {"blocks": "filtered_blocks"},
        },
    ]
    if config.use_meta_blocking:
        stages.append(
            {
                "stage": "meta_blocking",
                "params": {
                    "weighting": config.weighting_scheme,
                    "pruning": config.pruning_strategy,
                    "use_entropy": config.use_entropy,
                },
                "inputs": {"blocks": "filtered_blocks"},
            }
        )
    else:
        stages.append({"stage": "block_comparisons", "inputs": {"blocks": "filtered_blocks"}})
    return stages


def blocker_seeds(
    config: BlockerConfig, partitioning: AttributePartitioning | None
) -> dict[str, object]:
    """The artifacts a blocker chain run starts from besides the profiles.

    A user partitioning is seeded only on the loose-schema path: on the
    schema-agnostic one it would switch token blocking to loose-schema keys.
    """
    seeded = partitioning is not None and config.use_loose_schema
    return {"partitioning": partitioning} if seeded else {}


@dataclass
class BlockerReport:
    """Everything the blocker produced, stage by stage."""

    partitioning: AttributePartitioning | None = None
    cluster_entropies: dict[int, float] = field(default_factory=dict)
    raw_blocks: BlockCollection | None = None
    purged_blocks: BlockCollection | None = None
    filtered_blocks: BlockCollection | None = None
    meta_blocking: MetaBlockingResult | None = None
    candidate_pairs: set[tuple[int, int]] = field(default_factory=set)
    executions: list[StageExecution] = field(default_factory=list)

    @classmethod
    def from_result(cls, result: PipelineResult) -> "BlockerReport":
        """The blocker artifacts of a run over :func:`blocker_stages`, and
        the run's stage executions."""
        store = result.artifacts
        return cls(
            partitioning=store.get("partitioning"),  # type: ignore[arg-type]
            cluster_entropies=store.get("cluster_entropies") or {},  # type: ignore[arg-type]
            raw_blocks=store.get("raw_blocks"),  # type: ignore[arg-type]
            purged_blocks=store.get("purged_blocks"),  # type: ignore[arg-type]
            filtered_blocks=store.get("filtered_blocks"),  # type: ignore[arg-type]
            meta_blocking=store.get("meta_blocking"),  # type: ignore[arg-type]
            candidate_pairs=result.candidate_pairs,
            executions=result.executions,
        )

    def metric_rows(self) -> list[dict[str, object]]:
        """Per-stage rows: the label, then what the stage recorded."""
        return [execution.metric_row() for execution in self.executions]


class Blocker:
    """The blocker module: from profiles to candidate pairs.

    Parameters
    ----------
    config:
        Blocking configuration (see :class:`repro.core.config.BlockerConfig`).
    partitioning:
        Optional user-supplied attribute partitioning (supervised mode,
        Figure 6(c)); on the loose-schema path it replaces the automatic one.
    """

    def __init__(
        self,
        config: BlockerConfig | None = None,
        *,
        partitioning: AttributePartitioning | None = None,
    ) -> None:
        self.config = config or BlockerConfig()
        self.config.validate()
        self.user_partitioning = partitioning

    def run(
        self,
        profiles: ProfileCollection,
        ground_truth: GroundTruth | None = None,
    ) -> BlockerReport:
        """Run the blocker chain and return the stage-by-stage report."""
        spec = {"stages": blocker_stages(self.config)}
        result = Pipeline.from_spec(spec).run(
            profiles, ground_truth, artifacts=blocker_seeds(self.config, self.user_partitioning)
        )
        return BlockerReport.from_result(result)

    def __call__(
        self, profiles: ProfileCollection, ground_truth: GroundTruth | None = None
    ) -> BlockerReport:
        return self.run(profiles, ground_truth)
