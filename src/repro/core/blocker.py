"""The Blocker module (Figure 4 of the paper).

Pipeline: (optional) loose-schema generator → token blocking (schema-agnostic
or loose-schema) → block purging → block filtering → meta-blocking → candidate
pairs.  Every intermediate stage is kept on the report so the process
debugging can show how each step changed the number of blocks, candidate pairs
and recall/precision — exactly the quantities of the demo GUI.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.blocking.block import BlockCollection
from repro.blocking.filtering import BlockFiltering
from repro.blocking.loose_schema_blocking import LooseSchemaTokenBlocking
from repro.blocking.purging import BlockPurging
from repro.blocking.stats import block_stage_metrics, candidate_pair_stats
from repro.blocking.token_blocking import TokenBlocking
from repro.core.config import BlockerConfig
from repro.data.dataset import ProfileCollection
from repro.data.ground_truth import GroundTruth
from repro.engine.context import EngineContext
from repro.evaluation.report import PipelineReport
from repro.looseschema.attribute_partitioning import (
    AttributePartitioner,
    AttributePartitioning,
    loose_schema_metrics,
)
from repro.looseschema.entropy import EntropyExtractor
from repro.looseschema.lsh import build_attribute_profiles
from repro.metablocking.metablocker import MetaBlockingResult
from repro.metablocking.parallel import make_meta_blocker
from repro.utils.timers import StageTimings


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
    pipeline_report: PipelineReport = field(default_factory=PipelineReport)
    timings: StageTimings = field(default_factory=StageTimings)

    def stage_rows(self) -> list[dict[str, object]]:
        """Rows of the per-stage metric table (for reports and benchmarks)."""
        return self.pipeline_report.as_rows()


class Blocker:
    """The blocker module: from profiles to candidate pairs.

    Parameters
    ----------
    config:
        Blocking configuration (see :class:`repro.core.config.BlockerConfig`).
    engine:
        Optional engine context; when given, meta-blocking runs on its range
        pool.
    partitioning:
        Optional user-supplied attribute partitioning (supervised mode,
        Figure 6(c)); when given it overrides the automatic partitioner.
    """

    def __init__(
        self,
        config: BlockerConfig | None = None,
        *,
        engine: EngineContext | None = None,
        partitioning: AttributePartitioning | None = None,
    ) -> None:
        self.config = config or BlockerConfig()
        self.config.validate()
        self.engine = engine
        self.user_partitioning = partitioning

    # ------------------------------------------------------------------ public
    def run(
        self,
        profiles: ProfileCollection,
        ground_truth: GroundTruth | None = None,
    ) -> BlockerReport:
        """Run the full blocking pipeline and return the stage-by-stage report."""
        report = BlockerReport()
        max_comparisons = profiles.max_comparisons()

        # -- loose schema generation ------------------------------------------
        blocking_strategy = self._build_blocking_strategy(profiles, report)

        # -- token blocking ----------------------------------------------------
        with report.timings.time("blocking"):
            report.raw_blocks = blocking_strategy.block(profiles)
        self._record_block_stage(
            report, "token_blocking", report.raw_blocks, ground_truth, max_comparisons
        )

        # -- block purging -----------------------------------------------------
        with report.timings.time("purging"):
            purging = BlockPurging(max_profile_fraction=self.config.purge_factor)
            report.purged_blocks = purging.purge(report.raw_blocks, len(profiles))
        self._record_block_stage(
            report, "block_purging", report.purged_blocks, ground_truth, max_comparisons
        )

        # -- block filtering ---------------------------------------------------
        with report.timings.time("filtering"):
            filtering = BlockFiltering(ratio=self.config.filter_ratio)
            report.filtered_blocks = filtering.filter(report.purged_blocks)
        self._record_block_stage(
            report, "block_filtering", report.filtered_blocks, ground_truth, max_comparisons
        )

        # -- meta-blocking -----------------------------------------------------
        if self.config.use_meta_blocking:
            with report.timings.time("meta_blocking"):
                meta_blocker = self._build_meta_blocker()
                report.meta_blocking = meta_blocker.run(report.filtered_blocks)
                report.candidate_pairs = report.meta_blocking.candidate_pairs
            metrics: dict[str, object] = dict(report.meta_blocking.as_dict())
            if ground_truth is not None:
                metrics.update(
                    candidate_pair_stats(
                        report.candidate_pairs, ground_truth, max_comparisons=max_comparisons
                    )
                )
            report.pipeline_report.add("meta_blocking", metrics)
        else:
            report.candidate_pairs = report.filtered_blocks.distinct_comparisons()

        return report

    def __call__(
        self, profiles: ProfileCollection, ground_truth: GroundTruth | None = None
    ) -> BlockerReport:
        return self.run(profiles, ground_truth)

    # -------------------------------------------------------------- internals
    def _build_blocking_strategy(
        self, profiles: ProfileCollection, report: BlockerReport
    ):
        if not self.config.use_loose_schema:
            return TokenBlocking(
                min_token_length=self.config.min_token_length,
                remove_stopwords=self.config.remove_stopwords,
            )

        with report.timings.time("attribute_partitioning"):
            attribute_profiles = build_attribute_profiles(profiles)
            if self.user_partitioning is not None:
                partitioning = self.user_partitioning
            else:
                partitioner = AttributePartitioner(
                    threshold=self.config.attribute_threshold
                )
                partitioning = partitioner.partition_from_attribute_profiles(
                    attribute_profiles
                )
        report.partitioning = partitioning

        with report.timings.time("entropy_extraction"):
            entropies = EntropyExtractor().extract_from_attribute_profiles(
                attribute_profiles, partitioning
            )
        report.cluster_entropies = entropies
        report.pipeline_report.add(
            "loose_schema", loose_schema_metrics(partitioning, entropies)
        )

        return LooseSchemaTokenBlocking(
            partitioning,
            cluster_entropies=entropies if self.config.use_entropy else None,
            min_token_length=self.config.min_token_length,
            remove_stopwords=self.config.remove_stopwords,
        )

    def _build_meta_blocker(self):
        return make_meta_blocker(
            self.engine,
            weighting=self.config.weighting_scheme,
            pruning=self.config.pruning_strategy,
            use_entropy=self.config.use_entropy,
        )

    @staticmethod
    def _record_block_stage(
        report: BlockerReport,
        stage: str,
        blocks: BlockCollection,
        ground_truth: GroundTruth | None,
        max_comparisons: int,
    ) -> None:
        report.pipeline_report.add(
            stage,
            block_stage_metrics(blocks, ground_truth, max_comparisons=max_comparisons),
        )
