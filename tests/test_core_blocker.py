"""Tests of the Blocker pipeline module (Figure 4)."""

from repro.core.blocker import Blocker
from repro.core.config import BlockerConfig
from repro.looseschema.attribute_partitioning import AttributePartitioner
from repro.metablocking.parallel import ParallelMetaBlocker


class TestBlockerSchemaAgnostic:
    def test_stages_executed(self, abt_buy_small):
        config = BlockerConfig(use_loose_schema=False, use_entropy=False)
        report = Blocker(config).run(abt_buy_small.profiles, abt_buy_small.ground_truth)
        stages = [execution.label for execution in report.executions]
        assert stages == ["token_blocking", "block_purging", "block_filtering", "meta_blocking"]
        assert report.partitioning is None

    def test_candidate_pairs_decrease_along_pipeline(self, abt_buy_small):
        config = BlockerConfig(use_loose_schema=False, use_entropy=False)
        report = Blocker(config).run(abt_buy_small.profiles, abt_buy_small.ground_truth)
        raw = len(report.raw_blocks.distinct_comparisons())
        filtered = len(report.filtered_blocks.distinct_comparisons())
        final = len(report.candidate_pairs)
        assert final <= filtered <= raw

    def test_no_meta_blocking_mode(self, abt_buy_small):
        config = BlockerConfig(use_loose_schema=False, use_meta_blocking=False)
        report = Blocker(config).run(abt_buy_small.profiles)
        assert report.meta_blocking is None
        assert report.candidate_pairs == report.filtered_blocks.distinct_comparisons()

    def test_works_without_ground_truth(self, abt_buy_small):
        config = BlockerConfig(use_loose_schema=False)
        report = Blocker(config).run(abt_buy_small.profiles)
        assert len(report.candidate_pairs) > 0

    def test_timings_recorded(self, abt_buy_small):
        report = Blocker(BlockerConfig(use_loose_schema=False)).run(abt_buy_small.profiles)
        assert all(execution.seconds >= 0 for execution in report.executions)
        assert [execution.label for execution in report.executions] == [
            "token_blocking",
            "block_purging",
            "block_filtering",
            "meta_blocking",
        ]


class TestBlockerLooseSchema:
    def test_partitioning_and_entropies_reported(self, abt_buy_small):
        config = BlockerConfig(use_loose_schema=True, attribute_threshold=0.1)
        report = Blocker(config).run(abt_buy_small.profiles, abt_buy_small.ground_truth)
        assert report.partitioning is not None
        assert len(report.cluster_entropies) == len(report.partitioning.clusters)
        assert report.executions[0].label == "loose_schema"

    def test_recall_preserved(self, abt_buy_small):
        config = BlockerConfig(use_loose_schema=True, attribute_threshold=0.1)
        report = Blocker(config).run(abt_buy_small.profiles, abt_buy_small.ground_truth)
        truth = abt_buy_small.ground_truth.pairs()
        recall = len(report.candidate_pairs & truth) / len(truth)
        assert recall > 0.85

    def test_user_partitioning_respected(self, abt_buy_small):
        partitioning = AttributePartitioner(threshold=0.1).partition(abt_buy_small.profiles)
        report = Blocker(
            BlockerConfig(use_loose_schema=True), partitioning=partitioning
        ).run(abt_buy_small.profiles)
        assert report.partitioning is partitioning

    def test_engine_backed_run_matches_local(self, abt_buy_small, engine):
        config = BlockerConfig(use_loose_schema=False, pruning_strategy="wnp")
        local = Blocker(config).run(abt_buy_small.profiles)
        distributed = ParallelMetaBlocker(
            engine, config.weighting_scheme, config.pruning_strategy, use_entropy=config.use_entropy
        ).run(local.filtered_blocks)
        assert local.candidate_pairs == distributed.candidate_pairs

    def test_stage_rows(self, abt_buy_small):
        report = Blocker(BlockerConfig()).run(abt_buy_small.profiles, abt_buy_small.ground_truth)
        rows = report.metric_rows()
        assert any(row["stage"] == "meta_blocking" for row in rows)
