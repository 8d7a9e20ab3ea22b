"""Integration tests that reproduce the qualitative claims of the paper's figures.

Each test mirrors one experiment of EXPERIMENTS.md / the benchmark harness but
on a smaller dataset so the suite stays fast.  The assertions are about the
*shape* of the results (who wins, what decreases), not absolute numbers.
"""

import pytest

from repro.blocking.filtering import BlockFiltering
from repro.blocking.loose_schema_blocking import LooseSchemaTokenBlocking
from repro.blocking.purging import BlockPurging
from repro.blocking.token_blocking import TokenBlocking
from repro.core.blocker import Blocker
from repro.core.config import BlockerConfig, SparkERConfig
from repro.core.debugging import DebugSession
from repro.core.sparker import SparkER
from repro.engine.context import EngineContext
from repro.looseschema.attribute_partitioning import AttributePartitioner
from repro.looseschema.entropy import EntropyExtractor
from repro.metablocking.metablocker import MetaBlocker
from repro.metablocking.parallel import ParallelMetaBlocker


class TestFigure1SchemaAgnosticMetaBlocking:
    """Figure 1: token blocking then CBS/WEP meta-blocking on the toy data."""

    def test_blocking_then_pruning_keeps_true_matches(self, toy_dataset):
        blocks = TokenBlocking(remove_stopwords=True).block(toy_dataset.profiles)
        result = MetaBlocker("cbs", "wep").run(blocks)
        for pair in toy_dataset.ground_truth:
            assert pair in result.candidate_pairs

    def test_pruning_removes_some_comparisons(self, toy_dataset):
        blocks = TokenBlocking(remove_stopwords=True).block(toy_dataset.profiles)
        result = MetaBlocker("cbs", "wep").run(blocks)
        assert result.num_candidates <= result.graph_edges


class TestFigure2LooseSchemaMetaBlocking:
    """Figure 2: loose-schema keys + entropy remove more superfluous edges."""

    def test_entropy_meta_blocking_prunes_more(self, abt_buy_small):
        profiles = abt_buy_small.profiles
        partitioning = AttributePartitioner(threshold=0.1).partition(profiles)
        entropies = EntropyExtractor().extract(profiles, partitioning)

        agnostic_blocks = TokenBlocking().block(profiles)
        loose_blocks = LooseSchemaTokenBlocking(
            partitioning, cluster_entropies=entropies
        ).block(profiles)

        agnostic = MetaBlocker("cbs", "wnp", use_entropy=False).run(agnostic_blocks)
        blast = MetaBlocker("cbs", "wnp", use_entropy=True).run(loose_blocks)

        assert blast.num_candidates < agnostic.num_candidates

        truth = abt_buy_small.ground_truth.pairs()
        blast_recall = len(blast.candidate_pairs & truth) / len(truth)
        assert blast_recall > 0.85


class TestFigure3EndToEnd:
    """Figure 3: blocker → matcher → clusterer produces correct entities."""

    def test_pipeline_quality(self, abt_buy_medium):
        result = SparkER().run(abt_buy_medium.profiles, abt_buy_medium.ground_truth)
        clusterer_metrics = result.execution("clustering").metrics
        assert clusterer_metrics["recall"] > 0.7
        assert clusterer_metrics["precision"] > 0.7

    def test_modules_chained(self, abt_buy_small):
        result = SparkER().run(abt_buy_small.profiles, abt_buy_small.ground_truth)
        assert len(result.matched_pairs) <= len(result.candidate_pairs)
        assert len(result.clusters) <= max(len(result.matched_pairs) * 2, 1)


class TestFigure4BlockerStages:
    """Figure 4: each blocker stage reduces comparisons while keeping recall."""

    def test_monotone_candidate_reduction(self, abt_buy_medium):
        config = BlockerConfig(use_loose_schema=False, use_entropy=False)
        report = Blocker(config).run(abt_buy_medium.profiles, abt_buy_medium.ground_truth)
        rows = {row["stage"]: row for row in report.metric_rows()}
        raw = rows["token_blocking"]["candidate_pairs"]
        purged = rows["block_purging"]["candidate_pairs"]
        filtered = rows["block_filtering"]["candidate_pairs"]
        final = rows["meta_blocking"]["candidate_pairs"]
        assert purged <= raw
        assert filtered <= purged
        assert final < filtered

    def test_recall_stays_high_through_stages(self, abt_buy_medium):
        config = BlockerConfig(use_loose_schema=False, use_entropy=False)
        report = Blocker(config).run(abt_buy_medium.profiles, abt_buy_medium.ground_truth)
        rows = {row["stage"]: row for row in report.metric_rows()}
        assert rows["token_blocking"]["recall"] > 0.95
        assert rows["meta_blocking"]["recall"] > 0.85

    def test_precision_improves_through_stages(self, abt_buy_medium):
        config = BlockerConfig(use_loose_schema=False, use_entropy=False)
        report = Blocker(config).run(abt_buy_medium.profiles, abt_buy_medium.ground_truth)
        rows = {row["stage"]: row for row in report.metric_rows()}
        assert rows["meta_blocking"]["precision"] > rows["token_blocking"]["precision"]


class TestFigure5EntityClustering:
    """Figure 5: graph generation → connected components → entity generation."""

    def test_transitive_entities(self, dirty_persons_small):
        config = SparkERConfig.schema_agnostic()
        config.matcher.threshold = 0.5
        result = SparkER(config).run(
            dirty_persons_small.profiles, dirty_persons_small.ground_truth
        )
        # Some clusters should have size > 2 (duplicate groups), and the
        # resolved pairs must include the transitive closure of the matches.
        assert any(cluster.size > 2 for cluster in result.clusters)
        assert result.resolved_pairs >= result.matched_pairs


class TestFigure6ProcessDebugging:
    """Figure 6: the full debugging storyline on a sample."""

    def test_storyline(self, abt_buy_medium):
        config = SparkERConfig.unsupervised_default()
        config.sampling.num_seeds = 25
        config.sampling.per_seed = 10
        session = DebugSession(
            abt_buy_medium.profiles, abt_buy_medium.ground_truth, config, sample=True
        )
        # (a) threshold = 1.0: blob only.
        step_a = session.try_threshold(1.0)
        assert step_a.partitioning.non_blob_clusters() == {}
        # (b) threshold = 0.3: clusters appear, candidates drop, precision >=.
        step_b = session.try_threshold(0.3)
        assert len(step_b.partitioning.non_blob_clusters()) >= 1
        assert step_b.num_candidate_pairs <= step_a.num_candidate_pairs
        # (e) meta-blocking with entropy: large decrease of candidate pairs.
        step_e = session.try_meta_blocking(threshold=0.3, use_entropy=True)
        assert step_e.num_candidate_pairs < step_b.num_candidate_pairs


class TestScalabilityStructure:
    """The engine-level claim: parallel meta-blocking distributes the work."""

    @pytest.mark.parametrize("partitions", [1, 2, 8])
    def test_same_result_any_parallelism(self, abt_buy_small, partitions):
        blocks = BlockFiltering().filter(
            BlockPurging().purge(
                TokenBlocking().block(abt_buy_small.profiles), len(abt_buy_small.profiles)
            )
        )
        sequential = MetaBlocker("cbs", "wnp").run(blocks)
        parallel = ParallelMetaBlocker(EngineContext(partitions), "cbs", "wnp").run(blocks)
        assert parallel.candidate_pairs == sequential.candidate_pairs

    def test_tasks_scale_with_partitions(self, abt_buy_small):
        blocks = TokenBlocking().block(abt_buy_small.profiles)
        few = EngineContext(2)
        many = EngineContext(8)
        ParallelMetaBlocker(few, "cbs", "wnp").run(blocks)
        ParallelMetaBlocker(many, "cbs", "wnp").run(blocks)
        (few_row,), (many_row,) = few.scheduler.stage_table(), many.scheduler.stage_table()
        assert many_row["tasks"] > few_row["tasks"]
