"""Tests of the process-debugging session (Section 3 / Figure 6)."""

from repro.blocking.block import Block
from repro.core.config import SparkERConfig
from repro.core.debugging import DebugSession


class TestDebugSessionWorkflow:
    def _session(self, dataset, sample: bool = False) -> DebugSession:
        config = SparkERConfig.unsupervised_default()
        config.sampling.num_seeds = 15
        config.sampling.per_seed = 8
        return DebugSession(dataset.profiles, dataset.ground_truth, config, sample=sample)

    def test_threshold_one_single_blob(self, abt_buy_small):
        # Figure 6(a): threshold = 1 → schema-agnostic, every attribute in the blob.
        session = self._session(abt_buy_small)
        step = session.try_threshold(1.0)
        assert step.partitioning.non_blob_clusters() == {}
        assert step.recall > 0.9

    def test_lower_threshold_clusters_and_fewer_candidates(self, abt_buy_small):
        # Figure 6(b): threshold = 0.3 → clusters appear; candidate pairs drop,
        # precision does not decrease.
        session = self._session(abt_buy_small)
        blob_step = session.try_threshold(1.0)
        clustered_step = session.try_threshold(0.3)
        assert len(clustered_step.partitioning.non_blob_clusters()) >= 1
        assert clustered_step.num_candidate_pairs <= blob_step.num_candidate_pairs
        assert clustered_step.precision >= blob_step.precision

    def test_manual_partitioning_can_lose_pairs(self, abt_buy_small):
        # Figure 6(c): manually splitting name from description loses pairs.
        session = self._session(abt_buy_small)
        automatic = session.try_threshold(0.3)
        manual = session.current_partitioning(0.3)
        # Split every attribute into its own cluster — an extreme version of
        # the demo's manual edit.
        next_cluster = max(manual.clusters) + 1
        for source, attribute in sorted(set().union(*manual.clusters.values())):
            manual.move_attribute(attribute, source, next_cluster)
            next_cluster += 1
        manual_step = session.try_partitioning(manual)
        assert len(manual_step.lost_pairs) >= len(automatic.lost_pairs)

    def test_lost_pair_explanations(self, abt_buy_small):
        # Figure 6(d): lost pairs are explained with profiles + shared keys.
        session = self._session(abt_buy_small)
        manual = session.current_partitioning(0.3)
        next_cluster = max(manual.clusters) + 1
        for source, attribute in sorted(set().union(*manual.clusters.values())):
            manual.move_attribute(attribute, source, next_cluster)
            next_cluster += 1
        step = session.try_partitioning(manual)
        explanations = session.explain_lost_pairs(step, limit=3)
        assert len(explanations) <= 3
        for explanation in explanations:
            assert explanation.pair in step.lost_pairs
            assert explanation.left_attributes
            assert "lost pair" in explanation.render()

    def test_lost_pair_explanations_read_the_raw_columns(self, abt_buy_small, monkeypatch):
        # Hard purging and filtering lose pairs that shared raw blocks.
        config = SparkERConfig.unsupervised_default()
        config.blocker.purge_factor, config.blocker.filter_ratio = 0.05, 0.3
        config.blocker.pruning_strategy = "cep"
        session = DebugSession(abt_buy_small.profiles, abt_buy_small.ground_truth, config, sample=False)
        step = session.try_threshold(0.3)
        raw_blocks = step.blocker_report.raw_blocks
        assert step.lost_pairs and len(raw_blocks)
        # What the keys mean: every raw block holding both ends of the pair.
        expected = {
            pair: sorted(
                block.key for block in raw_blocks if block.contains(pair[0]) and block.contains(pair[1])
            )
            for pair in step.lost_pairs
        }
        assert any(expected.values())
        built = []
        original = Block.__init__

        def spy(self, *args, **kwargs):
            built.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(Block, "__init__", spy)
        explanations = session.explain_lost_pairs(step)
        assert built == []
        assert {e.pair: e.shared_keys_before for e in explanations} == expected

    def test_meta_blocking_with_entropy_reduces_candidates(self, abt_buy_small):
        # Figure 6(e): meta-blocking + entropy gives a large decrease in
        # candidate pairs w.r.t. the blocking of 6(b).
        session = self._session(abt_buy_small)
        blocking_only = session.try_threshold(0.3, use_meta_blocking=False)
        with_meta = session.try_meta_blocking(threshold=0.3, use_entropy=True)
        assert with_meta.num_candidate_pairs < blocking_only.num_candidate_pairs

    def test_schema_agnostic_step(self, abt_buy_small):
        session = self._session(abt_buy_small)
        step = session.try_schema_agnostic()
        assert step.label == "schema-agnostic"
        assert step.num_candidate_pairs > 0

    def test_history_recorded(self, abt_buy_small):
        session = self._session(abt_buy_small)
        session.try_threshold(1.0)
        session.try_threshold(0.3)
        assert len(session.history) == 2
        table = session.history_table()
        assert "threshold=1.0" in table
        assert "threshold=0.3" in table

    def test_sampling_reduces_work(self, abt_buy_medium):
        session = DebugSession(
            abt_buy_medium.profiles, abt_buy_medium.ground_truth, sample=True
        )
        assert len(session.sample.profiles) < len(abt_buy_medium.profiles)
        assert len(session.sample.ground_truth) > 0

    def test_apply_to_full_dataset(self, abt_buy_small):
        session = self._session(abt_buy_small)
        session.try_threshold(0.3)
        result = session.apply_to_full_dataset(threshold=0.3, use_entropy=True)
        assert result.summary()["clusters"] > 0
        clusterer_metrics = result.execution("clustering").metrics
        assert clusterer_metrics["f1"] > 0.6
