"""End-to-end tests of the SparkER pipeline (Figure 3)."""

import sys

from repro.core.config import SparkERConfig
from repro.core.sparker import SparkER
from repro.data.synthetic import SyntheticConfig, generate_abt_buy_like
from repro.utils.text import split_words


class TestSparkERUnsupervised:
    def test_end_to_end_defaults(self, abt_buy_small):
        result = SparkER().run(abt_buy_small.profiles, abt_buy_small.ground_truth)
        summary = result.summary()
        assert summary["candidate_pairs"] > 0
        assert summary["matched_pairs"] > 0
        assert summary["clusters"] > 0
        assert summary["entities"] == summary["clusters"]

    def test_quality_on_synthetic(self, abt_buy_small):
        result = SparkER().run(abt_buy_small.profiles, abt_buy_small.ground_truth)
        clusterer_report = result.execution("clustering")
        assert clusterer_report.metrics["recall"] > 0.7
        assert clusterer_report.metrics["precision"] > 0.7

    def test_stage_reports_present(self, abt_buy_small):
        result = SparkER().run(abt_buy_small.profiles, abt_buy_small.ground_truth)
        stages = [e.label for e in result.pipeline_result.executions]
        assert "token_blocking" in stages
        assert "matching" in stages
        assert "clustering" in stages

    def test_without_ground_truth(self, abt_buy_small):
        result = SparkER().run(abt_buy_small.profiles)
        assert result.summary()["clusters"] >= 0

    def test_timings_recorded(self, abt_buy_small):
        result = SparkER().run(abt_buy_small.profiles)
        executions = result.pipeline_result.executions
        assert all(execution.seconds >= 0 for execution in executions)
        assert [execution.label for execution in executions] == [
            "loose_schema",
            "token_blocking",
            "block_purging",
            "block_filtering",
            "meta_blocking",
            "matching",
            "clustering",
            "entity_generation",
        ]

    def test_resolved_pairs_from_clusters(self, abt_buy_small):
        result = SparkER().run(abt_buy_small.profiles, abt_buy_small.ground_truth)
        assert result.resolved_pairs >= result.matched_pairs or len(result.resolved_pairs) >= len(
            result.matched_pairs
        )

    def test_schema_agnostic_config_more_candidates(self, abt_buy_small):
        loose = SparkER(SparkERConfig.unsupervised_default()).run(
            abt_buy_small.profiles, abt_buy_small.ground_truth
        )
        agnostic = SparkER(SparkERConfig.schema_agnostic()).run(
            abt_buy_small.profiles, abt_buy_small.ground_truth
        )
        # BLAST (loose schema + entropy) prunes at least as aggressively as the
        # schema-agnostic configuration.
        assert loose.summary()["candidate_pairs"] <= agnostic.summary()["candidate_pairs"]


class TestSparkERDirty:
    def test_dirty_er_pipeline(self, dirty_persons_small):
        config = SparkERConfig.schema_agnostic()
        config.matcher.threshold = 0.5
        result = SparkER(config).run(
            dirty_persons_small.profiles, dirty_persons_small.ground_truth
        )
        assert result.summary()["clusters"] > 0
        clusterer_metrics = result.execution("clustering").metrics
        assert clusterer_metrics["recall"] > 0.3


class TestTextIsNormalisedOncePerStage:
    """A count guard, not a timing guard: deterministic, so it runs in tier-1."""

    def test_normalisations_per_run(self, monkeypatch):
        # Every normalisation (normalize_text, tokenize) goes through
        # repro.utils.text.split_words; count the strings it sees under every
        # name the package imported it by.
        calls = []

        def counted(text):
            calls.append(text)
            return split_words(text)

        for name, module in list(sys.modules.items()):
            if name.startswith("repro.") and getattr(module, "split_words", None) is split_words:
                monkeypatch.setattr(module, "split_words", counted)

        dataset = generate_abt_buy_like(SyntheticConfig(num_entities=200, seed=21))
        profiles = dataset.profiles
        result = SparkER().run(profiles)

        in_pairs = {profile_id for pair in result.candidate_pairs for profile_id in pair}
        assert len(result.candidate_pairs) > len(in_pairs) > 0
        # The loose schema, blocking and the default (jaccard threshold)
        # matcher read token tables: no string is tokenised on its own.
        assert calls == []
