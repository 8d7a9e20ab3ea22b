"""Integration tests of the supervised mode: labeled pairs + custom partitioning.

The demo's supervised mode lets the user (i) inject knowledge into the
attribute partitioning and (ii) train the matcher on labeled pairs.  These
tests exercise the two together through the public API.
"""

import random

import pytest

from repro.core.config import SparkERConfig
from repro.core.sparker import SparkER
from repro.looseschema.attribute_partitioning import AttributePartitioner
from repro.matching.matcher import MatchingRule


def _labeled_pairs(dataset, num_negative=50, seed=2):
    rng = random.Random(seed)
    positives = [(a, b, True) for a, b in dataset.ground_truth]
    ids0 = [p.profile_id for p in dataset.profiles.by_source(0)]
    ids1 = [p.profile_id for p in dataset.profiles.by_source(1)]
    negatives = []
    while len(negatives) < num_negative:
        a, b = rng.choice(ids0), rng.choice(ids1)
        if (a, b) not in dataset.ground_truth:
            negatives.append((a, b, False))
    return positives + negatives


@pytest.fixture(scope="module")
def supervised_result(abt_buy_small):
    """One trained-classifier run, shared by the tests that read it."""
    config = SparkERConfig.unsupervised_default()
    config.matcher.mode = "classifier"
    config.matcher.classifier_epochs = 150
    pipeline = SparkER(config, labeled_pairs=_labeled_pairs(abt_buy_small))
    return pipeline.run(abt_buy_small.profiles, abt_buy_small.ground_truth)


class TestSupervisedPipeline:
    def test_classifier_matcher_end_to_end(self, supervised_result):
        metrics = supervised_result.execution("clustering").metrics
        assert metrics["f1"] > 0.7

    def test_user_partitioning_end_to_end(self, abt_buy_small):
        partitioning = AttributePartitioner(threshold=0.1).partition(abt_buy_small.profiles)
        config = SparkERConfig.unsupervised_default()
        pipeline = SparkER(config, partitioning=partitioning)
        result = pipeline.run(abt_buy_small.profiles, abt_buy_small.ground_truth)
        assert result.blocker_report.partitioning is partitioning
        assert result.execution("clustering").metrics["recall"] > 0.6

    def test_rule_matcher_end_to_end(self, abt_buy_small):
        config = SparkERConfig.unsupervised_default()
        config.matcher.mode = "rules"
        rules = [MatchingRule("jaccard", 0.3)]
        pipeline = SparkER(config, rules=rules)
        result = pipeline.run(abt_buy_small.profiles, abt_buy_small.ground_truth)
        assert result.summary()["matched_pairs"] > 0

    def test_supervised_beats_bad_unsupervised_threshold(self, abt_buy_small, supervised_result):
        # A deliberately bad unsupervised threshold loses recall; the trained
        # classifier recovers it — the value proposition of the supervised mode.
        bad = SparkERConfig.unsupervised_default()
        bad.matcher.threshold = 0.9
        bad_result = SparkER(bad).run(abt_buy_small.profiles, abt_buy_small.ground_truth)

        bad_recall = bad_result.execution("clustering").metrics["recall"]
        supervised_recall = supervised_result.execution("clustering").metrics["recall"]
        assert supervised_recall > bad_recall

    def test_config_persistence_roundtrip(self, abt_buy_small, tmp_path):
        # The demo stores the tuned configuration and re-applies it in batch
        # mode; here: serialise to JSON, reload, rerun, same candidate count.
        import json

        config = SparkERConfig.unsupervised_default()
        config.blocker.attribute_threshold = 0.25
        first = SparkER(config).run(abt_buy_small.profiles, abt_buy_small.ground_truth)

        path = tmp_path / "config.json"
        path.write_text(json.dumps(config.as_dict()))
        reloaded = SparkERConfig.from_dict(json.loads(path.read_text()))
        second = SparkER(reloaded).run(abt_buy_small.profiles, abt_buy_small.ground_truth)

        assert first.summary()["candidate_pairs"] == second.summary()["candidate_pairs"]


class TestConfigurationErrors:
    def test_classifier_without_labels_fails_cleanly(self, abt_buy_small):
        from repro.exceptions import MatchingError

        config = SparkERConfig.unsupervised_default()
        config.matcher.mode = "classifier"
        with pytest.raises(MatchingError):
            SparkER(config).run(abt_buy_small.profiles)

    def test_rules_without_rules_fails_cleanly(self, abt_buy_small):
        from repro.exceptions import ConfigurationError

        config = SparkERConfig.unsupervised_default()
        config.matcher.mode = "rules"
        with pytest.raises(ConfigurationError):
            SparkER(config).run(abt_buy_small.profiles)
