"""Tests of pair features and the supervised matchers."""

import pytest

np = pytest.importorskip("numpy")  # pair features and classifiers are numpy code

from repro.exceptions import MatchingError
from repro.looseschema.attribute_partitioning import AttributePartitioner
from repro.matching.classifier import LogisticRegressionMatcher, NaiveBayesMatcher
from repro.matching.features import PairFeatureExtractor


def _training_pairs(dataset, num_negative: int = 60):
    """Build labeled pairs: all ground-truth matches + random non-matches."""
    import random

    rng = random.Random(0)
    positives = [(a, b, True) for a, b in dataset.ground_truth]
    ids = dataset.profiles.ids()
    negatives = []
    truth = dataset.ground_truth
    while len(negatives) < num_negative:
        a, b = rng.sample(ids, 2)
        if (a, b) not in truth and dataset.profiles[a].source_id != dataset.profiles[b].source_id:
            negatives.append((a, b, False))
    return positives + negatives


class TestPairFeatureExtractor:
    def test_feature_vector_length(self, abt_buy_small):
        extractor = PairFeatureExtractor(["jaccard", "cosine"])
        a, b = next(iter(abt_buy_small.ground_truth))
        features = extractor.features(abt_buy_small.profiles[a], abt_buy_small.profiles[b])
        assert features.shape == (2,)
        assert list(extractor.feature_names()) == ["profile_jaccard", "profile_cosine"]

    def test_cluster_features_added(self, abt_buy_small):
        partitioning = AttributePartitioner(threshold=0.1).partition(abt_buy_small.profiles)
        extractor = PairFeatureExtractor(["jaccard"], partitioning=partitioning)
        a, b = next(iter(abt_buy_small.ground_truth))
        features = extractor.features(abt_buy_small.profiles[a], abt_buy_small.profiles[b])
        expected = 1 + len(partitioning.non_blob_clusters())
        assert features.shape == (expected,)
        assert len(extractor.feature_names()) == expected

    def test_feature_matrix_shape(self, abt_buy_small):
        extractor = PairFeatureExtractor(["jaccard", "levenshtein"])
        pairs = list(abt_buy_small.ground_truth.pairs())[:5]
        matrix = extractor.feature_matrix(abt_buy_small.profiles, pairs)
        assert matrix.shape == (5, 2)

    def test_empty_pairs(self, abt_buy_small):
        extractor = PairFeatureExtractor(["jaccard"])
        assert extractor.feature_matrix(abt_buy_small.profiles, []).shape == (0, 1)

    def test_matching_pairs_score_higher(self, abt_buy_small):
        extractor = PairFeatureExtractor(["jaccard"])
        matches = list(abt_buy_small.ground_truth.pairs())[:10]
        ids0 = [p.profile_id for p in abt_buy_small.profiles.by_source(0)]
        ids1 = [p.profile_id for p in abt_buy_small.profiles.by_source(1)]
        non_matches = [
            (a, b)
            for a in ids0[:5]
            for b in ids1[:5]
            if (a, b) not in abt_buy_small.ground_truth
        ][:10]
        match_scores = extractor.feature_matrix(abt_buy_small.profiles, matches).mean()
        non_match_scores = extractor.feature_matrix(abt_buy_small.profiles, non_matches).mean()
        assert match_scores > non_match_scores


class TestLogisticRegressionMatcher:
    def test_untrained_raises(self, abt_buy_small):
        matcher = LogisticRegressionMatcher()
        a, b = next(iter(abt_buy_small.ground_truth))
        with pytest.raises(MatchingError):
            matcher.score(abt_buy_small.profiles[a], abt_buy_small.profiles[b])

    def test_empty_training_raises(self, abt_buy_small):
        with pytest.raises(MatchingError):
            LogisticRegressionMatcher().fit(abt_buy_small.profiles, [])

    def test_single_class_raises(self, abt_buy_small):
        pairs = [(a, b, True) for a, b in list(abt_buy_small.ground_truth)[:5]]
        with pytest.raises(MatchingError):
            LogisticRegressionMatcher().fit(abt_buy_small.profiles, pairs)

    def test_learns_to_separate(self, abt_buy_small):
        labeled = _training_pairs(abt_buy_small)
        matcher = LogisticRegressionMatcher(epochs=200).fit(abt_buy_small.profiles, labeled)
        assert matcher.is_trained
        correct = 0
        for a, b, label in labeled:
            predicted = matcher.is_match(abt_buy_small.profiles[a], abt_buy_small.profiles[b])
            correct += predicted == label
        assert correct / len(labeled) > 0.85

    def test_probability_in_unit_interval(self, abt_buy_small):
        labeled = _training_pairs(abt_buy_small)
        matcher = LogisticRegressionMatcher(epochs=50).fit(abt_buy_small.profiles, labeled)
        a, b = next(iter(abt_buy_small.ground_truth))
        proba = matcher.predict_proba(abt_buy_small.profiles[a], abt_buy_small.profiles[b])
        assert 0.0 <= proba <= 1.0


class TestNaiveBayesMatcher:
    def test_untrained_raises(self, abt_buy_small):
        a, b = next(iter(abt_buy_small.ground_truth))
        with pytest.raises(MatchingError):
            NaiveBayesMatcher().score(abt_buy_small.profiles[a], abt_buy_small.profiles[b])

    def test_learns_to_separate(self, abt_buy_small):
        labeled = _training_pairs(abt_buy_small)
        matcher = NaiveBayesMatcher().fit(abt_buy_small.profiles, labeled)
        assert matcher.is_trained
        correct = 0
        for a, b, label in labeled:
            predicted = matcher.is_match(abt_buy_small.profiles[a], abt_buy_small.profiles[b])
            correct += predicted == label
        assert correct / len(labeled) > 0.8

    def test_probability_finite(self, abt_buy_small):
        labeled = _training_pairs(abt_buy_small)
        matcher = NaiveBayesMatcher().fit(abt_buy_small.profiles, labeled)
        a, b = next(iter(abt_buy_small.ground_truth))
        proba = matcher.predict_proba(abt_buy_small.profiles[a], abt_buy_small.profiles[b])
        assert np.isfinite(proba)
        assert 0.0 <= proba <= 1.0
