"""Tests of the EntityMatcher and EntityClusterer pipeline modules."""

import pytest

from repro.core.config import ClustererConfig, MatcherConfig
from repro.core.entity_clusterer import EntityClusterer
from repro.core.entity_matcher import EntityMatcher
from repro.exceptions import ConfigurationError, MatchingError
from repro.matching.matcher import MatchingRule, ThresholdMatcher
from repro.matching.similarity_graph import SimilarityEdge, SimilarityGraph


def _candidate_pairs(dataset, extra_non_matches: int = 30):
    """Ground-truth pairs plus some cross-source non-matches."""
    pairs = set(dataset.ground_truth.pairs())
    ids0 = [p.profile_id for p in dataset.profiles.by_source(0)]
    ids1 = [p.profile_id for p in dataset.profiles.by_source(1)]
    added = 0
    for a in ids0:
        for b in ids1:
            if (a, b) not in dataset.ground_truth:
                pairs.add((a, b))
                added += 1
                if added >= extra_non_matches:
                    return pairs
    return pairs


class TestEntityMatcher:
    def test_threshold_mode(self, abt_buy_small):
        matcher = EntityMatcher(MatcherConfig(mode="threshold", similarity="jaccard", threshold=0.3))
        graph = matcher.match(abt_buy_small.profiles, sorted(_candidate_pairs(abt_buy_small)))
        truth = abt_buy_small.ground_truth.pairs()
        assert len(graph.pairs() & truth) / len(truth) > 0.8

    def test_rules_mode_requires_rules(self, abt_buy_small):
        matcher = EntityMatcher(MatcherConfig(mode="rules"))
        with pytest.raises(ConfigurationError):
            matcher.build_matcher(abt_buy_small.profiles)

    def test_rules_mode(self, abt_buy_small):
        rules = [MatchingRule("jaccard", 0.3)]
        matcher = EntityMatcher(MatcherConfig(mode="rules"), rules=rules)
        graph = matcher.match(abt_buy_small.profiles, sorted(_candidate_pairs(abt_buy_small)))
        assert len(graph) > 0

    def test_classifier_mode_requires_labels(self, abt_buy_small):
        matcher = EntityMatcher(MatcherConfig(mode="classifier"))
        with pytest.raises(MatchingError):
            matcher.build_matcher(abt_buy_small.profiles)

    def test_classifier_mode(self, abt_buy_small):
        import random

        rng = random.Random(1)
        positives = [(a, b, True) for a, b in abt_buy_small.ground_truth]
        ids0 = [p.profile_id for p in abt_buy_small.profiles.by_source(0)]
        ids1 = [p.profile_id for p in abt_buy_small.profiles.by_source(1)]
        negatives = []
        while len(negatives) < 40:
            a, b = rng.choice(ids0), rng.choice(ids1)
            if (a, b) not in abt_buy_small.ground_truth:
                negatives.append((a, b, False))
        matcher = EntityMatcher(
            MatcherConfig(mode="classifier", classifier_epochs=150),
            labeled_pairs=positives + negatives,
        )
        graph = matcher.match(abt_buy_small.profiles, sorted(_candidate_pairs(abt_buy_small)))
        truth = abt_buy_small.ground_truth.pairs()
        recall = len(graph.pairs() & truth) / len(truth)
        assert recall > 0.7

    def test_custom_matcher_overrides_mode(self, abt_buy_small):
        custom = ThresholdMatcher("jaccard", 0.2)
        matcher = EntityMatcher(MatcherConfig(mode="classifier"), matcher=custom)
        assert matcher.build_matcher(abt_buy_small.profiles) is custom


class TestEntityClusterer:
    def _graph(self) -> SimilarityGraph:
        return SimilarityGraph(
            [
                SimilarityEdge(0, 10, 0.9),
                SimilarityEdge(10, 20, 0.4),
                SimilarityEdge(5, 15, 0.8),
            ]
        )

    def test_connected_components_default(self):
        clusterer = EntityClusterer()
        clusters = clusterer.cluster(self._graph())
        sizes = sorted(c.size for c in clusters)
        assert sizes == [2, 3]

    def test_min_score_filters_edges(self):
        clusterer = EntityClusterer(ClustererConfig(min_score=0.5))
        clusters = clusterer.cluster(self._graph())
        sizes = sorted(c.size for c in clusters)
        assert sizes == [2, 2]

    def test_alternative_algorithm(self):
        clusterer = EntityClusterer(ClustererConfig(algorithm="unique_mapping"))
        clusters = clusterer.cluster(self._graph())
        assert max(c.size for c in clusters) == 2

    def test_generate_entities_merges_attributes(self, abt_buy_small):
        a, b = next(iter(abt_buy_small.ground_truth))
        graph = SimilarityGraph([SimilarityEdge(a, b, 1.0)])
        clusterer = EntityClusterer()
        clusters = clusterer.cluster(graph)
        entities = clusterer.generate_entities(clusters, abt_buy_small.profiles)
        assert len(entities) == 1
        entity = entities[0]
        assert sorted(entity["profiles"]) == sorted([a, b])
        # Attributes of both profiles are merged.
        merged_attributes = set(entity["attributes"])
        assert "name" in merged_attributes
        assert "title" in merged_attributes

    def test_generate_entities_with_singletons(self, abt_buy_small):
        clusterer = EntityClusterer()
        entities = clusterer.generate_entities([], abt_buy_small.profiles, include_singletons=True)
        assert len(entities) == len(abt_buy_small.profiles)
