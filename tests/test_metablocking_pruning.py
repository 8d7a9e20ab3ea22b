"""Tests of the pruning strategies' dict form (what a subclass inherits).

The array form every driver runs for the stock strategies is checked against
the definitions by ``test_metablocking_oracle`` and against this dict form by
``test_metablocking_backends``.
"""

from types import SimpleNamespace

import pytest

from repro.exceptions import MetaBlockingError
from repro.metablocking.pruning import (
    CardinalityEdgePruning,
    CardinalityNodePruning,
    ReciprocalWeightedNodePruning,
    WeightedEdgePruning,
    WeightedNodePruning,
    make_pruning_strategy,
)


def _graph_and_weights():
    """A small weighted graph: star around node 0 plus an isolated pair.

    The first element stands in for the ``IndexStats`` a strategy receives.
    """
    stats = SimpleNamespace(
        blocks_per_profile={0: 4, 1: 3, 2: 2, 3: 2, 4: 5, 5: 5}, num_nodes=6
    )
    weights = {(0, 1): 3.0, (0, 2): 1.0, (0, 3): 1.0, (2, 3): 2.0, (4, 5): 5.0}
    return stats, weights


class TestWeightedEdgePruning:
    def test_keeps_above_average(self):
        graph, weights = _graph_and_weights()
        retained = WeightedEdgePruning().prune(graph, weights)
        mean = sum(weights.values()) / len(weights)
        assert all(w >= mean for w in retained.values())
        assert (4, 5) in retained
        assert (0, 2) not in retained

    def test_empty_weights(self):
        graph, _ = _graph_and_weights()
        assert WeightedEdgePruning().prune(graph, {}) == {}

    def test_uniform_weights_keep_all(self):
        graph, weights = _graph_and_weights()
        uniform = {pair: 1.0 for pair in weights}
        assert WeightedEdgePruning().prune(graph, uniform) == uniform


class TestCardinalityEdgePruning:
    def test_explicit_k(self):
        graph, weights = _graph_and_weights()
        retained = CardinalityEdgePruning(k=2).prune(graph, weights)
        assert len(retained) == 2
        assert (4, 5) in retained
        assert (0, 1) in retained

    def test_default_k_from_block_assignments(self):
        graph, weights = _graph_and_weights()
        retained = CardinalityEdgePruning().prune(graph, weights)
        assert 0 < len(retained) <= len(weights)

    def test_invalid_k(self):
        with pytest.raises(MetaBlockingError):
            CardinalityEdgePruning(k=0)

    def test_deterministic_tie_breaking(self):
        graph, weights = _graph_and_weights()
        first = CardinalityEdgePruning(k=3).prune(graph, weights)
        second = CardinalityEdgePruning(k=3).prune(graph, weights)
        assert first == second


class TestWeightedNodePruning:
    def test_or_semantics_keeps_more_than_reciprocal(self):
        graph, weights = _graph_and_weights()
        wnp = WeightedNodePruning().prune(graph, weights)
        rwnp = ReciprocalWeightedNodePruning().prune(graph, weights)
        assert set(rwnp) <= set(wnp)

    def test_strong_edge_always_kept(self):
        graph, weights = _graph_and_weights()
        retained = WeightedNodePruning().prune(graph, weights)
        assert (0, 1) in retained
        assert (4, 5) in retained

    def test_node_thresholds(self):
        _, weights = _graph_and_weights()
        thresholds = WeightedNodePruning().node_thresholds(weights)
        assert thresholds[0] == (3 + 1 + 1) / 3
        assert thresholds[4] == 5.0

    def test_empty(self):
        graph, _ = _graph_and_weights()
        assert WeightedNodePruning().prune(graph, {}) == {}


class TestCardinalityNodePruning:
    def test_top_k_per_node(self):
        graph, weights = _graph_and_weights()
        retained = CardinalityNodePruning(k=1).prune(graph, weights)
        # Node 0's best edge and the isolated pair must survive.
        assert (0, 1) in retained
        assert (4, 5) in retained

    def test_reciprocal_stricter(self):
        graph, weights = _graph_and_weights()
        or_variant = CardinalityNodePruning(k=1).prune(graph, weights)
        and_variant = CardinalityNodePruning(k=1, reciprocal=True).prune(graph, weights)
        assert set(and_variant) <= set(or_variant)

    def test_invalid_k(self):
        with pytest.raises(MetaBlockingError):
            CardinalityNodePruning(k=-1)


class TestMakePruningStrategy:
    @pytest.mark.parametrize(
        "name,cls",
        [
            ("wep", WeightedEdgePruning),
            ("cep", CardinalityEdgePruning),
            ("wnp", WeightedNodePruning),
            ("rwnp", ReciprocalWeightedNodePruning),
            ("cnp", CardinalityNodePruning),
        ],
    )
    def test_known_names(self, name, cls):
        assert isinstance(make_pruning_strategy(name), cls)

    def test_instance_passthrough(self):
        strategy = WeightedEdgePruning()
        assert make_pruning_strategy(strategy) is strategy

    def test_unknown_name(self):
        with pytest.raises(MetaBlockingError):
            make_pruning_strategy("nope")
