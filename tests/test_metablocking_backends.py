"""Unit tests of the kernel backend layer (the vectorised fast paths).

The cross-backend *output* equivalence lives in the grid of
``test_metablocking_equivalence.py`` and the backend selection contract in
``test_options.py``; this module pins the vectorised pruning helpers against
their scalar references on adversarial weight maps (duplicate weights,
zeros, tie-heavy).
"""

from __future__ import annotations

import random

import pytest

from repro.metablocking import backends
from repro.metablocking.backends import numpy_available
from repro.metablocking.index import CSRBlockIndex
from repro.metablocking.pruning import (
    CardinalityEdgePruning,
    CardinalityNodePruning,
    ReciprocalWeightedNodePruning,
    WeightedEdgePruning,
    WeightedNodePruning,
)
from repro.options import EngineOptions

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="numpy backend requires numpy"
)


def _random_weights(seed: int, num_nodes: int = 60, num_edges: int = 400):
    """A weight map with heavy ties: duplicate weights, zeros, dense pairs."""
    rng = random.Random(seed)
    weights: dict[tuple[int, int], float] = {}
    while len(weights) < num_edges:
        a, b = rng.sample(range(num_nodes), 2)
        pair = (a, b) if a < b else (b, a)
        # Few distinct weight values on purpose: the tie-breaks must match.
        weights.setdefault(pair, float(rng.choice([0.0, 1.0, 2.0, 2.0, 3.5])))
    return weights


def _table_from(weights):
    import numpy as np

    pairs = list(weights)
    num_nodes = max(x for p in pairs for x in p) + 1
    return backends.EdgeWeights(
        a=np.asarray([a for a, _b in pairs], dtype=np.int64),
        b=np.asarray([b for _a, b in pairs], dtype=np.int64),
        w=np.asarray(list(weights.values()), dtype=np.float64),
        num_nodes=num_nodes,
        node_ids=np.arange(num_nodes),
    )


def _vectorised(strategy, table):
    """The vectorised tail; explicit-k strategies never read the index."""
    return backends.prune_edge_weights(strategy, table, None)


class _StatsGraph:
    """Just enough of a BlockingGraph for the scalar pruning strategies."""

    def __init__(self, weights, num_nodes):
        nodes = {x for pair in weights for x in pair}
        self.blocks_per_profile = {node: 3 for node in nodes}
        self.num_nodes = num_nodes


@needs_numpy
class TestVectorisedPruningFastPaths:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_wep_matches_scalar(self, seed):
        weights = _random_weights(seed)
        table = _table_from(weights)
        scalar = WeightedEdgePruning().prune(_StatsGraph(weights, 60), weights)
        vectorised = _vectorised(WeightedEdgePruning(), table)
        assert list(vectorised.items()) == list(scalar.items())

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 7, 10_000])
    def test_cep_matches_scalar(self, seed, k):
        weights = _random_weights(seed)
        table = _table_from(weights)
        scalar = CardinalityEdgePruning(k=k).prune(_StatsGraph(weights, 60), weights)
        vectorised = _vectorised(CardinalityEdgePruning(k=k), table)
        # CEP's retained dict is in ranked order in the scalar path; the
        # vectorised path preserves that too.
        assert list(vectorised.items()) == list(scalar.items())

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("required", [1, 2])
    def test_wnp_matches_scalar(self, seed, required):
        weights = _random_weights(seed)
        table = _table_from(weights)
        strategy = (
            ReciprocalWeightedNodePruning() if required == 2 else WeightedNodePruning()
        )
        scalar = strategy.prune(_StatsGraph(weights, 60), weights)
        assert list(_vectorised(strategy, table).items()) == list(scalar.items())

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("required", [1, 2])
    @pytest.mark.parametrize("k", [1, 4])
    def test_cnp_matches_scalar(self, seed, required, k):
        weights = _random_weights(seed)
        table = _table_from(weights)
        strategy = CardinalityNodePruning(k=k, reciprocal=required == 2)
        scalar = strategy.prune(_StatsGraph(weights, 60), weights)
        assert list(_vectorised(strategy, table).items()) == list(scalar.items())

    def test_empty_table_retains_nothing(self):
        table = _table_from({(0, 1): 1.0})
        empty = _table_from({(0, 1): 1.0})
        empty.a = empty.a[:0]
        empty.b = empty.b[:0]
        empty.w = empty.w[:0]
        for strategy in (
            WeightedEdgePruning(),
            CardinalityEdgePruning(k=3),
            WeightedNodePruning(),
            CardinalityNodePruning(k=3),
        ):
            assert _vectorised(strategy, empty) == {}
        # sanity: non-empty stays non-empty
        assert _vectorised(WeightedEdgePruning(), table)

    def test_custom_strategy_falls_back_to_scalar_prune(self):
        class Custom(WeightedNodePruning):
            def prune(self, graph, weights):  # pragma: no cover - marker only
                return {}

        weights = _random_weights(5)
        table = _table_from(weights)
        index = CSRBlockIndex(EngineOptions.resolve(kernel_backend="python"))
        assert not backends.supports_strategy(Custom())
        assert backends.prune_edge_weights(Custom(), table, index) is None

    def test_hook_only_subclass_is_not_vectorised(self):
        # Overriding only the node_thresholds hook (not prune) must still
        # disqualify the fast path: the stock WNP arrays would silently
        # ignore the customised thresholds otherwise.
        from repro.blocking.block import Block, BlockCollection
        from repro.metablocking.metablocker import MetaBlocker

        class InfThresholds(WeightedNodePruning):
            def node_thresholds(self, weights):
                return {node: float("inf") for pair in weights for node in pair}

        assert not backends.supports_strategy(InfThresholds())
        blocks = BlockCollection(clean_clean=False)
        for i in range(12):
            blocks.add(Block(key=f"b{i}", profiles_source0=set(range(i, i + 4))))
        python_run = MetaBlocker(
            "cbs", InfThresholds(), options=EngineOptions.resolve(kernel_backend="python")
        ).run(blocks)
        numpy_run = MetaBlocker(
            "cbs", InfThresholds(), options=EngineOptions.resolve(kernel_backend="numpy")
        ).run(blocks)
        assert python_run.retained_edges == numpy_run.retained_edges == {}

    def test_stock_strategies_are_supported(self):
        assert backends.supports_strategy(WeightedEdgePruning())
        assert backends.supports_strategy(CardinalityEdgePruning())
        assert backends.supports_strategy(WeightedNodePruning())
        assert backends.supports_strategy(ReciprocalWeightedNodePruning())
        assert backends.supports_strategy(CardinalityNodePruning(reciprocal=True))
