"""Unit tests of the kernel's retention tail.

The definitions are checked by ``test_metablocking_oracle``; this module
pins the array pruning rules against the strategies' dict form — what a
subclass inherits — on adversarial weight maps (duplicate weights, zeros,
tie-heavy), and the dispatch that hands custom strategies their own
``prune``.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.blocking.block import Block, BlockCollection
from repro.engine.context import EngineContext
from repro.metablocking import backends
from repro.metablocking.index import CSRBlockIndex, IncrementalBlockIndex
from repro.metablocking.metablocker import MetaBlocker
from repro.metablocking.parallel import ParallelMetaBlocker
from repro.metablocking.pruning import (
    CardinalityEdgePruning,
    CardinalityNodePruning,
    IndexStats,
    ReciprocalWeightedNodePruning,
    WeightedEdgePruning,
    WeightedNodePruning,
)
from repro.service.delta import DeltaMetaBlocker

from tests.test_metablocking_incremental import _random_profiles


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
    """Just enough of an IndexStats for the dict-form pruning strategies."""

    def __init__(self, weights, num_nodes):
        nodes = {x for pair in weights for x in pair}
        self.blocks_per_profile = {node: 3 for node in nodes}
        self.num_nodes = num_nodes


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
        assert not backends.supports_strategy(Custom())
        assert backends.prune_edge_weights(Custom(), table, CSRBlockIndex()) is None

    def test_hook_only_subclass_is_not_vectorised(self):
        # Overriding only the node_thresholds hook (not prune) must still
        # disqualify the fast path: the stock WNP arrays would silently
        # ignore the customised thresholds otherwise.
        class InfThresholds(WeightedNodePruning):
            def node_thresholds(self, weights):
                return {node: float("inf") for pair in weights for node in pair}

        assert not backends.supports_strategy(InfThresholds())
        blocks = BlockCollection(clean_clean=False)
        for i in range(12):
            blocks.add(Block(key=f"b{i}", profiles_source0=set(range(i, i + 4))))
        assert MetaBlocker("cbs", InfThresholds()).run(blocks).retained_edges == {}
        assert MetaBlocker("cbs", "wnp").run(blocks).retained_edges

    def test_stock_strategies_are_supported(self):
        assert backends.supports_strategy(WeightedEdgePruning())
        assert backends.supports_strategy(CardinalityEdgePruning())
        assert backends.supports_strategy(WeightedNodePruning())
        assert backends.supports_strategy(ReciprocalWeightedNodePruning())
        assert backends.supports_strategy(CardinalityNodePruning(reciprocal=True))


class _Recording(WeightedNodePruning):
    """A custom strategy that records what ``prune`` receives."""

    def __init__(self):
        super().__init__()
        self.seen = []

    def prune(self, stats, weights):
        self.seen.append(stats)
        return super().prune(stats, weights)


def test_custom_strategies_get_index_stats_on_every_path():
    blocks = BlockCollection(
        [Block(f"b{i}", set(range(i, i + 4))) for i in range(12)], clean_clean=False
    )
    stock = MetaBlocker("js", "wnp").run(blocks).retained_edges
    sequential, parallel, delta = _Recording(), _Recording(), _Recording()
    assert MetaBlocker("js", sequential).run(blocks).retained_edges == stock
    with EngineContext(3) as context:
        assert ParallelMetaBlocker(context, "js", parallel).run(blocks).retained_edges == stock
    index = IncrementalBlockIndex()
    try:
        index.append_profiles(_random_profiles(30, clean_clean=False, seed=3))
        expected = DeltaMetaBlocker("cbs", "wnp").refresh(index.materialise(), 1)
        assert expected and DeltaMetaBlocker("cbs", delta).refresh(index.materialise(), 1) == expected
    finally:
        index.close()
    for recorder in (sequential, parallel, delta):
        assert [type(stats) for stats in recorder.seen] == [IndexStats]
        assert recorder.seen[0].num_nodes == len(recorder.seen[0].blocks_per_profile)
