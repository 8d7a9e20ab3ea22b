"""Unit tests of the kernel's retention tail.

The definitions are checked on generated collections by
``test_metablocking_oracle``; this module pins the array pruning rules
against the same brute-force reference (``tests/metablocking_oracle``) on
adversarial weight maps (duplicate weights, zeros, tie-heavy), and checks
that every driver refuses a strategy no rule is defined for.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.blocking.block import Block, BlockCollection
from repro.engine.context import EngineContext
from repro.exceptions import MetaBlockingError
from repro.metablocking import backends
from repro.metablocking.index import CSRBlockIndex
from repro.metablocking.metablocker import MetaBlocker
from repro.metablocking.parallel import ParallelMetaBlocker
from repro.metablocking.pruning import (
    CardinalityEdgePruning,
    CardinalityNodePruning,
    ReciprocalWeightedNodePruning,
    WeightedEdgePruning,
    WeightedNodePruning,
)
from repro.service.delta import DeltaMetaBlocker

from tests import metablocking_oracle as oracle
from tests.test_metablocking_oracle import agree


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


class _MapGraph:
    """The reference's view of a bare weight map: the map's order is the
    emission order, and its endpoints are the nodes."""

    def __init__(self, weights):
        self.order = list(weights)
        self.nodes = sorted({x for pair in weights for x in pair})
        self.blocks_of = {node: 3 for node in self.nodes}

    def emission_order(self):
        return self.order


def _check(strategy, rule, weights, k=None):
    """The array rule against the reference, edge for edge and in order:
    every weight here is exact, so no borderline edge is exempt (the oracle
    suite's rule for exact weights)."""
    expected, cuts = oracle.prune(_MapGraph(weights), weights, rule, k)
    got = list(_vectorised(strategy, _table_from(weights)).items())
    agree(got, expected, weights, cuts, exact=True)
    return got


class TestVectorisedPruningFastPaths:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_wep_matches_scalar(self, seed):
        _check(WeightedEdgePruning(), "wep", _random_weights(seed))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 7, 10_000])
    def test_cep_matches_scalar(self, seed, k):
        # CEP retains in ranked order, the reference too.
        got = _check(CardinalityEdgePruning(k=k), "cep", _random_weights(seed), k)
        assert len(got) == min(k, 400)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("required", [1, 2])
    def test_wnp_matches_scalar(self, seed, required):
        strategy = (
            ReciprocalWeightedNodePruning() if required == 2 else WeightedNodePruning()
        )
        _check(strategy, "rwnp" if required == 2 else "wnp", _random_weights(seed))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("required", [1, 2])
    @pytest.mark.parametrize("k", [1, 4])
    def test_cnp_matches_scalar(self, seed, required, k):
        strategy = CardinalityNodePruning(k=k, reciprocal=required == 2)
        _check(strategy, "rcnp" if required == 2 else "cnp", _random_weights(seed), k)

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

    def test_every_stock_strategy_gets_positions(self):
        table = _table_from(_random_weights(4))
        for strategy in (
            WeightedEdgePruning(),
            CardinalityEdgePruning(),
            WeightedNodePruning(),
            ReciprocalWeightedNodePruning(),
            CardinalityNodePruning(reciprocal=True),
        ):
            positions = backends.retained_positions(strategy, table, CSRBlockIndex())
            assert positions.dtype == np.int64 and len(positions)


class _Custom(WeightedNodePruning):
    """A subclass: whatever it overrides, no rule would honour it."""


def test_every_driver_refuses_a_subclass():
    blocks = BlockCollection(
        [Block(f"b{i}", set(range(i, i + 4))) for i in range(12)], clean_clean=False
    )
    with pytest.raises(MetaBlockingError, match="WeightedNodePruning"):
        MetaBlocker("js", _Custom())
    with pytest.raises(MetaBlockingError):
        ParallelMetaBlocker(EngineContext(3), "js", _Custom())
    with pytest.raises(MetaBlockingError):
        DeltaMetaBlocker("cbs", _Custom())
    # Swapped in after construction, it fails at retention, not silently.
    blocker = MetaBlocker("js", "wnp")
    blocker.pruning = _Custom()
    with pytest.raises(MetaBlockingError):
        blocker.run(blocks)
