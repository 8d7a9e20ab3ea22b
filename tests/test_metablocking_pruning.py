"""Toy cases of the pruning rules and of the strategy factory.

Each rule runs through :func:`~repro.metablocking.backends.retained_positions`
— the one definition every driver prunes with — on a table built from a
hand-written weight map.  The rules are checked against the definitions by
``test_metablocking_oracle`` and on adversarial weight maps by
``test_metablocking_backends``.
"""

import pickle
from types import SimpleNamespace

import numpy as np
import pytest

from repro.exceptions import MetaBlockingError
from repro.metablocking import backends
from repro.metablocking.pruning import (
    CardinalityEdgePruning,
    CardinalityNodePruning,
    PruningStrategy,
    ReciprocalWeightedNodePruning,
    WeightedEdgePruning,
    WeightedNodePruning,
    make_pruning_strategy,
)

WEIGHTS = {(0, 1): 3.0, (0, 2): 1.0, (0, 3): 1.0, (2, 3): 2.0, (4, 5): 5.0}

#: What the default k of CEP / CNP reads off the index: blocks per profile.
INDEX = SimpleNamespace(node_block_count=np.array([4, 3, 2, 2, 5, 5]), num_nodes=6)


def _table(weights, num_nodes=6):
    """An edge table over dense ids 0..n-1 (= the profile ids), in map order."""
    return backends.EdgeWeights(
        a=np.array([a for a, _b in weights], dtype=np.int64),
        b=np.array([b for _a, b in weights], dtype=np.int64),
        w=np.array(list(weights.values()), dtype=np.float64),
        num_nodes=num_nodes,
        node_ids=np.arange(num_nodes, dtype=np.int64),
    )


def _retained(strategy, weights=WEIGHTS):
    """The retained ``pair -> weight`` dict, in retention order."""
    table = _table(weights)
    positions = backends.retained_positions(strategy, table, INDEX)
    assert positions is not None and positions.dtype == np.int64
    return backends.RetainedEdges(table, positions).as_dict()


class TestWeightedEdgePruning:
    def test_keeps_above_average(self):
        retained = _retained(WeightedEdgePruning())
        mean = sum(WEIGHTS.values()) / len(WEIGHTS)
        assert all(w >= mean for w in retained.values())
        assert (4, 5) in retained
        assert (0, 2) not in retained

    def test_empty_weights(self):
        assert _retained(WeightedEdgePruning(), {}) == {}

    def test_uniform_weights_keep_all(self):
        uniform = {pair: 1.0 for pair in WEIGHTS}
        assert _retained(WeightedEdgePruning(), uniform) == uniform


class TestCardinalityEdgePruning:
    def test_explicit_k(self):
        retained = _retained(CardinalityEdgePruning(k=2))
        assert list(retained) == [(4, 5), (0, 1)]  # ranked order

    def test_default_k_from_block_assignments(self):
        # 21 block assignments: K = 10 keeps the whole toy graph, ranked.
        retained = _retained(CardinalityEdgePruning())
        assert list(retained) == [(4, 5), (0, 1), (2, 3), (0, 2), (0, 3)]

    def test_invalid_k(self):
        with pytest.raises(MetaBlockingError):
            CardinalityEdgePruning(k=0)

    def test_deterministic_tie_breaking(self):
        # (0, 2) and (0, 3) tie at 1.0: the smaller pair takes the last slot.
        first = _retained(CardinalityEdgePruning(k=4))
        assert list(first) == [(4, 5), (0, 1), (2, 3), (0, 2)]
        assert _retained(CardinalityEdgePruning(k=4)) == first


class TestWeightedNodePruning:
    def test_or_semantics_keeps_more_than_reciprocal(self):
        wnp = _retained(WeightedNodePruning())
        rwnp = _retained(ReciprocalWeightedNodePruning())
        assert set(rwnp) <= set(wnp)
        assert _retained(WeightedNodePruning(reciprocal=True)) == rwnp

    def test_strong_edge_always_kept(self):
        retained = _retained(WeightedNodePruning())
        assert (0, 1) in retained
        assert (4, 5) in retained

    def test_node_thresholds(self):
        thresholds = backends.node_means(_table(WEIGHTS))
        assert thresholds[0] == (3 + 1 + 1) / 3
        assert thresholds[4] == 5.0

    def test_empty(self):
        assert _retained(WeightedNodePruning(), {}) == {}


class TestCardinalityNodePruning:
    def test_top_k_per_node(self):
        retained = _retained(CardinalityNodePruning(k=1))
        # Node 0's best edge and the isolated pair must survive.
        assert (0, 1) in retained
        assert (4, 5) in retained

    def test_reciprocal_stricter(self):
        or_variant = _retained(CardinalityNodePruning(k=1))
        and_variant = _retained(CardinalityNodePruning(k=1, reciprocal=True))
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
        assert type(make_pruning_strategy(name)) is cls

    def test_instance_passthrough(self):
        strategy = WeightedEdgePruning()
        assert make_pruning_strategy(strategy) is strategy

    def test_unknown_name(self):
        with pytest.raises(MetaBlockingError):
            make_pruning_strategy("nope")

    def test_a_subclass_is_refused_not_replaced(self):
        class Custom(WeightedNodePruning):
            pass

        with pytest.raises(MetaBlockingError, match="WeightedNodePruning"):
            make_pruning_strategy(Custom())
        # The rules dispatch through the factory, so a subclass set after
        # construction fails as loudly.
        with pytest.raises(MetaBlockingError):
            backends.retained_positions(Custom(), _table(WEIGHTS), INDEX)

    @pytest.mark.parametrize("value", [None, 3, WeightedEdgePruning, PruningStrategy()])
    def test_a_non_strategy_is_refused(self, value):
        with pytest.raises(MetaBlockingError, match="valid strategies"):
            make_pruning_strategy(value)

    @pytest.mark.parametrize(
        "strategy",
        [
            WeightedEdgePruning(),
            CardinalityEdgePruning(k=3),
            WeightedNodePruning(reciprocal=True),
            ReciprocalWeightedNodePruning(),
            CardinalityNodePruning(k=2, reciprocal=True),
        ],
    )
    def test_a_pickled_strategy_restores_with_its_attributes(self, strategy):
        clone = pickle.loads(pickle.dumps(strategy))
        assert type(clone) is type(strategy) and vars(clone) == vars(strategy)
        assert make_pruning_strategy(clone) is clone
        assert _retained(clone) == _retained(strategy)
