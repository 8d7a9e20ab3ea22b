"""Tests of the edge weighting schemes.

Every scheme's values are checked against the definitions by
``test_metablocking_oracle``; this module keeps the parser and one
data-level sanity check.
"""

import pytest

from repro.exceptions import MetaBlockingError
from repro.metablocking.metablocker import MetaBlocker
from repro.metablocking.pruning import CardinalityEdgePruning
from repro.metablocking.weights import WeightingScheme


class TestWeightingSchemeParse:
    def test_parse_names(self):
        assert WeightingScheme.parse("CBS") is WeightingScheme.CBS
        assert WeightingScheme.parse("js") is WeightingScheme.JS

    def test_parse_instance_passthrough(self):
        assert WeightingScheme.parse(WeightingScheme.ARCS) is WeightingScheme.ARCS

    def test_unknown_scheme(self):
        with pytest.raises(MetaBlockingError):
            WeightingScheme.parse("unknown")


@pytest.mark.parametrize("scheme", list(WeightingScheme))
def test_matching_pairs_weigh_more(abt_buy_small, scheme):
    from repro.blocking.token_blocking import TokenBlocking

    blocks = TokenBlocking().block(abt_buy_small.profiles)
    # CEP with a k above the edge count keeps, i.e. reports, every weight.
    weights = MetaBlocker(scheme, CardinalityEdgePruning(k=10**9)).run(blocks).retained_edges
    assert weights.keys() == blocks.distinct_comparisons()
    truth = abt_buy_small.ground_truth.pairs()
    matching = [w for pair, w in weights.items() if pair in truth]
    non_matching = [w for pair, w in weights.items() if pair not in truth]
    assert sum(matching) / len(matching) > sum(non_matching) / len(non_matching)
