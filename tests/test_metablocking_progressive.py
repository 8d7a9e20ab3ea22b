"""Tests of the progressive meta-blocking extension."""

import gc
import hashlib
import itertools
import weakref
from collections.abc import Iterator

import pytest

from repro.blocking.token_blocking import TokenBlocking
from repro.metablocking.index import CSRBlockIndex
from repro.metablocking.progressive import (
    ProgressiveNodeScheduling,
    ProgressiveSortedComparisons,
    progressive_recall_curve,
)

SCHEMES = ["cbs", "js", "arcs", "ecbs", "ejs"]


class TestProgressiveSortedComparisons:
    def test_ranking_covers_all_comparisons(self, abt_buy_small):
        blocks = TokenBlocking().block(abt_buy_small.profiles)
        ranking = ProgressiveSortedComparisons("cbs").rank(blocks)
        assert set(ranking) == blocks.distinct_comparisons()

    def test_no_duplicates(self, abt_buy_small):
        blocks = TokenBlocking().block(abt_buy_small.profiles)
        ranking = ProgressiveSortedComparisons("cbs").rank(blocks)
        assert len(ranking) == len(set(ranking))

    def test_front_loaded_recall(self, abt_buy_small):
        # The defining property of progressive ER: the first X% of the ranked
        # comparisons contain far more than X% of the true matches.
        blocks = TokenBlocking().block(abt_buy_small.profiles)
        ranking = ProgressiveSortedComparisons("cbs").rank(blocks)
        truth = abt_buy_small.ground_truth.pairs()
        budget = len(ranking) // 10
        early = set(ranking[:budget])
        early_recall = len(early & truth) / len(truth)
        assert early_recall > 0.5

    def test_stream_matches_rank(self, toy_dataset):
        blocks = TokenBlocking().block(toy_dataset.profiles)
        strategy = ProgressiveSortedComparisons()
        assert list(strategy.stream(blocks)) == strategy.rank(blocks)

    def test_deterministic(self, abt_buy_small):
        blocks = TokenBlocking().block(abt_buy_small.profiles)
        strategy = ProgressiveSortedComparisons("js")
        assert strategy.rank(blocks) == strategy.rank(blocks)


class TestProgressiveNodeScheduling:
    def test_ranking_covers_all_comparisons(self, abt_buy_small):
        blocks = TokenBlocking().block(abt_buy_small.profiles)
        ranking = ProgressiveNodeScheduling("cbs").rank(blocks)
        assert set(ranking) == blocks.distinct_comparisons()
        assert len(ranking) == len(set(ranking))

    def test_stream_matches_rank(self, abt_buy_small):
        blocks = TokenBlocking().block(abt_buy_small.profiles)
        strategy = ProgressiveNodeScheduling("js")
        assert list(strategy.stream(blocks)) == strategy.rank(blocks)

    def test_better_than_random_order(self, abt_buy_small):
        blocks = TokenBlocking().block(abt_buy_small.profiles)
        ranking = ProgressiveNodeScheduling("cbs").rank(blocks)
        truth = abt_buy_small.ground_truth.pairs()
        budget = len(ranking) // 5
        early_recall = len(set(ranking[:budget]) & truth) / len(truth)
        random_expectation = budget / len(ranking)
        assert early_recall > random_expectation


class TestStreamLaziness:
    """``stream()`` must be an honest iterator: pair tuples are produced as
    the stream is pulled (chunk by chunk / node at a time)."""

    @pytest.mark.parametrize(
        "strategy_cls", [ProgressiveSortedComparisons, ProgressiveNodeScheduling]
    )
    def test_stream_is_a_generator_and_prefix_matches_rank(
        self, abt_buy_small, strategy_cls
    ):
        blocks = TokenBlocking().block(abt_buy_small.profiles)
        strategy = strategy_cls("cbs")
        stream = strategy.stream(blocks)
        assert isinstance(stream, Iterator)
        prefix = list(itertools.islice(stream, 25))
        assert prefix == strategy.rank(blocks)[:25]

    @pytest.mark.parametrize(
        "weighting", ["cbs", "js", "arcs", "ecbs", "ejs"]
    )
    def test_all_schemes_rank_deterministically(self, abt_buy_small, weighting):
        blocks = TokenBlocking().block(abt_buy_small.profiles)
        for strategy_cls in (ProgressiveSortedComparisons, ProgressiveNodeScheduling):
            strategy = strategy_cls(weighting)
            first = strategy.rank(blocks)
            assert first == strategy.rank(blocks)
            assert set(first) == blocks.distinct_comparisons()


@pytest.mark.parametrize("weighting", SCHEMES)
def test_stream_index_is_the_sorted_weight_table(abt_buy_small, weighting):
    """The ranking is literally the weight table sorted by ``(-w, pair)`` —
    and owns its arrays: the index may be closed and dropped before the
    iterator is drained."""
    blocks = TokenBlocking().block(abt_buy_small.profiles)
    index = CSRBlockIndex.from_blocks(blocks)
    mapping = index.kernel().weight_arrays(index.weight_plan(weighting, False)).to_mapping()
    expected = [pair for pair, _w in sorted(mapping.items(), key=lambda e: (-e[1], e[0]))]

    buffer = weakref.ref(index.node_block_entries)
    stream = ProgressiveSortedComparisons(weighting).stream_index(index)
    prefix = list(itertools.islice(stream, 10))
    del index
    gc.collect()
    assert buffer() is None
    assert prefix + list(stream) == expected


# sha256(repr(ranking))[:16] of ProgressiveNodeScheduling at the commit that
# replaced its per-node kernel runs with the edge table: output unchanged.
_NODE_SCHEDULE_DIGESTS = {
    ("abt_buy_small", "cbs"): "71550f60e05be09e",
    ("abt_buy_small", "js"): "a29075587c9d6025",
    ("abt_buy_small", "arcs"): "6b064c07fd6c1a20",
    ("abt_buy_small", "ecbs"): "411dbdcd65ddbe2c",
    ("abt_buy_small", "ejs"): "19d98bfc77484e19",
    ("dirty_persons_small", "cbs"): "4e82dbe543281d3b",
    ("dirty_persons_small", "js"): "12dcc105c4ecf4d2",
    ("dirty_persons_small", "arcs"): "0921eb8b1b662a5f",
    ("dirty_persons_small", "ecbs"): "f37c57e387855cae",
    ("dirty_persons_small", "ejs"): "edfdad1bfe8be749",
}


@pytest.mark.parametrize("dataset", ["abt_buy_small", "dirty_persons_small"])
def test_node_scheduling_output_is_unchanged(dataset, request):
    blocks = TokenBlocking().block(request.getfixturevalue(dataset).profiles)
    for weighting in SCHEMES:
        ranking = ProgressiveNodeScheduling(weighting).rank(blocks)
        digest = hashlib.sha256(repr(ranking).encode()).hexdigest()[:16]
        assert digest == _NODE_SCHEDULE_DIGESTS[dataset, weighting], weighting


class TestProgressiveRecallCurve:
    def test_curve_monotone_and_complete(self, abt_buy_small):
        blocks = TokenBlocking().block(abt_buy_small.profiles)
        ranking = ProgressiveSortedComparisons("cbs").rank(blocks)
        curve = progressive_recall_curve(
            ranking, abt_buy_small.ground_truth.pairs(), num_points=5
        )
        recalls = [point["recall"] for point in curve]
        assert recalls == sorted(recalls)
        assert curve[-1]["recall"] > 0.95

    def test_empty_inputs(self):
        assert progressive_recall_curve([], {(1, 2)}) == []
        assert progressive_recall_curve([(1, 2)], set()) == []
