"""Tests of blocking statistics."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.blocking.block import Block, BlockCollection
from repro.blocking.pairs import CandidatePairs
from repro.blocking.stats import candidate_pair_stats, compute_blocking_stats, pair_stats
from repro.data.ground_truth import GroundTruth


def _blocks() -> BlockCollection:
    return BlockCollection(
        [
            Block(key="a", profiles_source0={0, 1}, profiles_source1={5}, clean_clean=True),
            Block(key="b", profiles_source0={1}, profiles_source1={6}, clean_clean=True),
        ],
        clean_clean=True,
    )


class TestComputeBlockingStats:
    def test_recall_precision(self):
        truth = GroundTruth([(0, 5), (2, 7)])
        stats = compute_blocking_stats(_blocks(), truth, max_comparisons=20)
        assert stats.num_blocks == 2
        assert stats.num_candidate_pairs == 3
        assert stats.recall == 0.5
        assert stats.precision == 1 / 3
        assert stats.lost_pairs == {(2, 7)}

    def test_reduction_ratio(self):
        truth = GroundTruth([(0, 5)])
        stats = compute_blocking_stats(_blocks(), truth, max_comparisons=30)
        assert stats.reduction_ratio == 1 - 3 / 30

    def test_no_max_comparisons(self):
        stats = compute_blocking_stats(_blocks(), GroundTruth([(0, 5)]))
        assert stats.reduction_ratio == 0.0

    def test_f1(self):
        truth = GroundTruth([(0, 5)])
        stats = compute_blocking_stats(_blocks(), truth)
        assert 0.0 < stats.f1 <= 1.0

    def test_as_dict_keys(self):
        stats = compute_blocking_stats(_blocks(), GroundTruth([(0, 5)]))
        d = stats.as_dict()
        assert {"blocks", "candidate_pairs", "recall", "precision", "lost_pairs"} <= set(d)

    def test_empty_truth_full_recall(self):
        stats = compute_blocking_stats(_blocks(), GroundTruth())
        assert stats.recall == 1.0


class TestCandidatePairStats:
    def test_basic(self):
        truth = GroundTruth([(0, 5), (1, 6)])
        stats = candidate_pair_stats({(0, 5), (9, 10)}, truth, max_comparisons=10)
        assert stats["candidate_pairs"] == 2
        assert stats["recall"] == 0.5
        assert stats["precision"] == 0.5
        assert stats["lost_pairs"] == 1
        assert stats["reduction_ratio"] == 0.8

    def test_empty_candidates(self):
        stats = candidate_pair_stats(set(), GroundTruth([(0, 1)]), max_comparisons=10)
        assert stats["precision"] == 0.0
        assert stats["recall"] == 0.0


_IDS = st.one_of(st.integers(-3, 40), st.sampled_from([2**40, 2**40 + 1, 2**62]))


class TestPairStatsOfCandidatePairsEqualsTheSetPath:
    """``pair_stats`` intersects a ``CandidatePairs`` in one array pass; every
    field, ``lost_pairs`` included, must equal the plain-set intersection."""

    @staticmethod
    def _both(pairs, truth):
        view = pair_stats(CandidatePairs.of(pairs), GroundTruth(truth), 100)
        plain = pair_stats({tuple(sorted(pair)) for pair in pairs}, GroundTruth(truth), 100)
        assert view == plain
        return view

    @settings(max_examples=200, deadline=None)
    @given(
        st.sets(st.tuples(_IDS, _IDS).filter(lambda pair: pair[0] != pair[1]), max_size=40),
        st.sets(st.tuples(_IDS, _IDS), max_size=25),
    )
    def test_random(self, pairs, truth):
        self._both(pairs, truth)

    def test_truth_drawn_from_the_candidates(self):
        pairs = {(a, b) for a in range(30) for b in range(a + 1, 30) if (a * b) % 7 == 1}
        truth = sorted(pairs)[::3] + [(100, 101), (5, 6)]
        stats = self._both(pairs, truth)
        assert stats.lost_pairs == {(100, 101), (5, 6)} - pairs

    @pytest.mark.parametrize(
        "pairs, truth",
        [
            (set(), [(0, 1)]),
            ({(0, 1)}, []),
            (set(), []),
            ({(0, 1), (2, 3)}, [(4, 5), (6, 7)]),
            ({(0, 1), (2, 3)}, [(0, 2), (1, 3), (3, 0)]),
        ],
        ids=["no-candidates", "no-truth", "both-empty", "disjoint-ids", "disjoint-pairs"],
    )
    def test_empty_and_disjoint(self, pairs, truth):
        stats = self._both(pairs, truth)
        assert stats.lost_pairs == GroundTruth(truth).pairs()
