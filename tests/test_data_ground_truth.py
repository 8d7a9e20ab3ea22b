"""Tests of the GroundTruth pair set."""

from repro.data.ground_truth import GroundTruth, canonical_pair


class TestCanonicalPair:
    def test_orders_ascending(self):
        assert canonical_pair(5, 2) == (2, 5)
        assert canonical_pair(2, 5) == (2, 5)

    def test_equal_ids(self):
        assert canonical_pair(3, 3) == (3, 3)


class TestGroundTruth:
    def test_symmetric_membership(self):
        truth = GroundTruth([(1, 2)])
        assert (1, 2) in truth
        assert (2, 1) in truth

    def test_self_pairs_ignored(self):
        truth = GroundTruth([(3, 3)])
        assert len(truth) == 0

    def test_duplicates_collapsed(self):
        truth = GroundTruth([(1, 2), (2, 1)])
        assert len(truth) == 1

    def test_profile_ids(self):
        truth = GroundTruth([(1, 2), (3, 4)])
        assert truth.profile_ids() == {1, 2, 3, 4}

    def test_restricted_to(self):
        truth = GroundTruth([(1, 2), (3, 4)])
        restricted = truth.restricted_to({1, 2, 3})
        assert (1, 2) in restricted
        assert (3, 4) not in restricted

    def test_pairs_returns_copy(self):
        truth = GroundTruth([(1, 2)])
        pairs = truth.pairs()
        pairs.add((9, 10))
        assert len(truth) == 1

    def test_iteration(self):
        truth = GroundTruth([(1, 2), (3, 4)])
        assert sorted(truth) == [(1, 2), (3, 4)]
