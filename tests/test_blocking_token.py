"""Tests of schema-agnostic token blocking."""

from repro.blocking.token_blocking import TokenBlocking
from repro.data.dataset import ProfileCollection
from repro.data.profile import EntityProfile


class TestTokenBlockingToy:
    def test_figure1_blocks(self, toy_dataset):
        blocks = TokenBlocking(remove_stopwords=True).block(toy_dataset.profiles)
        by_key = {block.key: block for block in blocks}
        # "blast" appears in p1 (source 0) and p3, p4 (source 1).
        assert by_key["blast"].profiles_source0 == {0}
        assert by_key["blast"].profiles_source1 == {2, 3}
        # "sparker" appears in p2 and p3.
        assert by_key["sparker"].profiles_source0 == {1}
        assert by_key["sparker"].profiles_source1 == {2}
        # "gagliardelli" appears in p2 and p3.
        assert by_key["gagliardelli"].profiles_source0 == {1}
        assert by_key["gagliardelli"].profiles_source1 == {2}

    def test_schema_ignored(self, toy_dataset):
        # "simonini" appears as author in p1/p4 and inside the abstract of p2:
        # schema-agnostic blocking puts them all in one block.
        blocks = TokenBlocking().block(toy_dataset.profiles)
        simonini = next(block for block in blocks if block.key == "simonini")
        assert simonini.all_profiles() == {0, 1, 3}

    def test_perfect_recall_on_toy(self, toy_dataset):
        blocks = TokenBlocking().block(toy_dataset.profiles)
        pairs = blocks.distinct_comparisons()
        for pair in toy_dataset.ground_truth:
            assert pair in pairs

    def test_keys_only_tokens_with_comparisons(self, toy_dataset):
        blocks = TokenBlocking().block(toy_dataset.profiles)
        for block in blocks:
            assert block.is_valid()


class TestTokenBlockingOptions:
    def _collection(self) -> ProfileCollection:
        p0 = EntityProfile(profile_id=0, source_id=0)
        p0.add("name", "the sony tv x1")
        p1 = EntityProfile(profile_id=1, source_id=1)
        p1.add("title", "the sony tv x1")
        return ProfileCollection([p0, p1])

    def test_stopword_removal_drops_blocks(self):
        with_stop = TokenBlocking().block(self._collection())
        without_stop = TokenBlocking(remove_stopwords=True).block(self._collection())
        assert len(without_stop) < len(with_stop)

    def test_min_token_length(self):
        blocks = TokenBlocking(min_token_length=3).block(self._collection())
        keys = {block.key for block in blocks}
        assert "x1" not in keys
        assert "sony" in keys

    def test_clean_clean_flag_propagated(self):
        blocks = TokenBlocking().block(self._collection())
        assert blocks.clean_clean
        assert all(block.is_clean_clean for block in blocks)

    def test_dirty_er_blocks(self):
        p0 = EntityProfile(profile_id=0, source_id=0)
        p0.add("name", "maria rossi")
        p1 = EntityProfile(profile_id=1, source_id=0)
        p1.add("name", "maria bianchi")
        blocks = TokenBlocking().block(ProfileCollection([p0, p1]))
        maria = next(block for block in blocks if block.key == "maria")
        assert maria.num_comparisons() == 1
        assert not blocks.clean_clean


class TestTokenBlockingRecall:
    def test_full_recall_on_synthetic(self, abt_buy_small):
        blocks = TokenBlocking().block(abt_buy_small.profiles)
        pairs = blocks.distinct_comparisons()
        found = pairs & abt_buy_small.ground_truth.pairs()
        recall = len(found) / len(abt_buy_small.ground_truth)
        assert recall > 0.95

    def test_low_precision_on_synthetic(self, abt_buy_small):
        # Schema-agnostic token blocking is high recall / low precision (paper §1).
        blocks = TokenBlocking().block(abt_buy_small.profiles)
        pairs = blocks.distinct_comparisons()
        found = pairs & abt_buy_small.ground_truth.pairs()
        precision = len(found) / len(pairs)
        assert precision < 0.2
