"""Tests of Block and BlockCollection."""

import pytest

from repro.blocking.block import Block, BlockCollection
from repro.exceptions import BlockingError


class TestBlock:
    def test_clean_clean_comparisons(self):
        block = Block(key="sony", profiles_source0={0, 1}, profiles_source1={5, 6})
        assert block.num_comparisons() == 4
        assert set(block.comparisons()) == {(0, 5), (0, 6), (1, 5), (1, 6)}
        # A profile on both sides is never paired with itself; ||b|| stays |left| * |right|.
        both = Block("a", {1, 2}, {2, 3}, clean_clean=True)
        assert both.num_comparisons() == 4
        assert sorted(both.comparisons()) == [(1, 2), (1, 3), (2, 3)]
        assert BlockCollection([both]).distinct_comparisons() == set(both.comparisons())

    def test_dirty_comparisons(self):
        block = Block(key="sony", profiles_source0={1, 2, 3})
        assert block.num_comparisons() == 3
        assert set(block.comparisons()) == {(1, 2), (1, 3), (2, 3)}

    def test_clean_clean_flag_sticks_after_source_loss(self):
        # A clean-clean block that lost every source-1 profile must not start
        # generating within-source comparisons (the block filtering edge case).
        block = Block(key="k", profiles_source0={0, 1}, clean_clean=True)
        assert block.is_clean_clean
        assert block.num_comparisons() == 0
        assert not block.is_valid()

    def test_size_and_all_profiles(self):
        block = Block(key="k", profiles_source0={0}, profiles_source1={1, 2})
        assert block.size == 3
        assert block.all_profiles() == {0, 1, 2}

    def test_contains_and_remove(self):
        block = Block(key="k", profiles_source0={0}, profiles_source1={1})
        assert block.contains(0)
        block.remove(0)
        assert not block.contains(0)

    def test_singleton_invalid(self):
        assert not Block(key="k", profiles_source0={1}).is_valid()

    def test_default_entropy(self):
        assert Block(key="k").entropy == 1.0


class TestBlockCollection:
    def _collection(self) -> BlockCollection:
        return BlockCollection(
            [
                Block(key="a", profiles_source0={0, 1}, profiles_source1={5}),
                Block(key="b", profiles_source0={1}, profiles_source1={5, 6}),
            ],
            clean_clean=True,
        )

    def test_len_and_getitem(self):
        collection = self._collection()
        assert len(collection) == 2
        assert collection[0].key == "a"

    def test_only_blocks_addable(self):
        collection = BlockCollection()
        with pytest.raises(BlockingError):
            collection.add("not a block")  # type: ignore[arg-type]

    def test_total_vs_distinct_comparisons(self):
        collection = self._collection()
        assert collection.total_comparisons() == 4
        # (1, 5) appears in both blocks but is counted once in the distinct set.
        assert collection.distinct_comparisons() == {(0, 5), (1, 5), (1, 6)}

    def test_profile_ids(self):
        assert self._collection().profile_ids() == {0, 1, 5, 6}

    def test_a_profile_on_both_sides_is_never_paired_with_itself(self):
        collection = BlockCollection([Block("a", {1, 2}, {2, 3}, clean_clean=True)], clean_clean=True)
        # ||b|| counts 2 x 2 = 4, the pair (2, 2) among them; the pair set does not.
        assert collection.total_comparisons() == 4
        assert collection.distinct_comparisons() == {(1, 2), (1, 3), (2, 3)}
        assert collection.count_distinct_comparisons() == 3

    def test_blocks_keep_their_own_flags_and_those_without_a_comparison(self):
        blocks = [
            Block("solo", {3}),
            Block("dirty", {1, 2, 4}),
            Block("lost", {1, 2}, clean_clean=True),
            Block("cross", {1}, {5}, entropy=0.5, clean_clean=True),
        ]
        collection = BlockCollection(blocks)
        assert list(collection) == blocks and collection[2] == blocks[2]
        assert [b.is_clean_clean for b in collection] == [False, False, True, True]
        assert collection.total_comparisons() == 3 + 0 + 1
        assert collection.distinct_comparisons() == {(1, 2), (1, 4), (2, 4), (1, 5)}
        assert collection.profile_ids() == {1, 2, 3, 4, 5}

    def test_add_after_counting_counts_again(self):
        collection = self._collection()
        assert collection.count_distinct_comparisons() == 3
        collection.add(Block(key="c", profiles_source0={7}, profiles_source1={8}))
        assert collection.count_distinct_comparisons() == 4 == len(collection.distinct_comparisons())
