"""A block stage's pair count runs when its row is read, range by range.

Without a ground truth a block-stage row (``token_blocking``,
``block_purging``, ``block_filtering``) holds its collection's counter until
the row is first read; a run computes no pair count, each collection is
counted at most once, and a checkpoint stores plain numbers.  The count
itself takes the pairs node range by node range: it equals the pair set's
size and the CSR index's edge count however small the range budget.  With a
ground truth the rows are computed from the blocks, no pair set built, and
equal the statistics of the pair set.  The run's other per-run costs — the
all-pairs count and the token table's id check — are paid only where read.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.blocking import block as block_module
from repro.blocking.block import Block, BlockCollection
from repro.blocking.filtering import BlockFiltering
from repro.blocking.stats import block_stage_metrics, pair_stats
from repro.core.sparker import SparkER
from repro.data.dataset import ProfileCollection
from repro.data.profile import EntityProfile
from repro.exceptions import DataError
from repro.metablocking.index import CSRBlockIndex
from repro.pipeline import Pipeline, PipelineCheckpoint
from repro.utils.tokenize import table_for

from tests.test_blocking_columns import as_columns, brute_pairs
from tests.test_blocking_oracle import as_list
from tests.test_golden import CONFIGS, INPUTS

BLOCK_STAGES = {
    "token_blocking": "raw_blocks",
    "block_purging": "purged_blocks",
    "block_filtering": "filtered_blocks",
}


@pytest.fixture(scope="module")
def scalability():
    return INPUTS["scalability-4000"]()


@pytest.fixture
def counted(monkeypatch):
    """The collections ``_pair_codes`` expands, in call order."""
    calls = []
    original = BlockCollection._pair_codes

    def spy(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(BlockCollection, "_pair_codes", spy)
    return calls


class TestDeferredRows:
    def test_a_run_without_a_ground_truth_counts_no_pairs(self, scalability, monkeypatch):
        profiles = scalability.profiles
        expected = SparkER().run(profiles)

        def forbidden(self):
            raise AssertionError("a pair count ran")

        with monkeypatch.context() as patched:
            patched.setattr(BlockCollection, "_pair_codes", forbidden)
            result = SparkER().run(profiles)
            assert result.candidate_pairs == expected.candidate_pairs
            assert [c.members for c in result.clusters] == [c.members for c in expected.clusters]
            with pytest.raises(AssertionError, match="a pair count ran"):
                result.pipeline_result.metric_rows()
        rows = result.pipeline_result.metric_rows()
        assert rows == expected.pipeline_result.metric_rows()
        store = result.pipeline_result.artifacts
        for label, key in BLOCK_STAGES.items():
            row = result.execution(label).metrics
            assert row == block_stage_metrics(store.get(key))
            assert list(row) == ["blocks", "candidate_pairs", "total_comparisons"]

    def test_reading_the_rows_twice_counts_each_collection_once(self, scalability, counted):
        result = SparkER().run(scalability.profiles)
        assert counted == []
        first = result.pipeline_result.metric_rows()
        store = result.pipeline_result.artifacts
        raw, purged = store.get("raw_blocks"), store.get("purged_blocks")
        # Purging kept every comparison, so its row takes the raw count.
        assert purged.total_comparisons() == raw.total_comparisons()
        assert counted == [raw, store.get("filtered_blocks")]
        assert result.blocker_report.metric_rows() == first == result.pipeline_result.metric_rows()
        assert counted == [raw, store.get("filtered_blocks")]

    def test_a_checkpoint_holds_plain_counts_and_resumes_the_same_rows(self, scalability, tmp_path):
        spec = SparkER.canonical_spec()
        uninterrupted = Pipeline.from_spec(spec).run(scalability.profiles)
        checkpoint = PipelineCheckpoint(tmp_path / "ckpt")
        Pipeline.from_spec(spec).run(
            scalability.profiles, checkpoint=checkpoint, stop_after="block_filtering"
        )
        for execution in checkpoint.load()["executions"]:
            assert all(not callable(value) for value in vars(execution)["metrics"].values())
            if execution.label in BLOCK_STAGES:
                assert type(vars(execution)["metrics"]["candidate_pairs"]) is int
        resumed = Pipeline.resume(checkpoint)
        assert resumed.metric_rows() == uninterrupted.metric_rows()


@st.composite
def filtered_collections(draw):
    """Blocks over ids 0-9 (dirty or clean-clean, a profile possibly on both
    sides, possibly none at all), spread apart, then maybe filtered, which
    can leave a clean-clean block with one side empty."""
    clean_clean = draw(st.booleans())
    spread = draw(st.sampled_from([lambda i: i, lambda i: 2**40 + 3 * i, lambda i: 2**31 * i]))
    blocks = []
    for position in range(draw(st.integers(0, 6))):
        left = draw(st.sets(st.integers(0, 9), max_size=6))
        right = draw(st.sets(st.integers(0, 9), max_size=6)) if clean_clean else set()
        blocks.append(
            Block(f"k{position}", set(map(spread, left)), set(map(spread, right)), 1.0, clean_clean)
        )
    collection = BlockCollection(blocks, clean_clean=clean_clean)
    ratio = draw(st.sampled_from([None, 0.3, 0.6]))
    return collection if ratio is None else BlockFiltering(ratio).filter(collection)


class TestRangedCount:
    @settings(max_examples=200, deadline=None)
    @given(filtered_collections(), st.sampled_from([1, 3, None]))
    def test_the_count_is_the_pair_set_size(self, blocks, budget):
        """Ids close, near 2**40, or 2**31 apart (the rank path); a budget of
        1 or 3 pairs cuts a range at nearly every node."""
        expected = brute_pairs(as_list(blocks))
        with pytest.MonkeyPatch.context() as patched:
            if budget is not None:
                patched.setattr(block_module, "_PAIR_CHUNK", budget)
            fresh = as_columns(blocks)
            counted = fresh.count_distinct_comparisons()
            listed = as_columns(blocks).distinct_comparisons()
            edges = CSRBlockIndex.from_blocks(blocks).num_edges()
        assert counted == len(listed) == len(expected) == edges
        assert list(listed) == sorted(expected)

    def test_a_collection_over_the_budget_counts_range_by_range(self, scalability, monkeypatch):
        raw = SparkER().run(scalability.profiles).blocker_report.raw_blocks
        expected = len(raw.distinct_comparisons())
        monkeypatch.setattr(block_module, "_PAIR_CHUNK", 10_000)
        ranges = list(as_columns(raw)._pair_codes()[0])
        assert len(ranges) > 10 and max(map(len, ranges)) < 10 * 10_000
        fresh = BlockCollection.from_columns(raw.columns, clean_clean=raw.clean_clean)
        assert fresh.count_distinct_comparisons() == expected


class TestGroundTruthRows:
    @pytest.mark.parametrize("dataset", sorted(INPUTS))
    @pytest.mark.parametrize("config", sorted(CONFIGS))
    def test_rows_equal_the_pair_set_statistics(self, dataset, config, monkeypatch):
        data = INPUTS[dataset]()

        def forbidden(self):
            raise AssertionError("a pair set was built")

        with monkeypatch.context() as patched:
            patched.setattr(BlockCollection, "distinct_comparisons", forbidden)
            result = SparkER(CONFIGS[config]()).run(data.profiles, data.ground_truth)
        store = result.pipeline_result.artifacts
        for label, key in BLOCK_STAGES.items():
            blocks = store.get(key)
            expected = pair_stats(
                blocks.distinct_comparisons(),
                data.ground_truth,
                data.profiles.max_comparisons(),
                num_blocks=len(blocks),
                total_comparisons=blocks.total_comparisons(),
            )
            assert result.execution(label).metrics == expected.as_dict()

    def test_a_pair_on_both_sides_of_a_block(self):
        from repro.blocking.stats import compute_blocking_stats
        from repro.data.ground_truth import GroundTruth

        blocks = BlockCollection(
            [
                Block("a", {1, 2}, {2, 3}, clean_clean=True),  # 2 on both sides
                Block("b", {4, 5}, set(), clean_clean=True),  # one side empty
                Block("c", {6, 7}),  # dirty
            ],
            clean_clean=True,
        )
        truth = GroundTruth([(1, 2), (2, 3), (1, 3), (4, 5), (6, 7), (2, 2), (8, 9)])
        stats = compute_blocking_stats(blocks, truth, max_comparisons=100)
        assert stats == pair_stats(
            blocks.distinct_comparisons(), truth, 100, num_blocks=3, total_comparisons=5
        )
        assert stats.lost_pairs == {(4, 5), (8, 9)}


class TestPaidWhereRead:
    def test_the_all_pairs_count_only_with_a_ground_truth(self, scalability, monkeypatch):
        calls = []
        original = ProfileCollection.max_comparisons
        monkeypatch.setattr(
            ProfileCollection, "max_comparisons", lambda self: calls.append(self) or original(self)
        )
        SparkER().run(scalability.profiles)
        assert calls == []
        SparkER().run(scalability.profiles, scalability.ground_truth)
        assert calls == [scalability.profiles]

    def test_a_table_of_this_collection_is_taken_without_its_ids(self, monkeypatch):
        profiles = ProfileCollection()
        for i in range(5):
            profile = EntityProfile(profile_id=i, source_id=0)
            profile.add("name", f"w{i} shared")
            profiles.add(profile)
        twin = ProfileCollection(list(profiles))
        table = table_for(profiles)

        def forbidden(self):
            raise AssertionError("the ids were read")

        with monkeypatch.context() as patched:
            patched.setattr(ProfileCollection, "__iter__", forbidden)
            assert table_for(profiles, table) is table
            with pytest.raises(AssertionError, match="the ids were read"):
                table_for(twin, table)  # another object: its ids are compared
        assert table_for(twin, table) is table
        assert table_for(list(profiles), table) is table
        extra = EntityProfile(profile_id=5, source_id=0)
        extra.add("name", "w5")
        profiles.add(extra)
        with pytest.raises(DataError, match="another profile collection"):
            table_for(profiles, table)
