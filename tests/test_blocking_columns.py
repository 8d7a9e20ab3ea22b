"""The column form of a block collection against the object form.

The blockers emit membership vectors
(:class:`~repro.blocking.block.BlockColumns`, grouped from one token table by
``group_token_keys``) and purging, filtering, the stage statistics and the
CSR builder work on them; the ``Block``-object
algorithms are the definition, and the only form for hand-built collections
outside the column invariants.  Here the two forms are compared block for
block on Hypothesis collections (dirty and clean-clean, small and huge ids,
keys held by one side only, ties in ``(comparisons, size)``, quotas where
``ratio * count`` lands on and next to an integer, purge thresholds at
``size == threshold``), the definition-level oracle of
``test_blocking_oracle`` is run against an all-column chain, and two count
guards pin that no ``Block`` is built and no value is tokenised one by one
on the hot path.  The order-keeping
bugfix of comparison-based purging is tested on the object path too.
"""

from __future__ import annotations

import math
import pickle
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.blocking.base import group_token_keys
from repro.blocking.block import Block, BlockCollection, BlockColumns
from repro.blocking.filtering import BlockFiltering
from repro.blocking.loose_schema_blocking import LooseSchemaTokenBlocking
from repro.blocking.purging import BlockPurging
from repro.blocking.stats import block_stage_metrics
from repro.blocking.token_blocking import TokenBlocking
from repro.core.config import SparkERConfig
from repro.core.sparker import SparkER
from repro.data.dataset import ProfileCollection
from repro.data.profile import EntityProfile
from repro.data.synthetic import generate_scalability_products
from repro.engine.context import EngineContext
from repro.exceptions import BlockingError
from repro.looseschema.attribute_partitioning import AttributePartitioner
from repro.looseschema.entropy import EntropyExtractor
from repro.looseschema.lsh import build_attribute_profiles
from repro.metablocking.index import _SHARED_FIELDS, CSRBlockIndex
from repro.metablocking.metablocker import MetaBlocker
from repro.metablocking.parallel import ParallelMetaBlocker
from repro.metablocking.progressive import (
    ProgressiveNodeScheduling,
    ProgressiveSortedComparisons,
)
from repro.pipeline import Pipeline
from repro.utils.tokenize import token_table

from tests.test_blocking_oracle import (
    as_list,
    oracle_blocks,
    oracle_filter,
    oracle_purge,
    partitionings,
)

WORDS = [f"w{n}" for n in range(12)]
RATIOS = [0.1, 0.3, 0.5, 0.7, 0.8, 1.0]
ids = st.one_of(
    st.integers(min_value=0, max_value=40), st.integers(min_value=2**40, max_value=2**62)
)


@st.composite
def collections(draw):
    """0-12 profiles, up to all 12 words each, so a profile can sit in 10
    blocks (0.7 * 10); sources may leave a key on one side only."""
    clean_clean = draw(st.booleans())
    profile_ids = draw(st.lists(ids, unique=True, max_size=12))
    profiles = []
    for position, profile_id in enumerate(profile_ids):
        source_id = draw(st.integers(0, 1)) if clean_clean else 0
        profile = EntityProfile(profile_id=profile_id, source_id=source_id)
        words = draw(st.lists(st.sampled_from(WORDS), min_size=1, max_size=12))
        profile.add(["name", "title"][position % 2], " ".join(words))
        profiles.append(profile)
    return ProfileCollection(profiles)


def rows(blocks: BlockCollection):
    """Everything a block is, in collection order (materialises ``blocks``)."""
    return blocks.clean_clean, [
        (b.key, b.profiles_source0, b.profiles_source1, b.entropy, b.is_clean_clean)
        for b in blocks
    ]


def as_objects(blocks: BlockCollection) -> BlockCollection:
    """An object-backed copy (the argument converts, which is the point)."""
    return BlockCollection(
        [
            Block(b.key, set(b.profiles_source0), set(b.profiles_source1), b.entropy, b.clean_clean)
            for b in blocks
        ],
        clean_clean=blocks.clean_clean,
    )


def as_columns(blocks: BlockCollection) -> BlockCollection:
    """A column-backed copy of a collection that meets the column invariants."""
    import numpy as np

    entries, members = [], []
    for position, block in enumerate(blocks):
        for side, profile_ids in enumerate((block.profiles_source0, block.profiles_source1)):
            members.extend(sorted(profile_ids))
            entries.extend([2 * position + side] * len(profile_ids))
    return BlockCollection.from_columns(
        BlockColumns(
            [block.key for block in blocks],
            np.array([block.entropy for block in blocks], dtype=np.float64),
            np.array(entries, dtype=np.int64),
            np.array(members, dtype=np.int64),
        ),
        clean_clean=blocks.clean_clean,
    )


@st.composite
def valid_collections(draw):
    """Hand-made blocks that meet the column invariants: few ids over small
    sets, so equal ``(comparisons, size)`` is the norm."""
    clean_clean = draw(st.booleans())
    blocks = []
    for position in range(draw(st.integers(0, 8))):
        left = draw(st.sets(st.integers(0, 9), min_size=1 if clean_clean else 2, max_size=5))
        right = set()
        if clean_clean:
            right = draw(st.sets(st.integers(10, 19), min_size=1, max_size=5))
        entropy = draw(st.sampled_from([0.25, 0.5, 1.0]))
        blocks.append(Block(f"k{position:02d}", left, right, entropy, clean_clean))
    return BlockCollection(blocks, clean_clean=clean_clean)


# ---------------------------------------------------------------------------
# the bugfix: comparison-based purging keeps collection order
# ---------------------------------------------------------------------------
def _graded_blocks():
    """Sorted keys whose comparison cardinalities are not ascending."""
    sizes = [6, 2, 4, 3, 5, 2, 7]
    return BlockCollection(
        [Block(f"k{position}", set(range(size))) for position, size in enumerate(sizes)]
    )


@pytest.mark.parametrize("smoothing", [1.0, 1.05, 2.0])
def test_comparison_based_purging_keeps_collection_order(smoothing):
    blocks = _graded_blocks()
    purged = BlockPurging(1.0, smoothing=smoothing).purge(blocks, 10)
    keys = [block.key for block in purged]
    assert keys == sorted(keys) and 0 < len(keys)
    everything = BlockPurging(1.0, smoothing=1e9).purge(blocks, 10)
    assert [block.key for block in everything] == [block.key for block in blocks]
    # Filtering breaks (comparisons, size) ties by position, so it needs that order.
    assert as_list(BlockFiltering(0.5).filter(purged)) == oracle_filter(as_list(purged), 0.5)


def test_token_blocking_smoothing_purge_filter_equals_the_oracle(dirty_persons_small):
    profiles = dirty_persons_small.profiles
    purged = BlockPurging(smoothing=1.05).purge(TokenBlocking().block(profiles), len(profiles))
    keys = [block.key for block in as_objects(purged)]
    assert keys == sorted(keys) and keys
    purged = BlockPurging(smoothing=1.05).purge(TokenBlocking().block(profiles), len(profiles))
    expected = oracle_filter(as_list(as_objects(purged)), 0.8)
    purged = BlockPurging(smoothing=1.05).purge(TokenBlocking().block(profiles), len(profiles))
    assert as_list(BlockFiltering(0.8).filter(purged)) == expected


def test_object_backed_collections_report_no_columns():
    blocks = _graded_blocks()
    assert blocks.columns is None
    assert blocks.count_distinct_comparisons() == len(blocks.distinct_comparisons())


def test_a_collection_pickled_before_the_column_form_restores():
    objects = _graded_blocks()
    old = BlockCollection.__new__(BlockCollection)
    # What a checkpoint written before the column form holds: no ``columns``.
    old.__dict__.update(clean_clean=False, _blocks=_graded_blocks().blocks)
    restored = pickle.loads(pickle.dumps(old))
    assert "columns" not in restored.__dict__ and restored.columns is None
    assert len(restored) == len(objects) and rows(restored) == rows(objects)
    assert restored.total_comparisons() == objects.total_comparisons()
    assert rows(BlockFiltering(0.5).filter(BlockPurging(1.0).purge(restored, 10))) == rows(
        BlockFiltering(0.5).filter(BlockPurging(1.0).purge(objects, 10))
    )


def test_the_constructor_takes_blocks_only():
    with pytest.raises(BlockingError):
        BlockCollection(["not a block"])


# ---------------------------------------------------------------------------
# column path == object path, block for block
# ---------------------------------------------------------------------------
class TestColumnsEqualObjects:
    @settings(max_examples=120, deadline=None)
    @given(collections(), partitionings())
    def test_blockers(self, profiles, partitioning):
        entropies = {0: 0.25, 1: 0.5, 2: 1.0}
        for make in (
            TokenBlocking,
            lambda: LooseSchemaTokenBlocking(partitioning, cluster_entropies=entropies),
        ):
            columns = make().block(profiles)
            assert columns.columns is not None
            objects = as_objects(make().block(profiles))
            assert len(columns) == len(objects)
            assert columns.total_comparisons() == objects.total_comparisons()
            assert columns.profile_ids() == objects.profile_ids()
            assert columns.count_distinct_comparisons() == len(objects.distinct_comparisons())
            assert columns.columns is not None  # none of that converted it
            assert rows(columns) == rows(objects)
            assert columns.columns is None  # iterating did, one way
            assert columns.distinct_comparisons() == objects.distinct_comparisons()

    def test_empty_collection(self):
        empty = TokenBlocking().block(ProfileCollection())
        assert empty.columns is not None and len(empty) == 0
        assert empty.total_comparisons() == 0 and empty.profile_ids() == set()
        assert empty.count_distinct_comparisons() == 0
        filtered = BlockFiltering().filter(BlockPurging().purge(empty, 5))
        assert filtered.columns is not None and list(filtered) == []
        index = CSRBlockIndex.from_blocks(TokenBlocking().block(ProfileCollection()))
        assert (index.num_nodes, index.num_blocks, index.total_blocks) == (0, 0, 0)
        index.close()

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(collections().map(lambda p: TokenBlocking().block(p)), valid_collections()),
        st.sampled_from([0.25, 0.5, 0.75, 1.0]),
        st.sampled_from([None, 0.9, 1.0, 1.05, 3.0]),
        st.sampled_from(RATIOS),
    )
    def test_purge_and_filter(self, blocks, fraction, smoothing, ratio):
        objects = as_objects(blocks)
        # Thresholds that land exactly on a block size: fraction * (size / fraction).
        sizes = {block.size for block in objects}
        for num_profiles in {None, len(objects.profile_ids())} | {
            round(size / fraction) for size in sizes
        }:
            purging = BlockPurging(fraction, smoothing=smoothing)
            purged = purging.purge(as_columns(objects), num_profiles)
            assert purged.columns is not None or not len(objects)
            expected = purging.purge(as_objects(objects), num_profiles)
            assert len(purged) == len(expected)
            assert purged.total_comparisons() == expected.total_comparisons()
            assert rows(purged) == rows(expected)
        filtered = BlockFiltering(ratio).filter(as_columns(objects))
        assert filtered.columns is not None
        expected = BlockFiltering(ratio).filter(as_objects(objects))
        assert filtered.count_distinct_comparisons() == len(expected.distinct_comparisons())
        assert rows(filtered) == rows(expected)

    @pytest.mark.parametrize("ratio, count, quota", [(0.7, 10, 7), (0.28, 25, 8)])
    def test_quota_on_and_next_to_an_integer(self, ratio, count, quota):
        # 0.7 * 10 is exactly 7.0; 0.28 * 25 is 7.000000000000001, so one more stays.
        assert math.ceil(ratio * count) == quota
        star = BlockCollection(
            [Block(f"k{n:02d}", {0, 100 + n, 200 + n}) for n in range(count)]
        )
        filtered = BlockFiltering(ratio).filter(as_columns(star))
        assert sum(0 in block.profiles_source0 for block in filtered) == quota
        assert rows(BlockFiltering(ratio).filter(as_columns(star))) == rows(
            BlockFiltering(ratio).filter(as_objects(star))
        )

    def test_block_order_is_comparisons_then_size_then_position(self):
        wide = Block("a", {0}, {10, 11, 12, 13, 14, 15}, clean_clean=True)  # 6 comparisons, 7 profiles
        square = Block("b", {0, 1}, {10, 11, 12, 13}, clean_clean=True)  # 8 comparisons, 6 profiles
        flat = Block("c", {0, 2}, {10, 11, 12}, clean_clean=True)  # 6 comparisons, 5 profiles
        twin = Block("d", {0, 3}, {10, 11, 12}, clean_clean=True)  # the same, listed later
        blocks = BlockCollection([wide, square, flat, twin], clean_clean=True)
        # Profile 0 sits in all four; smallest first they are c, d, a, b.
        for ratio, staying in ((0.25, ["c"]), (0.75, ["a", "c", "d"])):
            filtered = BlockFiltering(ratio).filter(as_columns(blocks))
            assert [b.key for b in filtered if 0 in b.profiles_source0] == staying
            assert rows(BlockFiltering(ratio).filter(as_columns(blocks))) == rows(
                BlockFiltering(ratio).filter(as_objects(blocks))
            )

    def test_materialised_collection_takes_the_object_path(self):
        profiles = generate_scalability_products(120, seed=5).profiles
        expected = rows(BlockFiltering().filter(TokenBlocking().block(profiles)))
        touched = TokenBlocking().block(profiles)
        first = next(iter(touched))
        assert touched.columns is None and touched[0] is first and touched.blocks[0] is first
        filtered = BlockFiltering().filter(touched)
        assert filtered.columns is None and rows(filtered) == expected
        grown = TokenBlocking().block(profiles)
        grown.add(Block("zzzz", {1, 2}))
        assert grown.columns is None and grown[len(grown) - 1].key == "zzzz"
        with pytest.raises(Exception):
            TokenBlocking().block(profiles).add("not a block")

    @settings(max_examples=100, deadline=None)
    @given(collections())
    def test_all_column_chain_equals_the_oracle(self, profiles):
        clean_clean = profiles.is_clean_clean
        expected = oracle_blocks(profiles, clean_clean, lambda _p, _a, token: token)
        expected_purged = oracle_purge(expected, len(profiles))
        raw = TokenBlocking().block(profiles)
        purged = BlockPurging().purge(raw, len(profiles))
        filtered = {ratio: BlockFiltering(ratio).filter(purged) for ratio in RATIOS}
        assert raw.columns is not None and (purged.columns is not None or not len(profiles))
        assert {key: (side0, side1) for key, side0, side1, _c in as_list(raw)} == expected
        oracle_input = [
            (key, *expected_purged[key], clean_clean) for key in sorted(expected_purged)
        ]
        assert as_list(purged) == oracle_input
        for ratio, blocks in filtered.items():
            assert as_list(blocks) == oracle_filter(oracle_input, ratio)


# ---------------------------------------------------------------------------
# the grouping routine itself, on hand-written token tables
# ---------------------------------------------------------------------------
class TestGroupTokenKeys:
    """``group_token_keys`` with a ``describe`` that records what it is asked:
    only keys that make a block are named, and blocks come in name order."""

    @staticmethod
    def _group(profiles, clean_clean, names):
        asked = []

        def describe(keys):
            asked.extend(keys.tolist())
            return [names[key] for key in keys.tolist()], [0.5 * key for key in keys.tolist()]

        table = token_table(profiles)
        values, tokens = table.select()
        blocks = group_token_keys(table, values, tokens, describe, clean_clean)
        return blocks, table.forms, asked

    def test_a_key_of_one_profile_is_never_described(self):
        profiles = [EntityProfile(1), EntityProfile(2)]
        profiles[0].add("name", "shared alone")
        profiles[1].add("name", "shared")
        blocks, forms, asked = self._group(profiles, False, ["k0", "k1"])
        assert forms == ["shared", "alone"] and asked == [0]
        assert rows(blocks) == (False, [("k0", {1, 2}, set(), 0.0, False)])

    def test_a_profile_holding_a_key_twice_counts_once(self):
        profiles = [EntityProfile(5), EntityProfile(3)]
        profiles[0].add("name", "tv tv")
        profiles[0].add("title", "tv")
        profiles[1].add("name", "radio")
        blocks, _forms, asked = self._group(profiles, False, ["tv", "radio"])
        assert asked == [] and len(blocks) == 0  # 5 alone holds "tv", three times
        profiles[1].add("title", "TV")
        blocks, _forms, asked = self._group(profiles, False, ["tv", "radio"])
        assert asked == [0] and blocks.columns.members.tolist() == [3, 5]
        assert rows(blocks) == (False, [("tv", {3, 5}, set(), 0.0, False)])

    def test_clean_clean_keys_on_one_side_make_no_block(self):
        profiles = [EntityProfile(1), EntityProfile(2), EntityProfile(9, source_id=1)]
        profiles[0].add("name", "left both")
        profiles[1].add("name", "left")
        profiles[2].add("name", "right both")
        blocks, forms, asked = self._group(profiles, True, ["left", "both", "right"])
        assert forms == ["left", "both", "right"] and asked == [1]
        assert rows(blocks) == (True, [("both", {1}, {9}, 0.5, True)])

    def test_blocks_come_in_block_name_order_with_their_entropies(self):
        profiles = [EntityProfile(1), EntityProfile(2)]
        profiles[0].add("name", "a b c")
        profiles[1].add("name", "c b a")
        blocks, _forms, asked = self._group(profiles, False, ["z", "m", "a"])
        assert sorted(asked) == [0, 1, 2]
        assert blocks.columns.entries.tolist() == [0, 0, 2, 2, 4, 4]
        assert [(key, entropy) for key, _s0, _s1, entropy, _cc in rows(blocks)[1]] == [
            ("a", 1.0), ("m", 0.5), ("z", 0.0)
        ]


# ---------------------------------------------------------------------------
# downstream of the blocks: CSR fields, meta-blocking, pickles, checkpoints
# ---------------------------------------------------------------------------
def _both_forms(entities=300, seed=7):
    profiles = generate_scalability_products(entities, seed=seed).profiles

    def chain():
        raw = TokenBlocking().block(profiles)
        return BlockFiltering().filter(BlockPurging().purge(raw, len(profiles)))

    columns, objects = chain(), as_objects(chain())
    assert columns.columns is not None and objects.columns is None
    return columns, objects


def _fields(index):
    fields = {name: list(getattr(index, name)) for name, _typecode in _SHARED_FIELDS}
    fields["node_ids"] = list(index.node_ids)
    return fields, index.total_blocks, index.clean_clean


class TestDownstreamOfColumns:
    @settings(max_examples=60, deadline=None)
    @given(valid_collections())
    def test_csr_fields_equal_for_both_forms(self, blocks):
        built = []
        for form in (as_columns(as_objects(blocks)), as_objects(blocks)):
            index = CSRBlockIndex.from_blocks(form)
            try:
                built.append(_fields(index))
            finally:
                index.close()
        assert len(built[0][0]) == 10 and built[0] == built[1]

    def test_meta_blockers_agree_on_ordered_output(self):
        columns, objects = _both_forms()
        for weighting, pruning in (("cbs", "wnp"), ("js", "cnp"), ("ecbs", "wep"), ("arcs", "cep")):
            runs = [MetaBlocker(weighting, pruning).run(form) for form in (columns, objects)]
            assert list(runs[0].retained_edges.items()) == list(runs[1].retained_edges.items())
            streams = [
                [list(chunk) for chunk in MetaBlocker(weighting, pruning).stream_retained(form, 500)]
                for form in (columns, objects)
            ]
            assert streams[0] == streams[1] and streams[0]
        with EngineContext(4) as context:
            parallel = [
                ParallelMetaBlocker(context, "cbs", "wnp").run(form) for form in (columns, objects)
            ]
        assert list(parallel[0].retained_edges.items()) == list(parallel[1].retained_edges.items())
        for progressive in (ProgressiveSortedComparisons("cbs"), ProgressiveNodeScheduling("cbs")):
            assert progressive.rank(columns) == progressive.rank(objects)
        assert columns.columns is not None  # none of it built a Block

    def test_pickle_round_trip(self):
        columns, objects = _both_forms(120)
        restored = pickle.loads(pickle.dumps(columns))
        assert restored.columns is not None and columns.columns is not None
        assert rows(restored) == rows(objects)

    def test_checkpoint_resume_reproduces_the_blocks(self, abt_buy_small, tmp_path):
        keys = ["raw_blocks", "purged_blocks", "filtered_blocks"]
        kinds = ["token_blocking", "block_purging", "block_filtering", "meta_blocking"]
        spec = {"stages": [{"stage": kind} for kind in kinds]}
        for stage, read, written in zip(spec["stages"], [None, *keys], [*keys, None]):
            if read:
                stage["inputs"] = {"blocks": read}
            if written:
                stage["outputs"] = {"blocks": written}
        whole = Pipeline.from_spec(spec).run(abt_buy_small.profiles)
        Pipeline.from_spec(spec).run(
            abt_buy_small.profiles, checkpoint=tmp_path / "ckpt", stop_after="block_purging"
        )
        resumed = Pipeline.resume(tmp_path / "ckpt")
        assert resumed.candidate_pairs == whole.candidate_pairs
        assert resumed.report.as_rows() == whole.report.as_rows()
        for key in keys:
            assert resumed.artifacts.get(key).columns is not None
            assert rows(resumed.artifacts.get(key)) == rows(whole.artifacts.get(key))

    def test_stage_metrics_are_plain_ints_and_equal_the_pair_set(self):
        columns, objects = _both_forms(200)
        recorded = block_stage_metrics(columns)
        assert columns.columns is not None
        assert recorded == {
            "blocks": len(objects),
            "candidate_pairs": len(objects.distinct_comparisons()),
            "total_comparisons": objects.total_comparisons(),
        }
        assert all(type(value) is int for value in recorded.values())

    def test_a_labelled_run_records_the_same_statistics_from_either_form(self):
        # With a ground truth the stage statistics read the pair set, which
        # converts each stage's collection (the later stages then run the
        # object algorithms); the report must not notice.
        dataset = generate_scalability_products(400, seed=7)
        labelled = SparkER().run(dataset.profiles, dataset.ground_truth)
        unlabelled = SparkER().run(dataset.profiles)
        assert labelled.candidate_pairs == unlabelled.candidate_pairs
        rows_with, rows_without = labelled.report.as_rows(), unlabelled.report.as_rows()
        assert len(rows_with) == len(rows_without)
        for with_truth, without in zip(rows_with, rows_without):
            assert without.items() <= with_truth.items()

    @pytest.mark.parametrize("chunk", [1, 7, 1000])
    def test_distinct_comparisons_counted_across_chunks(self, monkeypatch, abt_buy_small, chunk):
        from repro.blocking import block as block_module

        monkeypatch.setattr(block_module, "_PAIR_CHUNK", chunk)
        clean_clean = TokenBlocking().block(abt_buy_small.profiles)
        assert clean_clean.clean_clean
        for columns in (_both_forms(200)[0], clean_clean):
            counted = columns.count_distinct_comparisons()
            assert columns.columns is not None
            assert counted == len(columns.distinct_comparisons()) > chunk

    def test_counting_pairs_at_scale_beats_building_the_pair_set(self):
        # 10^4 entities, raw stage: 1.1M pairs.  The object path is the
        # parent's ``len(set of tuples)``; the chunks must merge in one sort,
        # not by re-deduplicating a growing accumulator per chunk.
        profiles = generate_scalability_products(10_000, seed=7).profiles
        columns = TokenBlocking().block(profiles)
        objects = as_objects(TokenBlocking().block(profiles))
        started = time.perf_counter()
        expected = len(objects.distinct_comparisons())
        set_seconds = time.perf_counter() - started
        count_seconds = []
        for _rep in range(2):
            started = time.perf_counter()
            assert columns.count_distinct_comparisons() == expected
            count_seconds.append(time.perf_counter() - started)
        assert expected > 10**6 and min(count_seconds) < set_seconds

    def test_a_failed_conversion_keeps_the_columns(self, monkeypatch):
        columns, objects = _both_forms(120)

        def boom(self, *args, **kwargs):
            raise MemoryError

        with monkeypatch.context() as patched:
            patched.setattr(Block, "__init__", boom)
            with pytest.raises(MemoryError):
                columns.blocks
        assert columns.columns is not None and len(columns) == len(objects)
        assert rows(columns) == rows(objects)


# ---------------------------------------------------------------------------
# dispatch guard: no Block on the hot path
# ---------------------------------------------------------------------------
class TestNoBlockOnTheHotPath:
    @pytest.fixture
    def built_blocks(self, monkeypatch):
        calls = []
        original = Block.__init__

        def spy(self, *args, **kwargs):
            calls.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(Block, "__init__", spy)
        return calls

    @staticmethod
    def _hot_path(config=None):
        dataset = generate_scalability_products(400, seed=7)
        profiles = dataset.profiles
        raw = TokenBlocking().block(profiles)
        filtered = BlockFiltering().filter(BlockPurging().purge(raw, len(profiles)))
        edges = sum(len(chunk) for chunk in MetaBlocker("cbs", "wnp").stream_retained(filtered))
        result = SparkER(config).run(profiles)
        return edges, len(result.candidate_pairs)

    def test_the_hot_path_builds_no_block(self, built_blocks):
        outcome = self._hot_path()
        assert all(outcome) and built_blocks == []
        assert self._hot_path(SparkERConfig.schema_agnostic())[0] == outcome[0]
        assert built_blocks == []
        as_objects(TokenBlocking().block(generate_scalability_products(40, seed=3).profiles))
        assert len(built_blocks) > 0  # the spy does see the object form


class TestNoPerValueTokenisingOnTheHotPath:
    """The blockers and the attribute profiles read one token table per call;
    ``split_words`` / ``tokenize`` — under every name a ``repro`` module bound
    them to — are never called per value."""

    @pytest.fixture
    def tokenised(self, monkeypatch):
        calls = []
        originals = [
            sys.modules["repro.utils.text"].split_words,
            sys.modules["repro.utils.tokenize"].tokenize,
        ]
        for name, module in list(sys.modules.items()):
            for attribute in ("split_words", "tokenize"):
                original = getattr(module, attribute, None) if name.startswith("repro") else None
                if any(original is candidate for candidate in originals):

                    def spy(*args, _original=original, **kwargs):
                        calls.append(args[0] if args else None)
                        return _original(*args, **kwargs)

                    monkeypatch.setattr(module, attribute, spy)
        return calls

    def test_blockers_and_attribute_profiles_tokenise_through_the_table(self, tokenised):
        profiles = generate_scalability_products(400, seed=7).profiles
        partitioning = AttributePartitioner(threshold=0.3).partition(profiles)
        entropies = EntropyExtractor().extract(profiles, partitioning)
        raw = TokenBlocking().block(profiles)
        loose = LooseSchemaTokenBlocking(partitioning, cluster_entropies=entropies).block(profiles)
        attribute_profiles = build_attribute_profiles(profiles)
        assert len(raw) and len(loose) and attribute_profiles and len(partitioning.clusters) > 1
        assert tokenised == []
        profiles[0].tokens()  # the per-profile definition stays, and the spy sees it
        assert set(tokenised) == {value for _attribute, value in profiles[0].items()}
