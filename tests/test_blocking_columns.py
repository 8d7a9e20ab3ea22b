"""The column storage of a block collection against the definitions.

A :class:`~repro.blocking.block.BlockCollection` is its
:class:`~repro.blocking.block.BlockColumns`: the blockers emit them (grouped
from one token table by ``group_token_keys``), ``Block`` values are encoded
into them, and purging, filtering, the stage statistics and the CSR builder
read them.  Here they are held to the definition-level oracles —
``oracle_blocks``, ``oracle_purge`` and ``oracle_filter`` of
``test_blocking_oracle`` and ``tests/metablocking_oracle.py`` — and to
brute-force counts, on Hypothesis collections (dirty and clean-clean, small
and huge ids, keys held by one side only, ties in ``(comparisons, size)``,
quotas where ``ratio * count`` lands on and next to an integer, purge
thresholds at ``size == threshold``).  Reading decodes fresh ``Block`` values
and changes nothing; pickles of the earlier storage forms restore; two count
guards pin that no ``Block`` is built and no value is tokenised one by one
on the hot path.
"""

from __future__ import annotations

import math
import pickle
import sys
import time
from unittest import mock
from itertools import combinations
from typing import Any, NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.blocking import block as block_module
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
from repro.looseschema.attributes import build_attribute_profiles
from repro.metablocking import backends
from repro.metablocking.backends import unique_inverse as rank
from repro.metablocking.index import ARRAY_FIELDS, CSRBlockIndex
from repro.metablocking.metablocker import MetaBlocker
from repro.metablocking.parallel import ParallelMetaBlocker
from repro.metablocking.progressive import (
    ProgressiveNodeScheduling,
    ProgressiveSortedComparisons,
)
from repro.pipeline import Pipeline, PipelineCheckpoint
from repro.utils.tokenize import token_table

from tests import metablocking_oracle as oracle
from tests.test_blocking_oracle import (
    as_list,
    comparisons,
    loose_key,
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
    """Everything a block is, in collection order."""
    return blocks.clean_clean, [
        (b.key, b.profiles_source0, b.profiles_source1, b.entropy, b.is_clean_clean)
        for b in blocks
    ]


def brute_pairs(listed):
    """The distinct comparisons of ``[(key, source0, source1, clean_clean)]``:
    cross-side pairs of distinct profiles, or every pair of side 0."""
    pairs = set()
    for _key, source0, source1, clean_clean in listed:
        if clean_clean:
            pairs.update((min(a, b), max(a, b)) for a in source0 for b in source1 if a != b)
        else:
            pairs.update(combinations(sorted(source0), 2))
    return pairs


def total(listed) -> int:
    """The summed comparison cardinalities of ``[(key, source0, source1, clean_clean)]``."""
    return sum(comparisons(*row[1:]) for row in listed)


def smoothing_cutoff(listed, smoothing) -> int:
    """The comparison cutoff of comparison-based purging over ``[(key,
    source0, source1, clean_clean)]``, from its definition: scan the blocks
    by ascending comparisons (ties in collection order); the cutoff is the
    last comparison count at which cumulative comparisons / cumulative size
    is at most ``smoothing`` times the best such ratio seen before it."""
    ordered = sorted(listed, key=lambda row: comparisons(*row[1:]))
    cutoff, best, compared, sized = comparisons(*ordered[-1][1:]), math.inf, 0, 0
    for row in ordered:
        compared += comparisons(*row[1:])
        sized += len(row[1]) + len(row[2])
        if sized and compared / sized <= best * smoothing:
            best, cutoff = min(best, compared / sized), comparisons(*row[1:])
    return cutoff


@st.composite
def valid_collections(draw):
    """Hand-made blocks that each induce a comparison: few ids over small
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
    keys = [block.key for block in purged]
    assert keys == sorted(keys) and keys
    assert as_list(BlockFiltering(0.8).filter(purged)) == oracle_filter(as_list(purged), 0.8)


class _ParentColumns(NamedTuple):
    """The columns as they were pickled before the per-block flag, under
    the name they were pickled by."""

    __module__ = block_module.__name__
    __qualname__ = "BlockColumns"
    keys: list
    entropies: Any
    entries: Any
    members: Any


def _through_checkpoint(directory, value):
    """``value`` saved in a checkpoint and loaded back."""
    checkpoint = PipelineCheckpoint(directory)
    checkpoint.save({"value": value})
    return checkpoint.load()["value"]


def test_a_collection_pickled_before_the_column_form_restores(
    monkeypatch, tmp_path, abt_buy_small
):
    objects = _graded_blocks()
    old = BlockCollection.__new__(BlockCollection)
    # What a checkpoint written before the column form holds: a Block list.
    old.__dict__.update(clean_clean=False, _blocks=_graded_blocks().blocks)
    restored = _through_checkpoint(tmp_path / "blocks", old)
    assert type(restored) is BlockCollection and type(restored.columns) is BlockColumns
    assert len(restored) == len(objects) and rows(restored) == rows(objects)
    assert restored.total_comparisons() == objects.total_comparisons()
    assert rows(BlockFiltering(0.5).filter(BlockPurging(1.0).purge(restored, 10))) == rows(
        BlockFiltering(0.5).filter(BlockPurging(1.0).purge(objects, 10))
    )
    # ... or, converted by a read, the same list beside ``columns = None``.
    old.__dict__.update(columns=None, _distinct_count=None)
    restored = _through_checkpoint(tmp_path / "converted", old)
    assert type(restored) is BlockCollection and rows(restored) == rows(objects)

    # Columns pickled before the per-block flag: the collection's flag for every block.
    blocks = TokenBlocking().block(abt_buy_small.profiles)
    assert blocks.clean_clean
    count = blocks.count_distinct_comparisons()
    old = BlockCollection.__new__(BlockCollection)
    checkpoint = PipelineCheckpoint(tmp_path / "four-fields")
    with monkeypatch.context() as patched:
        patched.setattr(block_module, "BlockColumns", _ParentColumns)
        old.__dict__.update(
            clean_clean=True, _blocks=[], columns=_ParentColumns(*blocks.columns[:4]),
            _distinct_count=count,
        )
        checkpoint.save({"value": old})
    restored = checkpoint.load()["value"]
    assert type(restored) is BlockCollection
    assert type(restored.columns) is block_module.BlockColumns
    assert restored.columns.cleans.tolist() == [True] * len(blocks)
    assert rows(restored) == rows(blocks) and restored.count_distinct_comparisons() == count
    assert restored.distinct_comparisons() == blocks.distinct_comparisons()
    # Outside a checkpoint, columns without the flags are not columns at all.
    with pytest.raises(TypeError):
        BlockColumns(*blocks.columns[:4])


def test_the_constructor_takes_blocks_only():
    with pytest.raises(BlockingError):
        BlockCollection(["not a block"])


# ---------------------------------------------------------------------------
# the columns against the definitions
# ---------------------------------------------------------------------------
class TestColumnsEqualTheDefinitions:
    @settings(max_examples=120, deadline=None)
    @given(collections(), partitionings())
    def test_blockers(self, profiles, partitioning):
        entropies = {0: 0.25, 1: 0.5, 2: 1.0}
        clean_clean = profiles.is_clean_clean
        for blocker, key_of, entropy_of in (
            (TokenBlocking(), lambda _p, _a, token: token, lambda _key: 1.0),
            (
                LooseSchemaTokenBlocking(partitioning, cluster_entropies=entropies),
                loose_key(partitioning),
                lambda key: entropies[int(key.rsplit("_", 1)[1])],
            ),
        ):
            blocks = blocker.block(profiles)
            columns = blocks.columns
            expected = oracle_blocks(profiles, clean_clean, key_of)
            listed = [(key, *expected[key], clean_clean) for key in sorted(expected)]
            assert as_list(blocks) == listed
            assert [block.entropy for block in blocks] == [entropy_of(row[0]) for row in listed]
            assert len(blocks) == len(listed)
            assert blocks.total_comparisons() == total(listed)
            assert blocks.profile_ids() == set().union(*(row[1] | row[2] for row in listed))
            assert blocks.count_distinct_comparisons() == len(brute_pairs(listed))
            assert blocks.distinct_comparisons() == brute_pairs(listed)
            assert blocks.columns is columns  # reading changed nothing

    def test_empty_collection(self):
        empty = TokenBlocking().block(ProfileCollection())
        assert len(empty) == 0 and list(empty) == []
        assert empty.total_comparisons() == 0 and empty.profile_ids() == set()
        assert empty.count_distinct_comparisons() == 0
        filtered = BlockFiltering().filter(BlockPurging().purge(empty, 5))
        assert list(filtered) == [] and len(BlockPurging().purge(empty)) == 0
        index = CSRBlockIndex.from_blocks(TokenBlocking().block(ProfileCollection()))
        assert (index.num_nodes, index.num_blocks, index.total_blocks) == (0, 0, 0)

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(collections().map(lambda p: TokenBlocking().block(p)), valid_collections()),
        st.sampled_from([0.25, 0.5, 0.75, 1.0]),
        st.sampled_from([None, 0.9, 1.0, 1.05, 3.0]),
        st.sampled_from(RATIOS),
    )
    def test_purge_and_filter(self, blocks, fraction, smoothing, ratio):
        listed = as_list(blocks)
        everyone = len(blocks.profile_ids())
        # Thresholds that land exactly on a block size: fraction * (size / fraction).
        sizes = {len(row[1]) + len(row[2]) for row in listed}
        for num_profiles in {None, everyone} | {round(size / fraction) for size in sizes}:
            purged = BlockPurging(fraction, smoothing=smoothing).purge(blocks, num_profiles)
            within = oracle_purge(
                {row[0]: (row[1], row[2]) for row in listed},
                everyone if num_profiles is None else num_profiles,
                fraction,
            )
            expected = [row for row in listed if row[0] in within]
            got = as_list(purged)
            if smoothing is not None and expected:
                # Comparison-based purging also drops what lies above the
                # cutoff of the blocks the size rule kept.
                cutoff = smoothing_cutoff(expected, smoothing)
                expected = [row for row in expected if comparisons(*row[1:]) <= cutoff]
            assert got == expected
            assert len(purged) == len(expected) and purged.total_comparisons() == total(expected)
        filtered = BlockFiltering(ratio).filter(blocks)
        expected = oracle_filter(listed, ratio)
        assert as_list(filtered) == expected
        assert filtered.count_distinct_comparisons() == len(brute_pairs(expected))

    @pytest.mark.parametrize("ratio, count, quota", [(0.7, 10, 7), (0.28, 25, 8)])
    def test_quota_on_and_next_to_an_integer(self, ratio, count, quota):
        # 0.7 * 10 is exactly 7.0; 0.28 * 25 is 7.000000000000001, so one more stays.
        assert math.ceil(ratio * count) == quota
        star = BlockCollection(
            [Block(f"k{n:02d}", {0, 100 + n, 200 + n}) for n in range(count)]
        )
        filtered = BlockFiltering(ratio).filter(star)
        assert sum(0 in block.profiles_source0 for block in filtered) == quota
        assert as_list(filtered) == oracle_filter(as_list(star), ratio)

    def test_block_order_is_comparisons_then_size_then_position(self):
        wide = Block("a", {0}, {10, 11, 12, 13, 14, 15}, clean_clean=True)  # 6 comparisons, 7 profiles
        square = Block("b", {0, 1}, {10, 11, 12, 13}, clean_clean=True)  # 8 comparisons, 6 profiles
        flat = Block("c", {0, 2}, {10, 11, 12}, clean_clean=True)  # 6 comparisons, 5 profiles
        twin = Block("d", {0, 3}, {10, 11, 12}, clean_clean=True)  # the same, listed later
        blocks = BlockCollection([wide, square, flat, twin], clean_clean=True)
        # Profile 0 sits in all four; smallest first they are c, d, a, b.
        for ratio, staying in ((0.25, ["c"]), (0.75, ["a", "c", "d"])):
            filtered = BlockFiltering(ratio).filter(blocks)
            assert [b.key for b in filtered if 0 in b.profiles_source0] == staying
            assert as_list(filtered) == oracle_filter(as_list(blocks), ratio)

    def test_reads_decode_fresh_blocks_and_change_nothing(self):
        profiles = generate_scalability_products(120, seed=5).profiles
        blocks = TokenBlocking().block(profiles)
        columns = blocks.columns
        expected = as_list(BlockFiltering().filter(blocks))
        first = next(iter(blocks))
        assert blocks[0] == first == blocks.blocks[0] and blocks[0] is not first
        assert blocks[-1] == blocks.blocks[-1] == blocks[len(blocks) - 1]
        with pytest.raises(IndexError):
            blocks[len(blocks)]
        first.remove(min(first.all_profiles()))
        assert blocks[0] != first and blocks.columns is columns
        assert as_list(BlockFiltering().filter(blocks)) == expected
        blocks.add(Block("zzzz", {1, 2}))
        assert len(blocks) == len(columns.keys) + 1 and blocks[-1] == Block("zzzz", {1, 2})
        with pytest.raises(BlockingError):
            blocks.add("not a block")

    @settings(max_examples=100, deadline=None)
    @given(collections())
    def test_all_column_chain_equals_the_oracle(self, profiles):
        clean_clean = profiles.is_clean_clean
        expected = oracle_blocks(profiles, clean_clean, lambda _p, _a, token: token)
        expected_purged = oracle_purge(expected, len(profiles))
        raw = TokenBlocking().block(profiles)
        purged = BlockPurging().purge(raw, len(profiles))
        filtered = {ratio: BlockFiltering(ratio).filter(purged) for ratio in RATIOS}
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
        sides, rows = table.members(values, clean_clean)
        blocks = group_token_keys(tokens, sides, rows, table.profile_ids, describe, clean_clean)
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
# downstream of the blocks: CSR fields, pickles, checkpoints, counts
# ---------------------------------------------------------------------------
# Profile ids spread over the pair codes' three widths (see test_pair_codes_equal_the_brute_pairs).
SPREADS = {
    "close": lambda i: i,
    "past an int32 square": lambda i: 50_000 * i,
    "near 2**40": lambda i: 2**40 + i,
    "ranks": lambda i: 2**40 * i,
}
HAND_BUILT = {
    "dirty": BlockCollection([Block("a", {1, 2, 3}), Block("b", {2, 3, 4}), Block("c", {5})]),
    "clean-clean, a profile on both sides": BlockCollection(
        [
            Block("a", {1, 2}, {2, 3}, clean_clean=True),
            Block("b", {3}, {3}, clean_clean=True),
            Block("c", {1}, {2, 4}, clean_clean=True),
        ],
        clean_clean=True,
    ),
    "empty": BlockCollection(clean_clean=True),
}


@st.composite
def overlapping_collections(draw):
    """Hand-made blocks over ids 0-9, dirty or clean-clean, whose two sides
    may share profiles; some blocks induce no comparison, none may exist."""
    clean_clean = draw(st.booleans())
    blocks = []
    for position in range(draw(st.integers(0, 6))):
        left = draw(st.sets(st.integers(0, 9), max_size=5))
        right = draw(st.sets(st.integers(0, 9), max_size=5)) if clean_clean else set()
        blocks.append(Block(f"k{position}", left, right, 1.0, clean_clean))
    return BlockCollection(blocks, clean_clean=clean_clean)


def _chain(entities=300, seed=7):
    profiles = generate_scalability_products(entities, seed=seed).profiles
    raw = TokenBlocking().block(profiles)
    return BlockFiltering().filter(BlockPurging().purge(raw, len(profiles)))


def as_columns(blocks: BlockCollection) -> BlockCollection:
    """The collection over membership vectors written here, block by block,
    not by the encoder."""
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
            np.array([block.is_clean_clean for block in blocks], dtype=bool),
        ),
        clean_clean=blocks.clean_clean,
    )


def _fields(index):
    fields = {name: list(getattr(index, name)) for name in ARRAY_FIELDS}
    fields["node_ids"] = list(index.node_ids)
    return fields, index.total_blocks, index.clean_clean


class TestDownstreamOfColumns:
    @settings(max_examples=60, deadline=None)
    @given(valid_collections())
    def test_csr_fields_equal_the_blocking_graph(self, blocks):
        graph = oracle.Graph(
            (block.profiles_source0, block.profiles_source1, block.is_clean_clean, block.entropy)
            for block in blocks
        )
        index = CSRBlockIndex.from_blocks(blocks)
        inducing = [block for block in graph.blocks if oracle.cardinality(block)]
        assert index.node_ids == graph.nodes and index.total_blocks == len(graph.blocks)
        assert index.node_block_count.tolist() == [graph.blocks_of[p] for p in graph.nodes]
        assert index.degree_vector().tolist() == [graph.degree[p] for p in graph.nodes]
        assert index.block_cardinality.tolist() == list(map(oracle.cardinality, inducing))
        assert index.block_entropy.tolist() == [block[3] for block in inducing]

    @settings(max_examples=60, deadline=None)
    @given(valid_collections())
    def test_csr_fields_equal_for_both_forms(self, blocks):
        # Encoded from Block values, or over vectors written by hand.
        built = [_fields(CSRBlockIndex.from_blocks(form)) for form in (blocks, as_columns(blocks))]
        assert len(built[0][0]) == 10 and built[0] == built[1]

    def test_meta_blockers_agree_on_ordered_output(self, monkeypatch):
        # Grouped, purged and filtered columns, or the same blocks decoded
        # and encoded again by the constructor.
        grouped = _chain()
        encoded = BlockCollection(list(grouped), clean_clean=grouped.clean_clean)
        assert rows(encoded) == rows(grouped)
        built = []
        original = Block.__init__

        def spy(self, *args, **kwargs):
            built.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(Block, "__init__", spy)
        forms = (grouped, encoded)
        for weighting, pruning in (("cbs", "wnp"), ("js", "cnp"), ("ecbs", "wep"), ("arcs", "cep")):
            runs = [MetaBlocker(weighting, pruning).run(form) for form in forms]
            assert list(runs[0].retained_edges.items()) == list(runs[1].retained_edges.items())
            streams = [
                [list(chunk) for chunk in MetaBlocker(weighting, pruning).stream_retained(form, 500)]
                for form in forms
            ]
            assert streams[0] == streams[1] and streams[0]
        with EngineContext(4) as context:
            parallel = [ParallelMetaBlocker(context, "cbs", "wnp").run(form) for form in forms]
        assert list(parallel[0].retained_edges.items()) == list(parallel[1].retained_edges.items())
        for progressive in (ProgressiveSortedComparisons("cbs"), ProgressiveNodeScheduling("cbs")):
            assert progressive.rank(grouped) == progressive.rank(encoded)
        assert built == []  # none of it decoded a Block

    def test_pickle_round_trip(self):
        blocks = _chain(120)
        restored = pickle.loads(pickle.dumps(blocks))
        assert restored.columns.keys == blocks.columns.keys
        assert [column.tobytes() for column in restored.columns[1:]] == [
            column.tobytes() for column in blocks.columns[1:]
        ]
        assert rows(restored) == rows(blocks)

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
        assert resumed.metric_rows() == whole.metric_rows()
        for key in keys:
            assert rows(resumed.artifacts.get(key)) == rows(whole.artifacts.get(key))

    def test_stage_metrics_are_plain_ints_and_equal_the_pair_set(self):
        blocks = _chain(200)
        listed = as_list(blocks)
        recorded = block_stage_metrics(blocks)
        assert recorded == {
            "blocks": len(listed),
            "candidate_pairs": len(brute_pairs(listed)),
            "total_comparisons": total(listed),
        }
        assert all(type(value) is int for value in recorded.values())

    def test_a_labelled_run_records_the_same_statistics_as_an_unlabelled_one(self):
        # With a ground truth the stage statistics read the pair set, without
        # one the counts; the shared columns must agree.
        dataset = generate_scalability_products(400, seed=7)
        labelled = SparkER().run(dataset.profiles, dataset.ground_truth)
        unlabelled = SparkER().run(dataset.profiles)
        assert labelled.candidate_pairs == unlabelled.candidate_pairs
        rows_with = labelled.pipeline_result.metric_rows()
        rows_without = unlabelled.pipeline_result.metric_rows()
        assert len(rows_with) == len(rows_without)
        for with_truth, without in zip(rows_with, rows_without):
            assert without.items() <= with_truth.items()

    @pytest.mark.parametrize("chunk", [1, 7, 1000])
    def test_distinct_comparisons_counted_across_chunks(self, monkeypatch, abt_buy_small, chunk):
        monkeypatch.setattr(block_module, "_PAIR_CHUNK", chunk)
        clean_clean = TokenBlocking().block(abt_buy_small.profiles)
        assert clean_clean.clean_clean
        for blocks in (_chain(200), clean_clean):
            counted = blocks.count_distinct_comparisons()
            pairs = blocks.distinct_comparisons()
            assert counted == len(pairs) > chunk and pairs == brute_pairs(as_list(blocks))
        for blocks in HAND_BUILT.values():
            listed = as_list(blocks)
            counted = as_columns(blocks).count_distinct_comparisons()
            pairs = as_columns(blocks).distinct_comparisons()
            assert counted == len(pairs) == len(brute_pairs(listed)) and pairs == brute_pairs(listed)

    @settings(max_examples=150, deadline=None)
    @given(overlapping_collections(), st.sampled_from(sorted(SPREADS)), st.sampled_from([1, 7, None]))
    def test_pair_codes_equal_the_brute_pairs(self, blocks, spread, chunk):
        """Both sides of a block may share a profile (the -1 code); the ids
        sit close, past an int32 square, near 2**40, or too far apart for
        offset codes, which alone takes the ranks of ``unique_inverse``."""
        moved = as_columns(BlockCollection(
            [
                Block(b.key, set(map(SPREADS[spread], b.profiles_source0)),
                      set(map(SPREADS[spread], b.profiles_source1)), b.entropy, b.is_clean_clean)
                for b in blocks
            ],
            clean_clean=blocks.clean_clean,
        ))
        expected = brute_pairs(as_list(moved))
        ranked = []
        with mock.patch.object(block_module, "_PAIR_CHUNK", chunk or block_module._PAIR_CHUNK), \
                mock.patch.object(backends, "unique_inverse", lambda v: ranked.append(v) or rank(v)):
            counted = moved.count_distinct_comparisons()
            pairs = as_columns(moved).distinct_comparisons()
        assert counted == len(pairs) == len(expected) and pairs == expected
        assert list(pairs) == sorted(expected)
        members = moved.columns.members.tolist()
        span = max(members) - min(members) + 1 if members else 1
        assert bool(ranked) == (span * span >= 2**63) and (not ranked or spread == "ranks")

    def test_counting_pairs_at_scale_beats_building_the_pair_set(self):
        # 10^4 entities, raw stage: 1.1M pairs, as a set of tuples and as a
        # count; the chunks must merge in one sort, not by re-deduplicating a
        # growing accumulator per chunk.
        profiles = generate_scalability_products(10_000, seed=7).profiles
        blocks = TokenBlocking().block(profiles)
        listed = as_list(blocks)
        started = time.perf_counter()
        expected = len(brute_pairs(listed))
        set_seconds = time.perf_counter() - started
        count_seconds = []
        for _rep in range(2):
            fresh = TokenBlocking().block(profiles)  # no count kept yet
            started = time.perf_counter()
            assert fresh.count_distinct_comparisons() == expected
            count_seconds.append(time.perf_counter() - started)
        assert expected > 10**6 and min(count_seconds) < set_seconds

    def test_a_failed_conversion_keeps_the_columns(self, monkeypatch):
        blocks = _chain(120)
        columns, expected = blocks.columns, rows(blocks)

        def boom(self, *args, **kwargs):
            raise MemoryError

        # A decode that fails part way leaves the collection as it was ...
        with monkeypatch.context() as patched:
            patched.setattr(Block, "__init__", boom)
            with pytest.raises(MemoryError):
                blocks.blocks
            with pytest.raises(MemoryError):
                blocks[0]
        assert blocks.columns is columns and rows(blocks) == expected
        # ... and so does a failed add.
        with pytest.raises(BlockingError):
            blocks.add("not a block")
        assert blocks.columns is columns and len(blocks) == len(expected[1])


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
        list(TokenBlocking().block(generate_scalability_products(40, seed=3).profiles))
        assert len(built_blocks) > 0  # the spy does see a decode


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
