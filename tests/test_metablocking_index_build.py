"""Building the CSR index against a definition-level decode of the fields.

The flatten–sort–scan array builder fills
:class:`~repro.metablocking.index.CSRBlockIndex`; its fields must agree with
what they *mean* — checked by decoding the offset arrays back into blocks and
per-profile entry lists with code that shares nothing with the builder.
Collections are Hypothesis-generated: dirty and clean-clean, sparse and large
profile ids, a profile listed on both sides of one block, blocks that induce
no comparison interleaved with valid ones, zero blocks.

The second half pins that the build sorts no block in python, that the
index survives transport, and that no numpy scalar leaves it.
"""

from __future__ import annotations

import json
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.blocking.block import Block, BlockCollection
from repro.data.synthetic import generate_scalability_products
from repro.metablocking import index as index_module
from repro.metablocking.index import _SHARED_FIELDS, CSRBlockIndex, IncrementalBlockIndex
from repro.metablocking.metablocker import MetaBlocker
from repro.metablocking.pruning import IndexStats, WeightedNodePruning
from repro.service import CollectionConfig, ServiceCollection

from tests.test_metablocking_incremental import (
    _assert_bit_identical,
    _batch_index,
    _random_profiles,
)
from tests.test_metablocking_parallel import _prepared_blocks

FIELDS = [field for field, _typecode in _SHARED_FIELDS]


def _fields(index: CSRBlockIndex) -> dict:
    """Every built field as plain python lists."""
    decoded = {field: getattr(index, field).tolist() for field in FIELDS}
    decoded["node_ids"] = index.node_ids
    return decoded


# ---------------------------------------------------------------------------
# generated collections
# ---------------------------------------------------------------------------
@st.composite
def block_collections(draw):
    """A collection over a pool of sparse (and some huge) profile ids."""
    clean_clean = draw(st.booleans())
    pool = draw(
        st.lists(
            st.one_of(st.integers(0, 40), st.integers(2**40, 2**62)),
            min_size=1,
            max_size=10,
            unique=True,
        )
    )
    members = st.sets(st.sampled_from(pool), max_size=6)
    collection = BlockCollection(clean_clean=clean_clean)
    for number in range(draw(st.integers(0, 8))):
        collection.add(
            Block(
                key=f"b{number}",
                profiles_source0=draw(members),
                # The two sides are drawn independently: they may overlap
                # (a profile on both sides) and either may come out empty.
                profiles_source1=draw(members) if clean_clean else set(),
                entropy=draw(st.floats(0.05, 4.0)),
                # A dirty-flagged block in a clean-clean collection pairs its
                # left side with itself as long as its right side is empty.
                clean_clean=clean_clean and draw(st.booleans()),
            )
        )
    return collection


# ---------------------------------------------------------------------------
# what the fields mean, decoded without the builder
# ---------------------------------------------------------------------------
def expected_blocks(collection):
    """``(left, right, clean, cardinality, entropy)`` per block that compares."""
    kept = []
    for block in collection:
        left, right = sorted(block.profiles_source0), sorted(block.profiles_source1)
        clean = block.clean_clean or bool(right)
        cardinality = len(left) * len(right) if clean else len(left) * (len(left) - 1) // 2
        if cardinality:
            kept.append((left, right, clean, cardinality, block.entropy))
    return kept


def decode_blocks(fields):
    """``(left, right, clean)`` of every stored block, as profile ids."""
    ids = fields["node_ids"]
    offsets, nodes = fields["block_offsets"], fields["block_nodes"]
    decoded = []
    for number, split in enumerate(fields["block_split"]):
        members = [ids[dense] for dense in nodes[offsets[number] : offsets[number + 1]]]
        if split < 0:
            decoded.append((members, [], False))
        else:
            decoded.append((members[:split], members[split:], True))
    return decoded


def decode_entries(fields):
    """profile id → its ``(block, side)`` list, in stored order."""
    offsets, entries = fields["node_block_offsets"], fields["node_block_entries"]
    return {
        profile_id: [
            (entry >> 1, entry & 1) for entry in entries[offsets[dense] : offsets[dense + 1]]
        ]
        for dense, profile_id in enumerate(fields["node_ids"])
    }


def check_against_definition(fields, collection):
    kept = expected_blocks(collection)
    assert decode_blocks(fields) == [(left, right, clean) for left, right, clean, *_ in kept]
    assert fields["block_cardinality"] == [cardinality for *_, cardinality, _ in kept]
    assert fields["block_inv_cardinality"] == [1.0 / cardinality for *_, cardinality, _ in kept]
    assert fields["block_entropy"] == [entropy for *_, entropy in kept]

    memberships: dict = {}
    for number, (left, right, *_rest) in enumerate(kept):
        for side, side_members in enumerate((left, right)):
            for profile_id in side_members:
                memberships.setdefault(profile_id, []).append((number, side))
    assert fields["node_ids"] == sorted(memberships)
    assert decode_entries(fields) == memberships
    assert fields["node_block_count"] == [
        len({number for number, _side in memberships[profile_id]})
        for profile_id in fields["node_ids"]
    ]
    assert len(fields["block_offsets"]) == len(kept) + 1
    assert len(fields["node_block_offsets"]) == len(memberships) + 1


# ---------------------------------------------------------------------------
# the builder against the definition
# ---------------------------------------------------------------------------
class TestBuilders:
    @settings(max_examples=150, deadline=None)
    @given(block_collections())
    def test_array_builder_matches_the_definition(self, collection):
        built = CSRBlockIndex.from_blocks(collection)
        check_against_definition(_fields(built), collection)
        for field, typecode in _SHARED_FIELDS:
            buffer = getattr(built, field)
            assert isinstance(buffer, np.ndarray), field
            assert buffer.dtype == (np.int64 if typecode == "q" else np.float64), field
        assert type(built.node_ids) is list
        assert all(type(profile_id) is int for profile_id in built.node_ids)
        assert built.node_of == {profile_id: dense for dense, profile_id in enumerate(built.node_ids)}
        assert (built.total_blocks, built.clean_clean) == (len(collection), collection.clean_clean)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_member_order_of_the_input_is_irrelevant(self, seed):
        """The input contract: member collections arrive unsorted."""
        rng = random.Random(seed)
        sides0 = [rng.sample(range(0, 90, 3), rng.randint(1, 6)) for _ in range(12)]
        sides1 = [rng.sample(range(1, 90, 3), rng.randint(1, 6)) for _ in range(12)]
        entropies = [rng.random() + 0.1 for _ in range(12)]

        def build(left, right):
            return CSRBlockIndex._from_valid_blocks(
                left, right, entropies, [True] * 12,
                clean_clean=True, total_blocks=12,
            )

        shuffled = build(sides0, sides1)
        ordered = build([sorted(side) for side in sides0], [set(side) for side in sides1])
        try:
            assert _fields(shuffled) == _fields(ordered)
        finally:
            shuffled.close()
            ordered.close()

    def test_zero_blocks(self):
        index = CSRBlockIndex.from_blocks(BlockCollection())
        try:
            assert _fields(index) == {
                **{field: [] for field in FIELDS},
                "node_block_offsets": [0],
                "block_offsets": [0],
                "node_ids": [],
            }
            assert MetaBlocker("cbs", "wnp").run(BlockCollection()).retained_edges == {}
        finally:
            index.close()


# ---------------------------------------------------------------------------
# compaction is a from-scratch build
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("clean_clean", [False, True])
@pytest.mark.parametrize("seed", [5, 17])
def test_compact_after_random_batches_equals_from_blocks(clean_clean, seed):
    rng = random.Random(seed)
    profiles = _random_profiles(70, clean_clean=clean_clean, seed=seed)
    incremental = IncrementalBlockIndex(clean_clean=clean_clean)
    try:
        start = 0
        while start < len(profiles):
            stop = start + rng.randint(1, 20)
            incremental.append_profiles(profiles[start:stop])
            if rng.random() < 0.4:
                incremental.compact()  # dirty and cached tokens then mix
            start = stop
        reference = _batch_index(profiles, clean_clean=clean_clean)
        try:
            _assert_bit_identical(incremental.materialise(), reference)
        finally:
            reference.close()
    finally:
        incremental.close()


# ---------------------------------------------------------------------------
# transport and failure of an index
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def blocks_400():
    return _prepared_blocks(generate_scalability_products(400, seed=7))


class TestArrayBuiltIndexTransport:
    def test_pickle_roundtrip_reproduces_the_fields(self, blocks_400):
        index = CSRBlockIndex.from_blocks(blocks_400)
        try:
            clone = pickle.loads(pickle.dumps(index, protocol=pickle.HIGHEST_PROTOCOL))
            assert _fields(clone) == _fields(index)
            assert clone.node_of == index.node_of
            assert clone.kernel().neighbours(3) == index.kernel().neighbours(3)
        finally:
            index.close()

    def test_export_shared_then_attach_reproduces_the_fields(self, blocks_400):
        index = CSRBlockIndex.from_blocks(blocks_400)
        index.export_shared()
        try:
            attached = pickle.loads(pickle.dumps(index))
            expected = _fields(index)
            assert attached.node_ids.tolist() == expected.pop("node_ids")
            assert {field: getattr(attached, field).tolist() for field in FIELDS} == expected
        finally:
            index.close()


def test_array_build_sorts_no_block_in_python(blocks_400, monkeypatch):
    calls = []

    def counting_sorted(iterable, **kwargs):
        calls.append(1)
        return sorted(iterable, **kwargs)

    # A module global shadows the builtin for everything index.py runs.
    monkeypatch.setattr(index_module, "sorted", counting_sorted, raising=False)
    CSRBlockIndex.from_blocks(blocks_400).close()
    assert calls == []


# ---------------------------------------------------------------------------
# no numpy scalar leaves the index
# ---------------------------------------------------------------------------
class _CustomPruning(WeightedNodePruning):
    """A subclass: retention runs its own (dict-form) ``prune``."""


class TestPlainPythonValues:
    def test_results_graph_counts_and_stats(self, blocks_400):
        for pruning in ("wnp", "cep", _CustomPruning()):
            result = MetaBlocker("js", pruning).run(blocks_400)
            assert result.retained_edges
            for (a, b), weight in result.retained_edges.items():
                assert (type(a), type(b), type(weight)) == (int, int, float)
            assert type(result.graph_nodes) is int and type(result.graph_edges) is int
        index = CSRBlockIndex.from_blocks(blocks_400)
        try:
            counts = IndexStats(index).blocks_per_profile
            assert counts and all(
                type(profile_id) is int and type(count) is int
                for profile_id, count in counts.items()
            )
            assert type(index.num_blocks) is int
            assert type(index.num_edges()) is int
            assert type(index.num_nodes) is int
        finally:
            index.close()

    def test_service_payloads_serialise(self):
        collection = ServiceCollection(CollectionConfig(name="c"))
        try:
            profiles = _random_profiles(50, clean_clean=False, seed=29)
            for batch in (profiles[:30], profiles[30:]):
                collection.ingest(
                    {
                        "profiles": [
                            {
                                "id": profile.profile_id,
                                "attributes": {
                                    "name": [kv.value for kv in profile.attributes]
                                },
                            }
                            for profile in batch
                        ]
                    }
                )
                candidates = collection.candidates(batch[0].profile_id)
                matches = collection.matches(batch[0].profile_id, 25)
                assert json.loads(json.dumps(candidates)) == candidates
                assert json.loads(json.dumps(matches)) == matches
            assert matches["candidates"]
        finally:
            collection.close()
