"""Building the CSR index: the array builder against the scalar builder and
against a definition-level decode of the fields.

Two builders fill :class:`~repro.metablocking.index.CSRBlockIndex`: the
scalar one (python kernel, always available) and the flatten–sort–scan array
builder (numpy kernel).  They must agree element for element, and both must
agree with what the fields *mean* — checked by decoding the offset arrays back
into blocks and per-profile entry lists with code that shares nothing with
either builder.  Collections are Hypothesis-generated: dirty and clean-clean,
sparse and large profile ids, a profile listed on both sides of one block,
blocks that induce no comparison interleaved with valid ones, zero blocks.

The second half pins which builder runs when (a count guard: deterministic,
so it runs in tier-1) and that no numpy scalar leaves the index.
"""

from __future__ import annotations

import json
import os
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.blocking.block import Block, BlockCollection
from repro.data.synthetic import generate_scalability_products
from repro.engine.context import EngineContext
from repro.metablocking import index as index_module
from repro.metablocking.backends import numpy_available
from repro.metablocking.graph import blocking_graph_from_index
from repro.metablocking.index import _SHARED_FIELDS, CSRBlockIndex, IncrementalBlockIndex
from repro.metablocking.metablocker import MetaBlocker
from repro.metablocking.parallel import ParallelMetaBlocker
from repro.metablocking.progressive import (
    ProgressiveNodeScheduling,
    ProgressiveSortedComparisons,
)
from repro.metablocking.pruning import IndexStats, WeightedNodePruning
from repro.options import EngineOptions
from repro.service import CollectionConfig, ServiceCollection

from tests.test_metablocking_incremental import (
    _assert_bit_identical,
    _batch_index,
    _random_profiles,
)
from tests.test_metablocking_parallel import _prepared_blocks

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="numpy backend requires numpy"
)

# (kernel backend, buffer backend) — memmap needs numpy whatever the kernel.
BACKENDS = [
    pytest.param(("python", "ram"), id="python"),
    pytest.param(("numpy", "ram"), marks=needs_numpy, id="numpy-ram"),
    pytest.param(("numpy", "memmap"), marks=needs_numpy, id="numpy-memmap"),
]
FIELDS = [field for field, _typecode in _SHARED_FIELDS]


def _options(backend, tmp_dir=None) -> EngineOptions:
    kernel, buffer_backend = backend
    return EngineOptions.resolve(
        kernel_backend=kernel,
        buffer_backend=buffer_backend,
        tmp_dir=None if tmp_dir is None else str(tmp_dir),
    )


def _fields(index: CSRBlockIndex) -> dict:
    """Every built field as plain python lists (stdlib array or ndarray)."""
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
# what the fields mean, decoded without either builder
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
# (a) + (b): the builders against each other and against the definition
# ---------------------------------------------------------------------------
class TestBuilders:
    @settings(max_examples=150, deadline=None)
    @given(block_collections())
    def test_scalar_builder_matches_the_definition(self, collection):
        index = CSRBlockIndex.from_blocks(collection, _options(("python", "ram")))
        check_against_definition(_fields(index), collection)
        assert index.total_blocks == len(collection)

    @needs_numpy
    @settings(max_examples=150, deadline=None)
    @given(block_collections())
    def test_array_builder_matches_scalar_builder_and_definition(self, collection):
        import numpy as np

        scalar = CSRBlockIndex.from_blocks(collection, _options(("python", "ram")))
        built = CSRBlockIndex.from_blocks(collection, _options(("numpy", "ram")))
        assert _fields(built) == _fields(scalar)
        check_against_definition(_fields(built), collection)
        for field, typecode in _SHARED_FIELDS:
            buffer = getattr(built, field)
            assert isinstance(buffer, np.ndarray), field
            assert buffer.dtype == (np.int64 if typecode == "q" else np.float64), field
        assert type(built.node_ids) is list
        assert all(type(profile_id) is int for profile_id in built.node_ids)
        assert built.node_of == scalar.node_of  # lazy under the array builder
        assert (built.total_blocks, built.clean_clean) == (
            scalar.total_blocks,
            scalar.clean_clean,
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_member_order_of_the_input_is_irrelevant(self, backend, seed, tmp_path):
        """The input contract: member collections arrive unsorted."""
        rng = random.Random(seed)
        sides0 = [rng.sample(range(0, 90, 3), rng.randint(1, 6)) for _ in range(12)]
        sides1 = [rng.sample(range(1, 90, 3), rng.randint(1, 6)) for _ in range(12)]
        entropies = [rng.random() + 0.1 for _ in range(12)]

        def build(left, right):
            return CSRBlockIndex._from_valid_blocks(
                left, right, entropies, [True] * 12,
                clean_clean=True, total_blocks=12, options=_options(backend, tmp_path),
            )

        shuffled = build(sides0, sides1)
        ordered = build([sorted(side) for side in sides0], [set(side) for side in sides1])
        try:
            assert _fields(shuffled) == _fields(ordered)
        finally:
            shuffled.close()
            ordered.close()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_zero_blocks(self, backend, tmp_path):
        index = CSRBlockIndex.from_blocks(BlockCollection(), _options(backend, tmp_path))
        try:
            assert _fields(index) == {
                **{field: [] for field in FIELDS},
                "node_block_offsets": [0],
                "block_offsets": [0],
                "node_ids": [],
            }
            assert MetaBlocker("cbs", "wnp", options=_options(backend, tmp_path)).run(
                BlockCollection()
            ).retained_edges == {}
        finally:
            index.close()


# ---------------------------------------------------------------------------
# (c): compaction is a from-scratch build
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("clean_clean", [False, True])
@pytest.mark.parametrize("seed", [5, 17])
def test_compact_after_random_batches_equals_from_blocks(backend, clean_clean, seed, tmp_path):
    rng = random.Random(seed)
    profiles = _random_profiles(70, clean_clean=clean_clean, seed=seed)
    options = _options(backend, tmp_path)
    incremental = IncrementalBlockIndex(clean_clean=clean_clean, options=options)
    try:
        start = 0
        while start < len(profiles):
            stop = start + rng.randint(1, 20)
            incremental.append_profiles(profiles[start:stop])
            if rng.random() < 0.4:
                incremental.compact()  # dirty and cached tokens then mix
            start = stop
        reference = _batch_index(profiles, clean_clean=clean_clean, options=options)
        try:
            _assert_bit_identical(incremental.materialise(), reference)
        finally:
            reference.close()
    finally:
        incremental.close()
    assert os.listdir(tmp_path) == []


# ---------------------------------------------------------------------------
# (d): transport and failure of an array-built index
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def blocks_400():
    return _prepared_blocks(generate_scalability_products(400, seed=7))


@needs_numpy
class TestArrayBuiltIndexTransport:
    @pytest.mark.parametrize("buffer_backend", ["ram", "memmap"])
    def test_pickle_roundtrip_reproduces_the_fields(self, blocks_400, buffer_backend, tmp_path):
        index = CSRBlockIndex.from_blocks(
            blocks_400, _options(("numpy", buffer_backend), tmp_path)
        )
        try:
            clone = pickle.loads(pickle.dumps(index, protocol=pickle.HIGHEST_PROTOCOL))
            assert _fields(clone) == _fields(index)
            assert clone.node_of == index.node_of
            assert clone.kernel().neighbours(3) == index.kernel().neighbours(3)
        finally:
            index.close()

    def test_export_shared_then_attach_reproduces_the_fields(self, blocks_400):
        index = CSRBlockIndex.from_blocks(blocks_400, _options(("numpy", "ram")))
        index.export_shared()
        try:
            attached = pickle.loads(pickle.dumps(index))
            expected = _fields(index)
            assert attached.node_ids.tolist() == expected.pop("node_ids")
            assert {field: getattr(attached, field).tolist() for field in FIELDS} == expected
        finally:
            index.close()

    def test_failed_build_leaves_no_buffer_file(self, blocks_400, tmp_path, monkeypatch):
        """An error while the arrays are written out discards the file."""
        import numpy as np

        def boom(self):
            raise RuntimeError("injected flush failure")

        monkeypatch.setattr(np.memmap, "flush", boom)
        with pytest.raises(RuntimeError, match="injected"):
            CSRBlockIndex.from_blocks(blocks_400, _options(("numpy", "memmap"), tmp_path))
        assert [name for name in os.listdir(tmp_path) if name.startswith("repro-csrbuf-")] == []


# ---------------------------------------------------------------------------
# which builder runs when (counts repeat exactly)
# ---------------------------------------------------------------------------
class TestBuilderDispatch:
    @pytest.fixture
    def scalar_builds(self, monkeypatch):
        calls = []
        original = CSRBlockIndex._populate

        def spy(index, *columns):
            calls.append(index.backend)
            return original(index, *columns)

        monkeypatch.setattr(CSRBlockIndex, "_populate", staticmethod(spy))
        return calls

    @staticmethod
    def _builds(options, blocks):
        """One call per index-building entry point; returns how many."""
        MetaBlocker("cbs", "wnp", options=options).run(blocks)
        for _chunk in MetaBlocker("cbs", "wnp", options=options).stream_retained(blocks):
            pass
        for executor in ("serial", "process:2"):
            with EngineContext(4, executor=executor, options=options) as context:
                ParallelMetaBlocker(context, "cbs", "wnp").run(blocks)
        next(ProgressiveSortedComparisons("cbs", options=options).stream(blocks))
        next(ProgressiveNodeScheduling("cbs", options=options).stream(blocks))
        incremental = IncrementalBlockIndex(options=options)
        incremental.append_profiles(_random_profiles(30, clean_clean=False, seed=3))
        incremental.compact()
        incremental.close()
        return 7

    @needs_numpy
    def test_numpy_kernel_never_runs_the_scalar_builder(self, blocks_400, scalar_builds):
        self._builds(EngineOptions.resolve(kernel_backend="numpy"), blocks_400)
        assert scalar_builds == []

    def test_python_kernel_runs_it_once_per_build(self, blocks_400, scalar_builds):
        builds = self._builds(EngineOptions.resolve(kernel_backend="python"), blocks_400)
        assert scalar_builds == ["python"] * builds

    @needs_numpy
    def test_array_build_sorts_no_block_in_python(self, blocks_400, monkeypatch):
        calls = []

        def counting_sorted(iterable, **kwargs):
            calls.append(1)
            return sorted(iterable, **kwargs)

        # A module global shadows the builtin for everything index.py runs.
        monkeypatch.setattr(index_module, "sorted", counting_sorted, raising=False)
        CSRBlockIndex.from_blocks(blocks_400, EngineOptions.resolve(kernel_backend="numpy"))
        assert calls == []
        CSRBlockIndex.from_blocks(blocks_400, EngineOptions.resolve(kernel_backend="python"))
        assert len(calls) > len(blocks_400)  # the spy does see the scalar builder


# ---------------------------------------------------------------------------
# no numpy scalar leaves the index
# ---------------------------------------------------------------------------
class _CustomPruning(WeightedNodePruning):
    """A subclass: routes meta-blocking through the graph (scalar) path."""


@pytest.mark.parametrize("backend", BACKENDS)
class TestPlainPythonValues:
    def test_results_graph_counts_and_stats(self, blocks_400, backend, tmp_path):
        options = _options(backend, tmp_path)
        for pruning in ("wnp", "cep", _CustomPruning()):
            result = MetaBlocker("js", pruning, options=options).run(blocks_400)
            assert result.retained_edges
            for (a, b), weight in result.retained_edges.items():
                assert (type(a), type(b), type(weight)) == (int, int, float)
            assert type(result.graph_nodes) is int and type(result.graph_edges) is int
        index = CSRBlockIndex.from_blocks(blocks_400, options)
        try:
            graph = blocking_graph_from_index(
                index, clean_clean=blocks_400.clean_clean, num_blocks=len(blocks_400)
            )
            for counts in (graph.blocks_per_profile, IndexStats(index).blocks_per_profile):
                assert counts and all(
                    type(profile_id) is int and type(count) is int
                    for profile_id, count in counts.items()
                )
            assert type(index.num_blocks) is int
            assert type(index.num_edges()) is int
            assert type(index.num_nodes) is int
        finally:
            index.close()

    def test_service_payloads_serialise(self, backend, tmp_path):
        kernel, buffer_backend = backend
        collection = ServiceCollection(
            CollectionConfig(
                name="c",
                kernel_backend=kernel,
                buffer_backend=buffer_backend,
                tmp_dir=str(tmp_path),
            )
        )
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
