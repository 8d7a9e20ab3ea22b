"""Incremental CSR index: append/compact parity with the batch builder.

The core contract of :class:`~repro.metablocking.index.IncrementalBlockIndex`
is *bit-for-bit* equivalence: appending profiles in any batching and then
compacting must produce exactly the CSR that
``CSRBlockIndex.from_blocks(TokenBlocking(...).block(union))`` builds from
scratch — every shared buffer byte-identical, across buffer backends — and
every downstream consumer (meta-blocking, progressive
streams, the delta refresher) must therefore agree on the union collection.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.blocking.token_blocking import TokenBlocking
from repro.data.dataset import ProfileCollection
from repro.data.profile import EntityProfile
from repro.exceptions import DataError
from repro.metablocking.index import (
    _SHARED_FIELDS,
    AppendDelta,
    CSRBlockIndex,
    IncrementalBlockIndex,
)
from repro.metablocking.metablocker import MetaBlocker
from repro.metablocking.progressive import ProgressiveSortedComparisons
from repro.service.delta import DeltaMetaBlocker

_WORDS = [
    "alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf",
    "hotel", "india", "juliet", "kilo", "lima", "mike", "november",
]


def _random_profiles(count: int, *, clean_clean: bool, seed: int, start_id: int = 0):
    """Messy profiles: shared tokens, singleton tokens, empty profiles."""
    rng = random.Random(seed)
    profiles = []
    for offset in range(count):
        profile_id = start_id + offset
        source = rng.randrange(2) if clean_clean else 0
        profile = EntityProfile(profile_id, f"orig-{profile_id}", source)
        for _ in range(rng.randint(0, 4)):
            profile.add("name", " ".join(rng.sample(_WORDS, rng.randint(1, 3))))
        if rng.random() < 0.3:
            profile.add("unique", f"token{profile_id}only")
        profiles.append(profile)
    return profiles


def _batch_index(profiles, *, clean_clean):
    union = ProfileCollection(profiles)
    blocks = TokenBlocking().block(union)
    assert blocks.clean_clean == clean_clean or not profiles
    return CSRBlockIndex.from_blocks(blocks)


def _assert_bit_identical(built: CSRBlockIndex, reference: CSRBlockIndex):
    assert built.node_ids == reference.node_ids
    assert built.total_blocks == reference.total_blocks
    for field, _typecode in _SHARED_FIELDS:
        assert (
            getattr(built, field).tobytes() == getattr(reference, field).tobytes()
        ), f"buffer {field} differs from the from-scratch build"


@pytest.mark.parametrize("clean_clean", [False, True])
class TestCompactionParity:
    def test_append_then_compact_matches_batch_build(self, clean_clean):
        """Multi-batch append + compact ≡ one from-scratch build (bit-for-bit)."""
        profiles = _random_profiles(90, clean_clean=clean_clean, seed=7)
        incremental = IncrementalBlockIndex(clean_clean=clean_clean)
        try:
            for start in range(0, len(profiles), 25):
                incremental.append_profiles(profiles[start : start + 25])
            built = incremental.materialise()
            reference = _batch_index(profiles, clean_clean=clean_clean)
            try:
                _assert_bit_identical(built, reference)
            finally:
                reference.close()
        finally:
            incremental.close()

    def test_intermediate_compactions_do_not_change_the_result(self, clean_clean):
        """Compacting after every batch equals compacting once at the end."""
        profiles = _random_profiles(60, clean_clean=clean_clean, seed=11)
        eager = IncrementalBlockIndex(clean_clean=clean_clean, compact_every=10)
        lazy = IncrementalBlockIndex(clean_clean=clean_clean)
        try:
            for start in range(0, len(profiles), 15):
                batch = profiles[start : start + 15]
                eager.append_profiles(batch)
                lazy.append_profiles(batch)
            assert eager.compactions >= 4
            _assert_bit_identical(eager.materialise(), lazy.materialise())
            assert lazy.compactions == 1
        finally:
            eager.close()
            lazy.close()


def test_append_then_query_equals_batch_query_on_union():
    """Meta-blocking and progressive streams agree with the batch union run."""
    profiles = _random_profiles(80, clean_clean=False, seed=23)
    incremental = IncrementalBlockIndex()
    try:
        incremental.append_profiles(profiles[:50])
        incremental.materialise()  # query between appends, then grow
        incremental.append_profiles(profiles[50:])
        index = incremental.materialise()

        union = ProfileCollection(profiles)
        blocks = TokenBlocking().block(union)
        batch = MetaBlocker("js", "wnp").run(blocks)
        served = DeltaMetaBlocker("js", "wnp").refresh(index)
        assert list(served.items()) == list(batch.retained_edges.items())

        progressive = ProgressiveSortedComparisons("cbs")
        assert list(progressive.stream_index(index)) == list(
            progressive.stream(blocks)
        )
    finally:
        incremental.close()


class TestIncrementalBehaviour:
    def test_append_returns_the_touched_delta(self):
        incremental = IncrementalBlockIndex()
        first = EntityProfile(0, "a")
        first.add("name", "alpha bravo")
        second = EntityProfile(1, "b")
        second.add("name", "bravo charlie")
        delta = incremental.append_profiles([first, second])
        assert isinstance(delta, AppendDelta)
        assert delta.new_profile_ids == (0, 1)
        assert delta.touched_tokens == frozenset({"alpha", "bravo", "charlie"})
        # Both profiles share "bravo", so both are touched.
        assert delta.touched_profile_ids == frozenset({0, 1})

        third = EntityProfile(2, "c")
        third.add("name", "delta")
        lone = incremental.append_profiles([third])
        assert lone.touched_profile_ids == frozenset({2})
        incremental.close()

    def test_profile_ids_must_strictly_increase(self):
        incremental = IncrementalBlockIndex()
        profile = EntityProfile(5, "x")
        profile.add("name", "alpha")
        incremental.append_profiles([profile])
        with pytest.raises(DataError, match="strictly increasing"):
            incremental.append_profiles([EntityProfile(5, "dup")])
        with pytest.raises(DataError, match="strictly increasing"):
            incremental.append_profiles([EntityProfile(3, "past")])
        assert incremental.has_profile(5)
        assert not incremental.has_profile(3)
        incremental.close()

    def test_materialise_is_cached_until_the_next_append(self):
        incremental = IncrementalBlockIndex()
        profile = EntityProfile(0, "a")
        profile.add("name", "alpha bravo")
        incremental.append_profiles([profile])
        assert incremental.is_stale
        first = incremental.materialise()
        assert incremental.materialise() is first
        assert not incremental.is_stale
        follow = EntityProfile(1, "b")
        follow.add("name", "bravo")
        incremental.append_profiles([follow])
        assert incremental.is_stale
        assert incremental.materialise() is not first
        incremental.close()

    def test_pickle_round_trip_rebuilds_the_same_csr(self):
        profiles = _random_profiles(40, clean_clean=True, seed=3)
        incremental = IncrementalBlockIndex(clean_clean=True)
        incremental.append_profiles(profiles)
        original = incremental.materialise()
        clone = pickle.loads(pickle.dumps(incremental))
        assert clone.is_stale  # the CSR itself is not shipped
        assert clone.profile_ids() == incremental.profile_ids()
        _assert_bit_identical(clone.materialise(), original)
        clone.close()
        incremental.close()


class TestCloseHardening:
    def test_close_is_idempotent(self):
        incremental = IncrementalBlockIndex()
        profile = EntityProfile(0, "a")
        profile.add("name", "alpha bravo")
        incremental.append_profiles([profile])
        index = incremental.materialise()
        index.close()
        index.close()
        incremental.close()
        incremental.close()

    def test_close_on_never_materialised_index_is_safe(self):
        incremental = IncrementalBlockIndex()
        incremental.close()
        # A CSRBlockIndex that never ran a builder (e.g. unpickling target)
        # must also close without touching missing attributes.
        bare = CSRBlockIndex.__new__(CSRBlockIndex)
        bare.close()
        bare.close()

    def test_failed_build_leaves_the_overlay_intact(self, monkeypatch):
        """A build error mid-materialisation keeps the overlay retryable."""
        incremental = IncrementalBlockIndex()
        profile = EntityProfile(0, "a")
        profile.add("name", "alpha bravo")
        incremental.append_profiles([profile])

        def boom(*_args, **_kwargs):
            raise RuntimeError("injected build failure")

        monkeypatch.setattr(CSRBlockIndex, "_populate_arrays", staticmethod(boom))
        with pytest.raises(RuntimeError, match="injected"):
            incremental.materialise()
        monkeypatch.undo()
        # The overlay is intact: a retry after the injected failure succeeds
        # (one lone profile induces no comparisons, so the index is empty).
        index = incremental.materialise()
        assert index.num_nodes == 0
        incremental.close()
