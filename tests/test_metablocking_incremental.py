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

import ast
import pickle
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.blocking.token_blocking import TokenBlocking
from repro.data.dataset import ProfileCollection
from repro.data.profile import EntityProfile
from repro.exceptions import DataError
from repro.metablocking.index import (
    ARRAY_FIELDS,
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
    for field in ARRAY_FIELDS:
        assert (
            getattr(built, field).tobytes() == getattr(reference, field).tobytes()
        ), f"buffer {field} differs from the from-scratch build"


@pytest.mark.parametrize("clean_clean", [False, True])
class TestCompactionParity:
    def test_append_then_compact_matches_batch_build(self, clean_clean):
        """Multi-batch append + compact ≡ one from-scratch build (bit-for-bit)."""
        profiles = _random_profiles(90, clean_clean=clean_clean, seed=7)
        incremental = IncrementalBlockIndex(clean_clean=clean_clean)
        for start in range(0, len(profiles), 25):
            incremental.append_profiles(profiles[start : start + 25])
        built = incremental.materialise()
        reference = _batch_index(profiles, clean_clean=clean_clean)
        _assert_bit_identical(built, reference)

    def test_intermediate_compactions_do_not_change_the_result(self, clean_clean):
        """Compacting after every batch equals compacting once at the end."""
        profiles = _random_profiles(60, clean_clean=clean_clean, seed=11)
        eager = IncrementalBlockIndex(clean_clean=clean_clean, compact_every=10)
        lazy = IncrementalBlockIndex(clean_clean=clean_clean)
        for start in range(0, len(profiles), 15):
            batch = profiles[start : start + 15]
            eager.append_profiles(batch)
            lazy.append_profiles(batch)
        assert eager.compactions >= 4
        _assert_bit_identical(eager.materialise(), lazy.materialise())
        assert lazy.compactions == 1


def test_append_then_query_equals_batch_query_on_union():
    """Meta-blocking and progressive streams agree with the batch union run."""
    profiles = _random_profiles(80, clean_clean=False, seed=23)
    incremental = IncrementalBlockIndex()
    incremental.append_profiles(profiles[:50])
    incremental.materialise()  # query between appends, then grow
    incremental.append_profiles(profiles[50:])
    index = incremental.materialise()

    union = ProfileCollection(profiles)
    blocks = TokenBlocking().block(union)
    batch = MetaBlocker("js", "wnp").run(blocks)
    table = index.kernel().weight_arrays(index.weight_plan("js", use_entropy=False))
    served = DeltaMetaBlocker("js", "wnp").refresh(index, table)
    assert list(served.items()) == list(batch.retained_edges.items())

    progressive = ProgressiveSortedComparisons("cbs")
    assert list(progressive.stream_index(index)) == list(
        progressive.stream(blocks)
    )


# Words for both tokeniser buffers (ASCII and not: an accent, a sharp s, a
# ligature, Greek, CJK), stop-words, one- and two-letter tokens, a NUL inside
# a value, and a value with no token at all.
_VOCABULARY = [
    "alpha", "Bravo", "tv", "a", "ab", "the", "and", "x1", "snake_case", "--", "fine",
    "tv\x00set", "café", "CAFE", "straße", "ﬁne", "ΟΔΟΣ",
    "東京",
]


def _profile(profile_id, source_id, *values):
    profile = EntityProfile(profile_id, f"p{profile_id}", source_id)
    for value in values:
        profile.add("name", value)
    return profile


@st.composite
def _batch_sequences(draw):
    """Batches of profiles with strictly increasing, gappy ids."""
    next_id, batches = 0, []
    for _ in range(draw(st.integers(1, 4))):
        batch = []
        for _ in range(draw(st.integers(0, 5))):
            next_id += draw(st.integers(1, 3))
            words = st.lists(st.sampled_from(_VOCABULARY), max_size=4).map(" ".join)
            values = draw(st.lists(words, max_size=3))
            batch.append(_profile(next_id, draw(st.integers(0, 1)), *values))
        batches.append(batch)
    return batches


# ASCII and non-ASCII batches in turn, a NUL inside a value, tokenless profiles.
_MIXED_BATCHES = [
    [_profile(0, 0, "alpha tv the"), _profile(1, 1, "Alpha café"), _profile(2, 0, "--")],
    [_profile(4, 0, "tv\x00set alpha"), _profile(5, 1, "set ab the", "x1")],
    [_profile(7, 1, "CAFE straße ﬁne"), _profile(9, 0, "fine ab"), _profile(10, 1)],
    [_profile(11, 1, "alpha and tv")],
]


def _union_reference(union, *, clean_clean, **tokens):
    """The batch build on the union; ``None`` when a clean-clean index holds
    one source only (no block compares anything then)."""
    if not clean_clean:  # a dirty index puts every profile on the left
        union = [EntityProfile(p.profile_id, p.original_id, 0, p.attributes) for p in union]
    blocks = TokenBlocking(**tokens).block(ProfileCollection(union))
    if blocks.clean_clean != clean_clean:
        return None
    return CSRBlockIndex.from_blocks(blocks)


def _replay_against_the_union(batches, clean_clean, min_token_length, remove_stopwords):
    """After every append: the CSR equals the batch build on the union, and
    the delta and ``num_tokens`` equal their definitions over
    ``EntityProfile.tokens``."""
    options = {"min_token_length": min_token_length, "remove_stopwords": remove_stopwords}
    incremental = IncrementalBlockIndex(clean_clean=clean_clean, **options)
    union = []
    for batch in batches:
        delta = incremental.append_profiles(batch)
        union.extend(batch)
        tokens_of = {
            p.profile_id: p.tokens(
                min_length=min_token_length, remove_stopwords=remove_stopwords
            )
            for p in union
        }
        touched = set().union(*(tokens_of[p.profile_id] for p in batch))
        assert delta.new_profile_ids == tuple(p.profile_id for p in batch)
        assert delta.touched_tokens == touched
        assert delta.touched_profile_ids == {
            profile_id for profile_id, held in tokens_of.items() if held & touched
        }
        assert incremental.num_tokens == len(set().union(*tokens_of.values()))
        built = incremental.materialise()
        reference = _union_reference(union, clean_clean=clean_clean, **options)
        if reference is None:
            assert (built.node_ids, built.total_blocks) == ([], 0)
            continue
        _assert_bit_identical(built, reference)


class TestEveryAppendEqualsTheBatchBuild:
    @settings(max_examples=80, deadline=None)
    @given(_batch_sequences(), st.booleans(), st.sampled_from([1, 2, 3]), st.booleans())
    def test_generated_batches(self, batches, clean_clean, min_token_length, remove_stopwords):
        _replay_against_the_union(batches, clean_clean, min_token_length, remove_stopwords)

    @pytest.mark.parametrize("remove_stopwords", [False, True])
    @pytest.mark.parametrize("min_token_length", [1, 2, 3])
    @pytest.mark.parametrize("clean_clean", [False, True])
    def test_mixed_buffers(self, clean_clean, min_token_length, remove_stopwords):
        _replay_against_the_union(_MIXED_BATCHES, clean_clean, min_token_length, remove_stopwords)


def test_metablocking_and_service_call_no_per_value_tokeniser():
    """Blocking keys come from ``token_table`` only: the index and the service
    never tokenise a profile or a value on their own."""
    root = Path(repro.__file__).parent
    offenders = []
    for package in ("metablocking", "service"):
        for path in sorted((root / package).glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Call):
                    called = node.func
                    name = getattr(called, "attr", getattr(called, "id", ""))
                    if name in ("tokens", "tokenize", "split_words"):
                        offenders.append(f"{package}/{path.name}:{node.lineno} {name}()")
    assert offenders == []


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

    def test_a_refused_batch_changes_nothing(self):
        """Ids are checked before anything is appended: ``[2, 1]`` after
        ``[0, 1]`` leaves no trace of profile 2."""
        profiles = [EntityProfile(profile_id, f"p{profile_id}") for profile_id in range(3)]
        for profile in profiles:
            profile.add("name", "alpha")
        incremental = IncrementalBlockIndex()
        incremental.append_profiles(profiles[:2])
        before = incremental.materialise()
        with pytest.raises(DataError, match="strictly increasing"):
            incremental.append_profiles([profiles[2], profiles[1]])
        assert not incremental.has_profile(2)
        assert incremental.num_profiles == incremental.appended_profiles == 2
        assert incremental.last_profile_id == 1
        assert not incremental.is_stale and incremental.materialise() is before
        incremental.append_profiles([profiles[2]])
        assert incremental.materialise().node_ids == [0, 1, 2]

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

    def test_pickle_round_trip_rebuilds_the_same_csr(self):
        profiles = _random_profiles(40, clean_clean=True, seed=3)
        incremental = IncrementalBlockIndex(clean_clean=True)
        incremental.append_profiles(profiles)
        original = incremental.materialise()
        clone = pickle.loads(pickle.dumps(incremental))
        assert clone.is_stale  # the CSR itself is not shipped
        assert clone.profile_ids() == incremental.profile_ids()
        _assert_bit_identical(clone.materialise(), original)


class TestCloseHardening:
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

    def test_close_is_idempotent(self):
        """``CSRBlockIndex.close`` releases nothing: closing twice is safe
        and the index answers exactly as before."""
        incremental = IncrementalBlockIndex()
        incremental.append_profiles(_random_profiles(30, clean_clean=False, seed=5))
        index = incremental.materialise()
        fields = {field: getattr(index, field).tolist() for field in ARRAY_FIELDS}
        neighbours = [index.kernel().neighbours(node) for node in range(index.num_nodes)]
        index.close()
        index.close()
        assert {field: getattr(index, field).tolist() for field in ARRAY_FIELDS} == fields
        assert [index.kernel().neighbours(n) for n in range(index.num_nodes)] == neighbours
        assert incremental.materialise() is index
        _assert_bit_identical(pickle.loads(pickle.dumps(index)), index)

    def test_close_on_never_materialised_index_is_safe(self):
        # A CSRBlockIndex that never ran a builder (e.g. an unpickling
        # target) closes without touching missing attributes.
        bare = CSRBlockIndex.__new__(CSRBlockIndex)
        bare.close()
        bare.close()
