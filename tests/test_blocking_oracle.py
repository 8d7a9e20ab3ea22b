"""Definition-level oracle of the blocking front half.

Token blocking, loose-schema token blocking, block purging and block filtering
are checked against a brute-force transcription of the paper's rules that
shares no code with ``repro.blocking`` (nor with the tokeniser: the generated
text is lower-case ASCII words, so ``str.split`` is the reference tokeniser).
Collections are Hypothesis-generated: dirty and clean-clean tasks, tokens that
repeat within a value, ties in block cardinality, a profile listed on both
sides of one block.
"""

import math

from hypothesis import example, given, settings, strategies as st

from repro.blocking.block import Block, BlockCollection
from repro.blocking.filtering import BlockFiltering
from repro.blocking.loose_schema_blocking import LooseSchemaTokenBlocking
from repro.blocking.purging import BlockPurging
from repro.blocking.token_blocking import TokenBlocking
from repro.data.dataset import ProfileCollection
from repro.data.profile import EntityProfile
from repro.looseschema.attribute_partitioning import AttributePartitioning

WORDS = ["sony", "tv", "hd", "led", "x1", "40", "lg", "pro"]
ATTRIBUTES = ["name", "title", "descr"]

values = st.lists(st.sampled_from(WORDS), min_size=1, max_size=4).map(" ".join)
records = st.lists(st.tuples(st.sampled_from(ATTRIBUTES), values), min_size=1, max_size=3)


@st.composite
def collections(draw):
    """(profiles, is clean-clean): 2-9 records over an 8-word vocabulary."""
    clean_clean = draw(st.booleans())
    rows = draw(st.lists(records, min_size=2, max_size=9))
    split = draw(st.integers(min_value=1, max_value=len(rows) - 1)) if clean_clean else len(rows)
    profiles = []
    for profile_id, row in enumerate(rows):
        profile = EntityProfile(profile_id=profile_id, source_id=0 if profile_id < split else 1)
        for attribute, value in row:
            profile.add(attribute, value)
        profiles.append(profile)
    return ProfileCollection(profiles), clean_clean


@st.composite
def partitionings(draw):
    """Each (source, attribute) in the blob, cluster 1 or cluster 2 — so one
    attribute name may resolve differently per source."""
    clusters = {0: set(), 1: set(), 2: set()}
    for source_id in (0, 1):
        for attribute in ATTRIBUTES:
            cluster_id = draw(st.sampled_from([None, 0, 1, 2]))  # None: unknown → blob
            if cluster_id is not None:
                clusters[cluster_id].add((source_id, attribute))
    return AttributePartitioning(clusters=clusters)


# ---------------------------------------------------------------------------
# the paper's rules, by brute force
# ---------------------------------------------------------------------------
def comparisons(source0, source1, clean_clean):
    """Comparisons a block induces: cross-source pairs, or all pairs."""
    if clean_clean:
        return len(source0) * len(source1)
    return len(source0) * (len(source0) - 1) // 2


def oracle_blocks(profiles, clean_clean, key_of):
    """One block per key: every profile with some value token mapped to it."""
    keys = set()
    for profile in profiles:
        for attribute, value in profile.items():
            keys.update(key_of(profile, attribute, token) for token in value.split())
    blocks = {}
    for key in keys:
        source0, source1 = set(), set()
        for profile in profiles:
            holds = any(
                key_of(profile, attribute, token) == key
                for attribute, value in profile.items()
                for token in value.split()
            )
            if holds:
                (source1 if clean_clean and profile.source_id == 1 else source0).add(
                    profile.profile_id
                )
        if comparisons(source0, source1, clean_clean) > 0:
            blocks[key] = (source0, source1)
    return blocks


def oracle_purge(blocks, num_profiles, fraction=0.5):
    """Discard blocks holding more than ``fraction`` of all profiles."""
    return {
        key: sides for key, sides in blocks.items()
        if len(sides[0]) + len(sides[1]) <= fraction * num_profiles
    }


def oracle_filter(block_list, ratio):
    """Keep each profile in the smallest ceil(ratio * n) of its n blocks.

    ``block_list`` is ``[(key, source0, source1, clean_clean)]``; "smallest" is
    by comparisons, then size, then position.
    """
    def cardinality(index):
        _key, source0, source1, clean_clean = block_list[index]
        return (comparisons(source0, source1, clean_clean), len(source0) + len(source1), index)

    everyone = set().union(*(source0 | source1 for _k, source0, source1, _c in block_list))
    stays = set()
    for profile_id in everyone:
        mine = sorted(
            (
                index for index, (_k, source0, source1, _c) in enumerate(block_list)
                if profile_id in source0 or profile_id in source1
            ),
            key=cardinality,
        )
        limit = max(1, math.ceil(ratio * len(mine)))
        stays.update((profile_id, index) for index in mine[:limit])
    filtered = []
    for index, (key, source0, source1, clean_clean) in enumerate(block_list):
        keep0 = {p for p in source0 if (p, index) in stays}
        keep1 = {p for p in source1 if (p, index) in stays}
        if comparisons(keep0, keep1, clean_clean) > 0:
            filtered.append((key, keep0, keep1, clean_clean))
    return filtered


def as_dict(blocks: BlockCollection):
    assert [block.key for block in blocks] == sorted(block.key for block in blocks)
    return {block.key: (block.profiles_source0, block.profiles_source1) for block in blocks}


def as_list(blocks: BlockCollection):
    return [
        (block.key, block.profiles_source0, block.profiles_source1, block.is_clean_clean)
        for block in blocks
    ]


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------
@settings(max_examples=150, deadline=None)
@given(collections())
def test_token_blocking_purging_filtering_equal_the_definitions(task):
    profiles, clean_clean = task
    raw = TokenBlocking().block(profiles)
    expected = oracle_blocks(profiles, clean_clean, lambda _profile, _attribute, token: token)
    assert as_dict(raw) == expected
    assert raw.clean_clean == clean_clean

    purged = BlockPurging().purge(raw, len(profiles))
    assert as_dict(purged) == oracle_purge(expected, len(profiles))

    for ratio in (0.5, 0.8, 1.0):
        assert as_list(BlockFiltering(ratio).filter(purged)) == oracle_filter(
            as_list(purged), ratio
        )


@settings(max_examples=150, deadline=None)
@given(collections(), partitionings())
def test_loose_schema_blocking_equals_the_definition(task, partitioning):
    profiles, clean_clean = task
    members = {
        member: cluster_id
        for cluster_id, cluster in partitioning.clusters.items()
        for member in cluster
    }
    entropies = {0: 0.25, 1: 0.5, 2: 1.0}

    def key_of(profile, attribute, token):
        return f"{token}_{members.get((profile.source_id, attribute), 0)}"

    blocks = LooseSchemaTokenBlocking(partitioning, cluster_entropies=entropies).block(profiles)
    assert as_dict(blocks) == oracle_blocks(profiles, clean_clean, key_of)
    for block in blocks:
        assert block.entropy == entropies[int(block.key.rsplit("_", 1)[1])]


hand_made_blocks = st.lists(
    st.tuples(
        st.sets(st.integers(min_value=0, max_value=7), max_size=4),
        st.sets(st.integers(min_value=0, max_value=7), max_size=4),  # may overlap side 0
        st.booleans(),
    ),
    min_size=1,
    max_size=8,
)


@settings(max_examples=300, deadline=None)
@given(hand_made_blocks, st.sampled_from([0.5, 0.8, 1.0]))
# 1x4 and 2x2 comparisons tie: the smaller block (4 profiles, listed second) wins.
@example([({0}, {1, 2, 3, 4}, True), ({0, 5}, {1, 6}, True)], 0.5)
def test_filtering_equals_the_definition_on_arbitrary_blocks(sides, ratio):
    # Few ids over small sets: equal cardinalities are the norm, and a
    # profile can sit on both sides of one block.
    blocks = BlockCollection(
        Block(f"k{index}", set(source0), set(source1), clean_clean=clean_clean)
        for index, (source0, source1, clean_clean) in enumerate(sides)
    )
    assert as_list(BlockFiltering(ratio).filter(blocks)) == oracle_filter(as_list(blocks), ratio)
