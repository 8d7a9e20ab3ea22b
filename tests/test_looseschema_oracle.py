"""The column path of the loose-schema generator against its definition.

``tests/looseschema_oracle.py`` defines attribute partitioning on Python
sets.  On Hypothesis collections — dirty and clean-clean, non-ASCII and
mixed-case text, NUL inside values, attributes whose values hold no token,
profiles with no attribute — similarities and entropies must be equal
floats (``==``, never ``approx``), and partitions, blocks, candidate pairs
and clusters identical.
"""

from hypothesis import example, given, settings, strategies as st

from repro.blocking.loose_schema_blocking import LooseSchemaTokenBlocking
from repro.core.config import SparkERConfig
from repro.core.sparker import SparkER
from repro.data.dataset import ProfileCollection
from repro.data.profile import EntityProfile, KeyValue
from repro.looseschema.attribute_partitioning import AttributePartitioner, attribute_similarities
from repro.looseschema.attributes import AttributeTokens, build_attribute_profiles
from repro.looseschema.entropy import EntropyExtractor
from repro.utils.tokenize import token_table
from tests import looseschema_oracle as oracle

ATTRIBUTES = ["name", "title", "descr", "brand"]
WORDS = ["sony", "Sony", "SÖNY", "tv", "hd", "x_1", "40", "οδος", "ΟΔΟΣ", "東京", "ﬁle", "file", "café"]
SEPARATORS = [" ", "-", "\x00", "\n", ", ", "!"]
values = st.one_of(
    st.lists(st.tuples(st.sampled_from(WORDS), st.sampled_from(SEPARATORS)), max_size=5).map(
        lambda pairs: "".join(word + separator for word, separator in pairs)
    ),
    st.sampled_from(["", "!!", "\x00", " - "]),  # no token: an attribute may stay empty
    st.text(max_size=6),
)


@st.composite
def collections(draw):
    """2-10 profiles of 0-4 (attribute, value) records, dirty or clean-clean."""
    rows = draw(
        st.lists(
            st.lists(st.tuples(st.sampled_from(ATTRIBUTES), values), max_size=4),
            min_size=2,
            max_size=10,
        )
    )
    split = len(rows)
    if draw(st.booleans()):
        split = draw(st.integers(min_value=1, max_value=len(rows) - 1))
    return ProfileCollection(
        EntityProfile(
            profile_id,
            source_id=0 if profile_id < split else 1,
            attributes=[KeyValue(attribute, value) for attribute, value in row],
        )
        for profile_id, row in enumerate(rows)
    )


def fingerprint(blocks):
    columns = blocks.columns
    return columns.keys, [column.tobytes() for column in columns[1:]]


@settings(max_examples=120, deadline=None)
@given(collections(), st.sampled_from([0.1, 0.3, 1.0]))
@example(
    ProfileCollection([
        EntityProfile(0, attributes=[KeyValue("name", "SÖNY tv\x00hd"), KeyValue("brand", "!!")]),
        EntityProfile(1, attributes=[KeyValue("name", "sony x_1"), KeyValue("descr", "東京 tv")]),
        EntityProfile(2, source_id=1, attributes=[KeyValue("title", "Sony TV hd")]),
        EntityProfile(3, source_id=1, attributes=[KeyValue("title", "sony x_1 東京")]),
    ]),
    0.1,
)
def test_columns_equal_the_dict_path(profiles, threshold):
    columns = AttributeTokens.of(token_table(profiles))
    expected = oracle.attribute_profiles(profiles)
    view = build_attribute_profiles(profiles)
    assert list(view) == list(expected)
    assert [(list(p.value_counts.items()), p.first_seen) for p in view.values()] == [
        (list(p.value_counts.items()), p.first_seen) for p in expected.values()
    ]

    similarities = attribute_similarities(columns)
    assert list(similarities.items()) == list(oracle.similarities(expected).items())

    partitioning = AttributePartitioner(threshold).partition(profiles)
    assert partitioning.clusters == oracle.partition(threshold, expected).clusters
    for normalize in (True, False):
        got = EntropyExtractor(normalize=normalize).extract(profiles, partitioning)
        want = oracle.entropies(expected, partitioning, normalize=normalize)
        assert list(got.items()) == list(want.items())


@settings(max_examples=60, deadline=None)
@given(collections())
def test_runs_on_oracle_inputs_are_identical(profiles):
    config = SparkERConfig.unsupervised_default()
    config.blocker.attribute_threshold = 0.1
    run = SparkER(config).run(profiles)
    partitioning = oracle.partition(0.1, oracle.attribute_profiles(profiles))
    entropies = oracle.entropies(oracle.attribute_profiles(profiles), partitioning)
    assert run.blocker_report.partitioning.clusters == partitioning.clusters
    assert run.blocker_report.cluster_entropies == entropies

    blocks = LooseSchemaTokenBlocking(partitioning, cluster_entropies=entropies).block(profiles)
    assert fingerprint(run.blocker_report.raw_blocks) == fingerprint(blocks)
    seeded = SparkER(config, partitioning=partitioning).run(profiles)
    assert seeded.candidate_pairs == run.candidate_pairs
    assert [sorted(c.members) for c in seeded.clusters] == [
        sorted(c.members) for c in run.clusters
    ]
