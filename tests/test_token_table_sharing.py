"""One token table per run: a spy on ``token_table`` counts the tokenising
passes of whole runs, of library calls made alone, and of a resumed run
whose checkpoint holds no ``tokens`` artifact."""

import importlib
import sys

import pytest

from repro.blocking.block import BlockCollection
from repro.blocking.loose_schema_blocking import LooseSchemaTokenBlocking
from repro.blocking.token_blocking import TokenBlocking
from repro.core.config import MatcherConfig, SparkERConfig
from repro.core.entity_matcher import EntityMatcher
from repro.core.sparker import SparkER
from repro.data.synthetic import SyntheticConfig, generate_abt_buy_like
from repro.exceptions import DataError
from repro.looseschema.attribute_partitioning import AttributePartitioner
from repro.looseschema.entropy import EntropyExtractor
from repro.matching.matcher import ThresholdMatcher
from repro.matching.similarity_graph import SimilarityGraph
from repro.pipeline import Pipeline
from repro.pipeline.artifacts import ArtifactStore
from repro.pipeline.checkpoint import PipelineCheckpoint
from repro.pipeline.stages import MatchingStage, TokenBlockingStage

# The module, not the function ``repro.utils`` re-exports under the same name.
tokenize_module = importlib.import_module("repro.utils.tokenize")


def fingerprint(value):
    """Blocks as their columns, a similarity graph as its edges, else the value."""
    if isinstance(value, BlockCollection):
        columns = value.columns
        return columns.keys, [column.tobytes() for column in columns[1:]]
    if isinstance(value, SimilarityGraph):
        return [(edge.profile_a, edge.profile_b, edge.score.hex()) for edge in value]
    return value


@pytest.fixture(scope="module")
def dataset():
    return generate_abt_buy_like(SyntheticConfig(num_entities=40, seed=11))


@pytest.fixture
def tables(monkeypatch):
    """The collections ``token_table`` is called on, wherever it was imported."""
    calls = []
    original = tokenize_module.token_table

    def spy(profiles):
        calls.append(profiles)
        return original(profiles)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro") and (
            getattr(module, "token_table", None) is original
        ):
            monkeypatch.setattr(module, "token_table", spy)
    return calls


def test_a_default_run_tokenises_once(dataset, tables):
    config = SparkERConfig()
    assert config.blocker.use_loose_schema
    result = SparkER(config).run(dataset.profiles)
    assert len(tables) == 1 and tables[0] is dataset.profiles
    assert result.pipeline_result.artifacts.kind_of("tokens") == "tokens"


def test_a_schema_agnostic_run_tokenises_once(dataset, tables):
    SparkER(SparkERConfig.schema_agnostic()).run(dataset.profiles)
    assert len(tables) == 1


@pytest.mark.parametrize(
    "call",
    [
        lambda p, t: TokenBlocking().block(p, t),
        lambda p, t: LooseSchemaTokenBlocking(AttributePartitioner().partition(p)).block(p, t),
        lambda p, t: AttributePartitioner().partition(p, t),
        lambda p, t: EntropyExtractor().extract(p, AttributePartitioner().partition(p), t),
        lambda p, t: ThresholdMatcher("jaccard", 0.0).match(p, [(0, 25), (3, 30)], t),
        lambda p, t: EntityMatcher(MatcherConfig(threshold=0.0)).match(p, [(3, 30), (0, 25)], t),
    ],
    ids=["token", "loose_schema", "partition", "entropy", "threshold", "entity_matcher"],
)
def test_library_calls_build_their_own_table_or_check_the_given_one(dataset, tables, call):
    profiles = dataset.profiles
    alone = call(profiles, None)
    built = len(tables)
    assert built >= 1  # the call alone tokenises (a partition it needs, too)
    table = tokenize_module.token_table(profiles)
    tables.clear()
    given = call(profiles, table)
    assert len(tables) == built - 1  # the same work, minus the call's own table
    assert fingerprint(given) == fingerprint(alone)

    other = generate_abt_buy_like(SyntheticConfig(num_entities=41, seed=11)).profiles
    with pytest.raises(DataError, match="another profile collection"):
        call(profiles, tokenize_module.token_table(other))


def test_a_stage_run_alone_builds_and_passes_on_its_table(dataset, tables):
    result = Pipeline([TokenBlockingStage()]).run(dataset.profiles)
    assert len(tables) == 1
    assert result.artifacts.get("tokens").profile_ids.tolist() == dataset.profiles.ids()

    pairs = {(0, 25), (1, 26)}
    tables.clear()
    matching = Pipeline([MatchingStage()], seeds={"candidate_pairs": "candidate_pairs"})
    matching.run(dataset.profiles, artifacts={"candidate_pairs": pairs})
    assert len(tables) == 1


def test_a_checkpoint_without_a_token_table_resumes(dataset, tables, tmp_path):
    spec = SparkER.canonical_spec(SparkER().config)
    uninterrupted = Pipeline.from_spec(spec).run(dataset.profiles, dataset.ground_truth)

    checkpoint = PipelineCheckpoint(tmp_path / "ckpt")
    partial = Pipeline.from_spec(spec).run(
        dataset.profiles, dataset.ground_truth, checkpoint=checkpoint, stop_after="meta_blocking"
    )
    assert partial.partial and "tokens" in partial.artifacts
    # Rewrite the checkpoint as one saved before runs shared a token table.
    state = checkpoint.load()
    store = ArtifactStore()
    for key, value in state["store"].items():
        if key != "tokens":
            store.put(key, state["store"].kind_of(key), value)
    state["store"], state["artifact_manifest"] = store, store.manifest()
    checkpoint.save(state)

    tables.clear()
    resumed = Pipeline.resume(checkpoint)
    assert len(tables) == 1  # the matching stage builds its own
    assert resumed.similarity_graph.pairs() == uninterrupted.similarity_graph.pairs()
    assert [c.members for c in resumed.clusters] == [c.members for c in uninterrupted.clusters]
    assert resumed.entities == uninterrupted.entities
    assert resumed.metric_rows() == uninterrupted.metric_rows()
