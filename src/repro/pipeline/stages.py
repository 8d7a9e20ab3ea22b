"""Stage adapters over every existing layer of the library.

Each class wraps one black-box module of the paper's architecture (blocking,
meta-blocking, matching, clustering, evaluation…) behind the typed
:class:`~repro.pipeline.stage.Stage` protocol and registers itself in the
string-keyed registry, so any of them can be placed in a declarative spec.
Stage parameters that name a scheme, strategy, similarity or algorithm are
parsed when the stage is built, so a misspelt one fails before anything runs.
"""

from __future__ import annotations

from itertools import islice
from typing import TYPE_CHECKING, Any

from repro.blocking.filtering import BlockFiltering
from repro.blocking.loose_schema_blocking import LooseSchemaTokenBlocking
from repro.blocking.purging import BlockPurging
from repro.blocking.stats import block_stage_metrics, candidate_pair_stats
from repro.blocking.token_blocking import TokenBlocking
from repro.clustering.registry import make_clustering_algorithm
from repro.core.config import ClustererConfig, MatcherConfig, check_name
from repro.core.entity_clusterer import EntityClusterer
from repro.core.entity_matcher import EntityMatcher
from repro.evaluation.metrics import clustering_metrics, pair_metrics
from repro.exceptions import EvaluationError, PipelineValidationError
from repro.looseschema.attribute_partitioning import AttributePartitioner
from repro.looseschema.entropy import EntropyExtractor
from repro.looseschema.lsh import AttributeLSH, build_attribute_profiles
from repro.matching.similarity import get_similarity_function
from repro.metablocking.metablocker import MetaBlocker
from repro.metablocking.parallel import ParallelMetaBlocker
from repro.metablocking.progressive import (
    ProgressiveNodeScheduling,
    ProgressiveSortedComparisons,
)
from repro.metablocking.pruning import make_pruning_strategy
from repro.metablocking.weights import WeightingScheme
from repro.pipeline import artifacts as kinds
from repro.pipeline.registry import register_stage
from repro.pipeline.stage import Stage, _port

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.pipeline.runner import PipelineContext


def _record_block_stage(context: "PipelineContext", label: str, blocks: Any) -> None:
    """Record the per-stage block statistics, with quality when GT is known."""
    context.record(
        label,
        block_stage_metrics(
            blocks, context.ground_truth, max_comparisons=context.max_comparisons
        ),
    )


@register_stage
class LooseSchemaStage(Stage):
    """Loose-schema generation: LSH attribute partitioning + cluster entropy.

    When a ``partitioning`` artifact is already in the store (supervised mode)
    it is reused and only the entropies are extracted.
    """

    kind = "loose_schema"
    inputs = (
        _port("profiles", kinds.PROFILES),
        _port("partitioning", kinds.PARTITIONING, required=False),
    )
    outputs = (
        _port("partitioning", kinds.PARTITIONING),
        _port("cluster_entropies", kinds.CLUSTER_ENTROPIES),
    )

    def __init__(
        self,
        threshold: float = 0.3,
        num_perm: int = 128,
        num_bands: int = 32,
        lsh_seed: int = 5,
    ) -> None:
        super().__init__()
        self.threshold = threshold
        self.num_perm = num_perm
        self.num_bands = num_bands
        self.lsh_seed = lsh_seed

    def run(self, context: "PipelineContext", *, profiles, partitioning=None):
        # One tokenising pass: the partitioner reads the attribute profiles'
        # token sets, the entropy extractor their token counts.
        attribute_profiles = build_attribute_profiles(profiles)
        if partitioning is None:
            partitioner = AttributePartitioner(
                threshold=self.threshold,
                lsh=AttributeLSH(
                    num_perm=self.num_perm, num_bands=self.num_bands, seed=self.lsh_seed
                ),
            )
            partitioning = partitioner.partition_from_attribute_profiles(attribute_profiles)
        entropies = EntropyExtractor().extract_from_attribute_profiles(
            attribute_profiles, partitioning
        )
        blob = partitioning.clusters.get(partitioning.blob_cluster_id, set())
        context.record(
            self.label,
            {
                "clusters": len(partitioning.non_blob_clusters()),
                "blob_attributes": len(blob),
                "entropies": {k: round(v, 3) for k, v in sorted(entropies.items())},
            },
        )
        return {"partitioning": partitioning, "cluster_entropies": entropies}


@register_stage
class TokenBlockingStage(Stage):
    """Token blocking: schema-agnostic, or loose-schema (BLAST) when a
    partitioning artifact is wired in."""

    kind = "token_blocking"
    inputs = (
        _port("profiles", kinds.PROFILES),
        _port("partitioning", kinds.PARTITIONING, required=False),
        _port("cluster_entropies", kinds.CLUSTER_ENTROPIES, required=False),
    )
    outputs = (_port("blocks", kinds.BLOCKS),)

    def __init__(
        self,
        min_token_length: int = 1,
        remove_stopwords: bool = False,
        use_entropy: bool = True,
    ) -> None:
        super().__init__()
        self.min_token_length = min_token_length
        self.remove_stopwords = remove_stopwords
        self.use_entropy = use_entropy

    def run(
        self, context: "PipelineContext", *, profiles, partitioning=None, cluster_entropies=None
    ):
        if partitioning is not None:
            strategy = LooseSchemaTokenBlocking(
                partitioning,
                cluster_entropies=cluster_entropies if self.use_entropy else None,
                min_token_length=self.min_token_length,
                remove_stopwords=self.remove_stopwords,
            )
        else:
            strategy = TokenBlocking(
                min_token_length=self.min_token_length,
                remove_stopwords=self.remove_stopwords,
            )
        blocks = strategy.block(profiles)
        _record_block_stage(context, self.label, blocks)
        return {"blocks": blocks}


@register_stage
class BlockPurgingStage(Stage):
    """Block purging: drop blocks covering too large a profile fraction."""

    kind = "block_purging"
    inputs = (_port("blocks", kinds.BLOCKS), _port("profiles", kinds.PROFILES))
    outputs = (_port("blocks", kinds.BLOCKS),)

    def __init__(self, max_profile_fraction: float = 0.5) -> None:
        super().__init__()
        self.max_profile_fraction = max_profile_fraction

    def run(self, context: "PipelineContext", *, blocks, profiles):
        purging = BlockPurging(max_profile_fraction=self.max_profile_fraction)
        purged = purging.purge(blocks, len(profiles))
        _record_block_stage(context, self.label, purged)
        return {"blocks": purged}


@register_stage
class BlockFilteringStage(Stage):
    """Block filtering: keep the smallest fraction of each profile's blocks."""

    kind = "block_filtering"
    inputs = (_port("blocks", kinds.BLOCKS),)
    outputs = (_port("blocks", kinds.BLOCKS),)

    def __init__(self, ratio: float = 0.8) -> None:
        super().__init__()
        self.ratio = ratio

    def run(self, context: "PipelineContext", *, blocks):
        filtered = BlockFiltering(ratio=self.ratio).filter(blocks)
        _record_block_stage(context, self.label, filtered)
        return {"blocks": filtered}


@register_stage
class MetaBlockingStage(Stage):
    """Meta-blocking: weight the blocking graph, prune, emit candidate pairs.

    Runs the broadcast-join :class:`ParallelMetaBlocker` when the pipeline has
    an engine, the sequential :class:`MetaBlocker` otherwise — both are
    bit-for-bit equivalent.
    """

    kind = "meta_blocking"
    inputs = (_port("blocks", kinds.BLOCKS),)
    outputs = (
        _port("candidate_pairs", kinds.CANDIDATE_PAIRS),
        _port("meta_blocking", kinds.META_BLOCKING),
    )

    def __init__(
        self,
        weighting: str = "cbs",
        pruning: str = "wnp",
        use_entropy: bool = False,
    ) -> None:
        super().__init__()
        check_name(WeightingScheme.parse, weighting)
        check_name(make_pruning_strategy, pruning)
        self.weighting = weighting
        self.pruning = pruning
        self.use_entropy = use_entropy

    def run(self, context: "PipelineContext", *, blocks):
        args = (self.weighting, self.pruning)
        meta_blocker = (
            ParallelMetaBlocker(context.engine, *args, use_entropy=self.use_entropy)
            if context.engine is not None
            else MetaBlocker(*args, use_entropy=self.use_entropy)
        )
        result = meta_blocker.run(blocks)
        metrics: dict[str, object] = dict(result.as_dict())
        if context.ground_truth is not None:
            metrics.update(
                candidate_pair_stats(
                    result.candidate_pairs,
                    context.ground_truth,
                    max_comparisons=context.max_comparisons,
                )
            )
        context.record(self.label, metrics)
        return {"candidate_pairs": result.candidate_pairs, "meta_blocking": result}


@register_stage
class BlockComparisonsStage(Stage):
    """Candidate pairs straight from the blocks (meta-blocking disabled)."""

    kind = "block_comparisons"
    inputs = (_port("blocks", kinds.BLOCKS),)
    outputs = (_port("candidate_pairs", kinds.CANDIDATE_PAIRS),)

    def run(self, context: "PipelineContext", *, blocks):
        pairs = blocks.distinct_comparisons()
        metrics: dict[str, object] = {"candidate_pairs": len(pairs)}
        if context.ground_truth is not None:
            metrics.update(
                candidate_pair_stats(
                    pairs, context.ground_truth, max_comparisons=context.max_comparisons
                )
            )
        context.record(self.label, metrics)
        return {"candidate_pairs": pairs}


@register_stage
class ProgressiveMetaBlockingStage(Stage):
    """Progressive meta-blocking: emit the best comparisons under a budget.

    ``strategy`` selects Progressive Global Sorting (``"global"``) or node
    scheduling (``"node"``); ``budget`` caps the number of comparisons kept
    (``None`` keeps them all, in rank order).
    """

    kind = "progressive_meta_blocking"
    inputs = (_port("blocks", kinds.BLOCKS),)
    outputs = (_port("candidate_pairs", kinds.CANDIDATE_PAIRS),)

    def __init__(
        self,
        weighting: str = "cbs",
        strategy: str = "global",
        budget: int | None = None,
    ) -> None:
        super().__init__()
        if strategy not in ("global", "node"):
            raise PipelineValidationError(
                f"progressive strategy must be 'global' or 'node', got {strategy!r}"
            )
        check_name(WeightingScheme.parse, weighting)
        self.weighting = weighting
        self.strategy = strategy
        self.budget = budget

    def run(self, context: "PipelineContext", *, blocks):
        strategy = (
            ProgressiveSortedComparisons
            if self.strategy == "global"
            else ProgressiveNodeScheduling
        )
        progressive = strategy(weighting=self.weighting)
        stream = progressive.stream(blocks)
        if self.budget is not None:
            stream = islice(stream, self.budget)
        pairs = set(stream)
        metrics: dict[str, object] = {
            "candidate_pairs": len(pairs),
            "budget": self.budget,
            "strategy": self.strategy,
        }
        if context.ground_truth is not None:
            metrics.update(
                candidate_pair_stats(
                    pairs, context.ground_truth, max_comparisons=context.max_comparisons
                )
            )
        context.record(self.label, metrics)
        return {"candidate_pairs": pairs}


@register_stage
class MatchingStage(Stage):
    """Entity matching: label candidate pairs, produce the similarity graph.

    Rule lists, labeled training pairs and fully custom matcher instances are
    not JSON-serialisable, so they travel through the pipeline *extras*
    (``Pipeline.run(..., extras={"rules": [...]})``).
    """

    kind = "matching"
    inputs = (
        _port("profiles", kinds.PROFILES),
        _port("candidate_pairs", kinds.CANDIDATE_PAIRS),
        _port("partitioning", kinds.PARTITIONING, required=False),
    )
    outputs = (_port("similarity_graph", kinds.SIMILARITY_GRAPH),)

    def __init__(
        self,
        mode: str = "threshold",
        similarity: str = "jaccard",
        threshold: float = 0.4,
        classifier_epochs: int = 300,
        decision_threshold: float = 0.5,
    ) -> None:
        super().__init__()
        check_name(get_similarity_function, similarity)
        self.mode = mode
        self.similarity = similarity
        self.threshold = threshold
        self.classifier_epochs = classifier_epochs
        self.decision_threshold = decision_threshold

    def run(self, context: "PipelineContext", *, profiles, candidate_pairs, partitioning=None):
        config = MatcherConfig(
            mode=self.mode,
            similarity=self.similarity,
            threshold=self.threshold,
            classifier_epochs=self.classifier_epochs,
            decision_threshold=self.decision_threshold,
        )
        matcher = EntityMatcher(
            config,
            rules=context.extras.get("rules"),
            labeled_pairs=context.extras.get("labeled_pairs"),
            partitioning=partitioning,
            matcher=context.extras.get("matcher"),
        )
        similarity_graph = matcher.match(profiles, sorted(candidate_pairs))
        metrics: dict[str, object] = {"matched_pairs": len(similarity_graph)}
        if context.ground_truth is not None:
            metrics.update(
                pair_metrics(similarity_graph.pairs(), context.ground_truth).as_dict()
            )
        context.record(self.label, metrics)
        return {"similarity_graph": similarity_graph}


@register_stage
class ClusteringStage(Stage):
    """Entity clustering: partition the similarity graph into entities."""

    kind = "clustering"
    inputs = (_port("similarity_graph", kinds.SIMILARITY_GRAPH),)
    outputs = (_port("clusters", kinds.CLUSTERS),)

    def __init__(self, algorithm: str = "connected_components", min_score: float = 0.0) -> None:
        super().__init__()
        check_name(make_clustering_algorithm, algorithm)
        self.algorithm = algorithm
        self.min_score = min_score

    def run(self, context: "PipelineContext", *, similarity_graph):
        config = ClustererConfig(algorithm=self.algorithm, min_score=self.min_score)
        clusterer = EntityClusterer(config)
        clusters = clusterer.cluster(similarity_graph)
        metrics: dict[str, object] = {"clusters": len(clusters)}
        if context.ground_truth is not None:
            metrics.update(clustering_metrics(clusters, context.ground_truth))
        context.record(self.label, metrics)
        return {"clusters": clusters}


@register_stage
class EntityGenerationStage(Stage):
    """Entity generation: merge each cluster's profiles into one entity."""

    kind = "entity_generation"
    inputs = (_port("clusters", kinds.CLUSTERS), _port("profiles", kinds.PROFILES))
    outputs = (_port("entities", kinds.ENTITIES),)

    def __init__(self, include_singletons: bool = False) -> None:
        super().__init__()
        self.include_singletons = include_singletons

    def run(self, context: "PipelineContext", *, clusters, profiles):
        clusterer = EntityClusterer(ClustererConfig())
        entities = clusterer.generate_entities(
            clusters, profiles, include_singletons=self.include_singletons
        )
        context.record(self.label, {"entities": len(entities)})
        return {"entities": entities}


@register_stage
class EvaluationStage(Stage):
    """Final evaluation against the ground truth: pair and cluster quality.

    Collects whatever quality numbers apply to the artifacts wired in
    (candidate pairs, matched pairs, clusters) into one ``evaluation``
    artifact — useful at the end of partial pipelines whose stages did not
    evaluate inline.
    """

    kind = "evaluation"
    inputs = (
        _port("candidate_pairs", kinds.CANDIDATE_PAIRS, required=False),
        _port("similarity_graph", kinds.SIMILARITY_GRAPH, required=False),
        _port("clusters", kinds.CLUSTERS, required=False),
    )
    outputs = (_port("evaluation", kinds.EVALUATION),)

    def run(
        self,
        context: "PipelineContext",
        *,
        candidate_pairs=None,
        similarity_graph=None,
        clusters=None,
    ):
        if context.ground_truth is None:
            raise EvaluationError("the evaluation stage requires a ground truth")
        evaluation: dict[str, object] = {}
        if candidate_pairs is not None:
            evaluation["blocking"] = candidate_pair_stats(
                candidate_pairs,
                context.ground_truth,
                max_comparisons=context.max_comparisons,
            )
        if similarity_graph is not None:
            evaluation["matching"] = pair_metrics(
                similarity_graph.pairs(), context.ground_truth
            ).as_dict()
        if clusters is not None:
            evaluation["clustering"] = clustering_metrics(clusters, context.ground_truth)
        flat: dict[str, object] = {}
        for section, metrics in evaluation.items():
            for key, value in metrics.items():
                flat[f"{section}.{key}"] = value
        context.record(self.label, flat)
        return {"evaluation": evaluation}
