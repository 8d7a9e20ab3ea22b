"""Broadcast-join parallel meta-blocking on the mini engine.

The paper (Section 2.1) describes the parallel meta-blocking as *inspired by
the broadcast join*: the nodes of the blocking graph are partitioned, and the
information needed to materialise the neighbourhood of each node (a compact
block index) is broadcast to every partition; each task then materialises one
node neighbourhood at a time, computes the edge weights and applies the
pruning function locally.

This module reproduces that structure on the CSR-backed
:class:`~repro.metablocking.index.CSRBlockIndex`:

1. The CSR index — offset arrays, per-block cardinality/entropy vectors and a
   precomputed degree vector — is built once and shipped via
   :meth:`repro.engine.context.EngineContext.broadcast`.
2. The profile ids are parallelised into an RDD and processed partition by
   partition; every task materialises the neighbourhoods of its nodes through
   the index's scratch-buffer kernel, **exactly once per job**.  Each edge is
   emitted from its lower endpoint only, so no dedup shuffle is needed, and
   degree lookups (EJS) read the broadcast degree vector instead of
   re-materialising the neighbour's neighbourhood per edge.
3. For the node-centric strategies (WNP / CNP) a per-node incident-edge
   adjacency index is built once from the weighted edges and broadcast;
   per-node pruning decisions are combined through a ``reduceByKey`` so that
   OR / AND (reciprocal) semantics match the sequential
   :class:`~repro.metablocking.metablocker.MetaBlocker` exactly.  The vote
   stage ships a *compact wire format*: each task emits ``(edge id, 1)``
   votes — dense integers assigned in canonical pair order — instead of full
   ``((a, b), (weight, count))`` tuples, and the driver rebuilds the retained
   pairs and their weights from the already-collected weight map.  Only tiny
   int pairs cross the shuffle (and, under the process executor, the IPC
   boundary); map-side combine in the workers merges the two endpoint votes
   of an edge before they are ever serialised.

The sequential meta-blocker's graph builder runs on the *same* kernel, with
the same per-edge accumulation order, so the output (retained edges and their
float weights) is equal bit-for-bit; the test-suite asserts this equivalence
across the full weighting × pruning × entropy grid.
"""

from __future__ import annotations

from repro.blocking.block import BlockCollection
from repro.engine.context import EngineContext
from repro.engine.executors import MultiprocessingExecutor
from repro.exceptions import MetaBlockingError
from repro.metablocking import backends as _backends
from repro.metablocking.index import CSRBlockIndex
from repro.metablocking.metablocker import MetaBlocker, MetaBlockingResult
from repro.metablocking.pruning import (
    CardinalityEdgePruning,
    CardinalityNodePruning,
    PruningStrategy,
    WeightedEdgePruning,
    WeightedNodePruning,
    default_cep_k,
    default_cnp_k,
    make_pruning_strategy,
)
from repro.metablocking.weights import WeightingScheme
from repro.options import EngineOptions


def edge_id_incidence(
    weights: dict[tuple[int, int], float]
) -> tuple[list[tuple[int, int]], dict[int, list[tuple[int, float]]]]:
    """Compact per-node incidence for the vote-stage wire format.

    Returns ``(edge_list, incidence)``: ``edge_list`` assigns every edge a
    dense integer id in *canonical pair order* (sorted pairs), so ordering by
    ``(-weight, edge_id)`` equals the sequential tie-break by
    ``(-weight, pair)``; ``incidence`` maps each node to its incident
    ``(edge id, weight)`` entries **in weight-map insertion order** — the
    exact order :meth:`PruningStrategy._node_incidence` produces, which the
    WNP per-node float sums depend on bit-for-bit.
    """
    edge_list = sorted(weights)
    edge_ids = {pair: edge_id for edge_id, pair in enumerate(edge_list)}
    incidence: dict[int, list[tuple[int, float]]] = {}
    for pair, weight in weights.items():
        entry = (edge_ids[pair], weight)
        a, b = pair
        incidence.setdefault(a, []).append(entry)
        incidence.setdefault(b, []).append(entry)
    return edge_list, incidence


# ------------------------------------------------------------ task functions
# The per-element functions of the broadcast-join jobs are module-level
# callable classes with bound arguments (not closures), so the fused stage
# chains pickle and the jobs run unchanged on the multiprocessing executor.


class _EdgeWeigher:
    """node → ``[((a, b), weight)]`` for the edges at the node's lower endpoint.

    Each task materialises the node's neighbourhood once through the
    broadcast kernel and emits only the edges whose *lower* endpoint is the
    node, so every edge is produced exactly once with no dedup shuffle.  EJS
    reads both endpoints' degrees and the global edge count from the
    broadcast degree vector — no per-neighbour re-materialisation.  The
    per-edge loop itself lives on the kernel
    (:meth:`~repro.metablocking.backends.PythonKernel.weighted_edges`), so
    there is exactly one scalar reference path for every driver.
    """

    __slots__ = ("broadcast", "scheme", "use_entropy")

    def __init__(self, broadcast, scheme: WeightingScheme, use_entropy: bool) -> None:
        self.broadcast = broadcast
        self.scheme = scheme
        self.use_entropy = use_entropy

    def __call__(self, profile_id: int) -> list[tuple[tuple[int, int], float]]:
        index: CSRBlockIndex = self.broadcast.value
        node = index.node_of[profile_id]
        # The plan resolves degrees (EJS) on a private sweep before the shared
        # kernel materialises this node's neighbourhood; it is cached on the
        # index, so the resolution happens once per process, not per node.
        plan = index.weight_plan(self.scheme, self.use_entropy)
        node_ids = index.node_ids
        return [
            ((profile_id, node_ids[other]), weight)
            for other, weight in index.kernel().weighted_edges(node, plan)
        ]


class _PartitionEdgeWeigher:
    """partition of nodes → the same ``((a, b), weight)`` records, batched.

    The numpy-backend counterpart of :class:`_EdgeWeigher`: one vectorised
    kernel sweep per partition instead of one interpreted loop per node.  The
    emitted record stream — content *and* order — is identical, so the
    collected weight map (and every float sum derived from its insertion
    order) is bit-for-bit the same.
    """

    __slots__ = ("broadcast", "scheme", "use_entropy")

    def __init__(self, broadcast, scheme: WeightingScheme, use_entropy: bool) -> None:
        self.broadcast = broadcast
        self.scheme = scheme
        self.use_entropy = use_entropy

    def __call__(self, profile_ids) -> list[tuple[tuple[int, int], float]]:
        index: CSRBlockIndex = self.broadcast.value
        plan = index.weight_plan(self.scheme, self.use_entropy)
        return index.kernel().partition_weighted_edges(list(profile_ids), plan)


class _NodeDegree:
    """profile id → blocking-graph degree, read from the broadcast vector."""

    __slots__ = ("broadcast",)

    def __init__(self, broadcast) -> None:
        self.broadcast = broadcast

    def __call__(self, profile_id: int) -> int:
        index: CSRBlockIndex = self.broadcast.value
        # int() guards the shared-memory case where the vector is an ndarray:
        # task outputs must stay plain python scalars on the wire.
        return int(index.degree_vector()[index.node_of[profile_id]])


class _WeightedNodeVotes:
    """WNP vote task: retain a node's incident edges above its local mean.

    Emits compact ``(edge id, 1)`` votes — the slim wire format of the vote
    shuffle.  The threshold float sum runs over the incidence list in
    weight-map insertion order, matching the sequential WNP bit-for-bit.
    """

    __slots__ = ("incidence_broadcast",)

    def __init__(self, incidence_broadcast) -> None:
        self.incidence_broadcast = incidence_broadcast

    def __call__(self, node: int) -> list[tuple[int, int]]:
        incident = self.incidence_broadcast.value.get(node)
        if not incident:
            return []
        threshold = sum(w for _e, w in incident) / len(incident)
        return [(edge_id, 1) for edge_id, w in incident if w >= threshold]


class _CardinalityNodeVotes:
    """CNP vote task: retain a node's top-``k`` incident edges.

    Edge ids are canonical-pair-ordered, so the ``(-weight, edge_id)`` rank
    key reproduces the sequential ``(-weight, pair)`` tie-break exactly.
    """

    __slots__ = ("incidence_broadcast", "k")

    def __init__(self, incidence_broadcast, k: int) -> None:
        self.incidence_broadcast = incidence_broadcast
        self.k = k

    def __call__(self, node: int) -> list[tuple[int, int]]:
        incident = self.incidence_broadcast.value.get(node)
        if not incident:
            return []
        ranked = sorted(incident, key=_rank_key)
        return [(edge_id, 1) for edge_id, _w in ranked[: self.k]]


def _rank_key(item: tuple[int, float]) -> tuple[float, int]:
    return (-item[1], item[0])


def _sum_votes(a: int, b: int) -> int:
    """Combine the endpoint vote counts of one edge."""
    return a + b


class ParallelMetaBlocker:
    """Parallel meta-blocking with the broadcast-join structure of SparkER.

    Parameters
    ----------
    context:
        The engine context the jobs run on.
    weighting / pruning / use_entropy:
        Same meaning as for :class:`~repro.metablocking.metablocker.MetaBlocker`.
    options:
        Resolved :class:`~repro.options.EngineOptions` for the CSR index;
        defaults to the ones the context was built with.
    """

    def __init__(
        self,
        context: EngineContext,
        weighting: str | WeightingScheme = WeightingScheme.CBS,
        pruning: str | PruningStrategy = "wnp",
        *,
        use_entropy: bool = False,
        options: EngineOptions | None = None,
    ) -> None:
        self.context = context
        self.weighting = WeightingScheme.parse(weighting)
        self.pruning = make_pruning_strategy(pruning)
        self.use_entropy = use_entropy
        self.options = options or context.options

    # ------------------------------------------------------------------ public
    def run(self, blocks: BlockCollection) -> MetaBlockingResult:
        """Run the parallel meta-blocking over ``blocks``."""
        index = CSRBlockIndex.from_blocks(blocks, self.options)
        if index.num_nodes == 0:
            index.close()
            return MetaBlockingResult()
        # Materialise the degree vector driver-side so the broadcast ships the
        # index with degrees precomputed (one kernel sweep, reused everywhere).
        index.degree_vector()
        if index.backend == "numpy" and isinstance(
            self.context.executor, MultiprocessingExecutor
        ):
            # Ship the ndarray buffers through one shared-memory segment: the
            # broadcast pickle then carries only the segment reference, and
            # every pool worker maps the index instead of deserialising a
            # copy.  The broadcast (and its segment) is run-scoped, so the
            # segment is unlinked when this run finishes — with
            # EngineContext.stop() and index garbage collection as backstops
            # for aborted runs.
            index.export_shared()
        broadcast = self.context.broadcast(index)
        node_ids = list(index.node_ids)

        node_rdd = self.context.parallelize(node_ids)

        try:
            if isinstance(self.pruning, WeightedEdgePruning):
                retained = self._run_weighted_edge(node_rdd, broadcast)
            elif isinstance(self.pruning, CardinalityEdgePruning):
                retained = self._run_cardinality_edge(node_rdd, broadcast)
            elif isinstance(self.pruning, CardinalityNodePruning):
                retained = self._run_node_cardinality(node_rdd, broadcast, self.pruning)
            elif isinstance(self.pruning, WeightedNodePruning):
                retained = self._run_node_weighted(node_rdd, broadcast, self.pruning)
            else:
                raise MetaBlockingError(
                    f"unsupported pruning strategy for the parallel meta-blocker: "
                    f"{type(self.pruning).__name__}"
                )

            num_edges = self._count_edges(node_rdd, broadcast)
        finally:
            index.close()
        return MetaBlockingResult(
            candidate_pairs=set(retained),
            retained_edges=retained,
            graph_edges=num_edges,
            graph_nodes=len(node_ids),
        )

    def stream_retained(
        self,
        blocks: BlockCollection,
        chunk_edges: int = _backends.DEFAULT_CHUNK_EDGES,
    ):
        """Yield the retained edges in bounded chunks of ``((a, b), weight)``.

        The concatenation of the chunks equals ``run(blocks).retained_edges
        .items()`` exactly.  The broadcast-join design collects the full
        weight map on the driver (that O(E) dict is inherent to the
        structure, as in SparkER's driver-side collect), so this wrapper
        bounds the *consumer's* footprint, not the driver's — use the
        sequential :meth:`MetaBlocker.stream_retained` numpy path for a
        genuinely O(chunk) pipeline.
        """
        retained = self.run(blocks).retained_edges
        items = list(retained.items())
        for start in range(0, len(items), chunk_edges):
            yield items[start : start + chunk_edges]

    def __call__(self, blocks: BlockCollection) -> MetaBlockingResult:
        return self.run(blocks)

    # -------------------------------------------------------------- internals
    def _edge_weigher(self, broadcast) -> _EdgeWeigher:
        """The picklable node → edge-weights task function of this job."""
        return _EdgeWeigher(broadcast, self.weighting, self.use_entropy)

    def _all_edge_weights(self, node_rdd, broadcast) -> dict[tuple[int, int], float]:
        """Distributed computation of every edge weight (one emission per edge).

        The collected dict preserves the node-major, first-touch edge order —
        the same insertion order the sequential graph builder produces — so
        every downstream float sum (WEP's global mean, WNP's per-node means)
        is bit-for-bit identical to the sequential path.

        Under the numpy backend the per-node task is replaced by a
        per-partition task (one vectorised sweep per partition); the record
        stream, and with it the collected map, is identical.
        """
        # Peek at the private value: a driver-side .value read would inflate
        # the broadcast access metrics without being a real task-side read.
        if broadcast._value.backend == "numpy":
            weigh = _PartitionEdgeWeigher(broadcast, self.weighting, self.use_entropy)
            return node_rdd.mapPartitions(weigh, name="metablocking.weights").collectAsMap()
        weigh = self._edge_weigher(broadcast)
        return node_rdd.flatMap(weigh, name="metablocking.weights").collectAsMap()

    def _count_edges(self, node_rdd, broadcast) -> int:
        total = node_rdd.map(_NodeDegree(broadcast), name="metablocking.degree").sum()
        return total // 2

    # --- strategy-specific drivers ------------------------------------------
    def _run_weighted_edge(self, node_rdd, broadcast) -> dict[tuple[int, int], float]:
        weights = self._all_edge_weights(node_rdd, broadcast)
        if not weights:
            return {}
        threshold = sum(weights.values()) / len(weights)
        return {pair: w for pair, w in weights.items() if w >= threshold}

    def _run_cardinality_edge(self, node_rdd, broadcast) -> dict[tuple[int, int], float]:
        weights = self._all_edge_weights(node_rdd, broadcast)
        if not weights:
            return {}
        pruning: CardinalityEdgePruning = self.pruning  # type: ignore[assignment]
        k = pruning.k
        if k is None:
            index: CSRBlockIndex = broadcast.value
            k = default_cep_k(int(sum(index.node_block_count)))
        ranked = sorted(weights.items(), key=lambda item: (-item[1], item[0]))
        return dict(ranked[:k])

    def _retained_from_votes(
        self,
        votes: dict[int, int],
        edge_list: list[tuple[int, int]],
        weights: dict[tuple[int, int], float],
        required: int,
    ) -> dict[tuple[int, int], float]:
        """Rebuild the retained edges from compact vote counts, driver-side.

        The shuffle only carried edge ids; pairs and their exact float
        weights come back from ``edge_list`` and the collected weight map.
        """
        retained: dict[tuple[int, int], float] = {}
        for edge_id, count in votes.items():
            if count >= required:
                pair = edge_list[edge_id]
                retained[pair] = weights[pair]
        return retained

    def _run_node_weighted(
        self, node_rdd, broadcast, pruning: WeightedNodePruning
    ) -> dict[tuple[int, int], float]:
        weights = self._all_edge_weights(node_rdd, broadcast)
        if not weights:
            return {}
        edge_list, incidence = edge_id_incidence(weights)
        incidence_broadcast = self.context.broadcast(incidence)
        votes = (
            node_rdd.flatMap(_WeightedNodeVotes(incidence_broadcast), name="wnp.votes")
            .reduceByKey(_sum_votes)
            .collectAsMap()
        )
        required = 2 if pruning.reciprocal else 1
        return self._retained_from_votes(votes, edge_list, weights, required)

    def _run_node_cardinality(
        self, node_rdd, broadcast, pruning: CardinalityNodePruning
    ) -> dict[tuple[int, int], float]:
        weights = self._all_edge_weights(node_rdd, broadcast)
        if not weights:
            return {}
        index: CSRBlockIndex = broadcast.value
        k = pruning.k
        if k is None:
            k = default_cnp_k(int(sum(index.node_block_count)), index.num_nodes)
        edge_list, incidence = edge_id_incidence(weights)
        incidence_broadcast = self.context.broadcast(incidence)
        votes = (
            node_rdd.flatMap(
                _CardinalityNodeVotes(incidence_broadcast, k), name="cnp.votes"
            )
            .reduceByKey(_sum_votes)
            .collectAsMap()
        )
        required = 2 if pruning.reciprocal else 1
        return self._retained_from_votes(votes, edge_list, weights, required)


def make_meta_blocker(
    engine: "EngineContext | None" = None,
    *,
    weighting: "str | WeightingScheme" = WeightingScheme.CBS,
    pruning: "str | PruningStrategy" = "wep",
    use_entropy: bool = False,
    options: "EngineOptions | None" = None,
) -> "ParallelMetaBlocker | MetaBlocker":
    """Build the meta-blocker matching the execution substrate.

    The broadcast-join :class:`ParallelMetaBlocker` when an engine context is
    given, the sequential reference :class:`~repro.metablocking.metablocker.
    MetaBlocker` otherwise — the two are bit-for-bit equivalent, on either
    kernel backend.  Shared by the legacy :class:`repro.core.blocker.Blocker`
    and the pipeline stage adapter.
    """
    if engine is not None:
        return ParallelMetaBlocker(
            engine, weighting, pruning, use_entropy=use_entropy, options=options
        )
    return MetaBlocker(weighting, pruning, use_entropy=use_entropy, options=options)
