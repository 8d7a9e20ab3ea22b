"""The sequential meta-blocker: weight the graph, (optionally) re-weight by
entropy, prune, return candidate pairs.

This is the reference implementation; :class:`repro.metablocking.parallel.
ParallelMetaBlocker` produces exactly the same output using the broadcast-join
structure SparkER runs on Spark.

Both run on the pluggable kernel backend of the CSR index
(:mod:`repro.metablocking.backends`).  Under the numpy backend neither builds
the dict-of-:class:`EdgeInfo` graph nor a full pair → weight dict: the kernel
emits three dense edge arrays, the WEP/WNP/CEP/CNP retention runs over them as
array expressions, and only the retained edges become python tuples — with
the same floats, the same tie-breaks and therefore the same retained edges as
the interpreted path, to the last bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.blocking.block import BlockCollection
from repro.metablocking import backends as _backends
from repro.metablocking.entropy_weighting import apply_entropy_weights
from repro.metablocking.graph import BlockingGraph, blocking_graph_from_index
from repro.metablocking.index import CSRBlockIndex
from repro.metablocking.pruning import PruningStrategy, make_pruning_strategy
from repro.metablocking.weights import WeightingScheme, weight_all_edges
from repro.options import EngineOptions


@dataclass
class MetaBlockingResult:
    """Output of a meta-blocking run."""

    candidate_pairs: set[tuple[int, int]] = field(default_factory=set)
    retained_edges: dict[tuple[int, int], float] = field(default_factory=dict)
    graph_edges: int = 0
    graph_nodes: int = 0

    @property
    def num_candidates(self) -> int:
        return len(self.candidate_pairs)

    def as_dict(self) -> dict[str, int]:
        """Flat summary used by reports and benchmarks."""
        return {
            "graph_nodes": self.graph_nodes,
            "graph_edges": self.graph_edges,
            "candidate_pairs": self.num_candidates,
        }


class MetaBlocker:
    """Sequential (driver-side) meta-blocking.

    Parameters
    ----------
    weighting:
        Edge weighting scheme (default CBS, the scheme of the paper's toy
        example).
    pruning:
        Pruning strategy or its short name (default WEP: keep edges above the
        average weight, again the paper's toy example).
    use_entropy:
        When True the edge weights are multiplied by the mean entropy of the
        generating blocks before pruning (BLAST).  Has no effect if every
        block carries the default entropy of 1.0.
    options:
        Resolved :class:`~repro.options.EngineOptions`, handed to the CSR
        index untouched (``None``: the index resolves environment/defaults).
    """

    def __init__(
        self,
        weighting: str | WeightingScheme = WeightingScheme.CBS,
        pruning: str | PruningStrategy = "wep",
        *,
        use_entropy: bool = False,
        options: EngineOptions | None = None,
    ) -> None:
        self.weighting = WeightingScheme.parse(weighting)
        self.pruning = make_pruning_strategy(pruning)
        self.use_entropy = use_entropy
        self.options = options

    def run(self, blocks: BlockCollection) -> MetaBlockingResult:
        """Run meta-blocking over ``blocks`` and return the candidate pairs."""
        index = CSRBlockIndex.from_blocks(blocks, self.options)
        try:
            vectorised = self._retain_vectorised(index)
            if vectorised is not None:
                table, positions = vectorised
                retained = _backends.retained_dict(table, positions)
                return MetaBlockingResult(
                    candidate_pairs=set(retained),
                    retained_edges=retained,
                    graph_edges=len(table),
                    graph_nodes=index.num_nodes,
                )
            graph = blocking_graph_from_index(
                index, clean_clean=blocks.clean_clean, num_blocks=len(blocks)
            )
            return self.run_on_graph(graph)
        finally:
            index.close()

    def stream_retained(
        self,
        blocks: BlockCollection,
        chunk_edges: int = _backends.DEFAULT_CHUNK_EDGES,
    ):
        """Yield the retained edges in bounded chunks of ``((a, b), weight)``.

        The streaming counterpart of :meth:`run`: the concatenation of the
        yielded chunks is exactly ``run(blocks).retained_edges.items()`` —
        same edges, same floats, same order.  On the numpy kernel backend
        with a stock pruning strategy no retained-edge dict is ever built:
        the O(E) residual is three dense numeric arrays (and, under the
        ``memmap`` buffer backend, the index pages from disk), so the peak
        python-object footprint is O(chunk).  Custom strategies and the
        interpreted backend fall back to the graph path and chunk its
        dict — correct, but not out-of-core.
        """
        index = CSRBlockIndex.from_blocks(blocks, self.options)
        try:
            vectorised = self._retain_vectorised(index)
            if vectorised is not None:
                yield from _backends.iter_retained_chunks(*vectorised, chunk_edges)
                return
            graph = blocking_graph_from_index(
                index, clean_clean=blocks.clean_clean, num_blocks=len(blocks)
            )
            yield from _backends.iter_dict_chunks(
                self.run_on_graph(graph).retained_edges, chunk_edges
            )
        finally:
            index.close()

    def _retain_vectorised(self, index: CSRBlockIndex) -> "tuple | None":
        """The numpy fast path: ``(edge table, retained positions)``.

        One kernel sweep into three dense arrays, array pruning over them;
        the only pair tuples ever built are the retained ones.  Returns
        ``None`` on the python kernel and for custom pruning strategies the
        vectorised dispatch does not recognise — decided *before* the sweep,
        so the graph-path fallback never pays for a discarded one.
        """
        if index.backend != "numpy" or not _backends.supports_strategy(self.pruning):
            return None
        plan = index.weight_plan(self.weighting, self.use_entropy)
        table = index.kernel().weight_arrays(plan)
        return table, _backends.retained_positions(self.pruning, table, index)

    def run_on_graph(self, graph: BlockingGraph) -> MetaBlockingResult:
        """Run weighting + (entropy) + pruning over a prebuilt blocking graph."""
        weights = weight_all_edges(graph, self.weighting)
        if self.use_entropy:
            weights = apply_entropy_weights(graph, weights)
        retained = self.pruning.prune(graph, weights)
        return MetaBlockingResult(
            candidate_pairs=set(retained),
            retained_edges=retained,
            graph_edges=graph.num_edges,
            graph_nodes=graph.num_nodes,
        )

    def __call__(self, blocks: BlockCollection) -> MetaBlockingResult:
        return self.run(blocks)
