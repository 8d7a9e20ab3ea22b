"""The sequential meta-blocker: weight the graph, (optionally) re-weight by
entropy, prune, return candidate pairs.

This is the reference driver; :class:`repro.metablocking.parallel.
ParallelMetaBlocker` produces exactly the same output using the broadcast-join
structure SparkER runs on Spark.

Both build the CSR index, let its kernel (:mod:`repro.metablocking.backends`)
emit every edge once as three dense arrays — endpoints and weight, entropy
factor included — and prune them with the one retention tail,
:func:`~repro.metablocking.backends.retain_edges`: the WEP/WNP/CEP/CNP rules
as array expressions, a custom strategy's own ``prune`` over the weight dict.
Only the retained edges become python tuples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.blocking.block import BlockCollection
from repro.metablocking import backends as _backends
from repro.metablocking.backends import EdgeWeights
from repro.metablocking.index import CSRBlockIndex
from repro.metablocking.pruning import PruningStrategy, make_pruning_strategy
from repro.metablocking.weights import WeightingScheme


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
    """

    def __init__(
        self,
        weighting: str | WeightingScheme = WeightingScheme.CBS,
        pruning: str | PruningStrategy = "wep",
        *,
        use_entropy: bool = False,
    ) -> None:
        self.weighting = WeightingScheme.parse(weighting)
        self.pruning = make_pruning_strategy(pruning)
        self.use_entropy = use_entropy

    def run(self, blocks: BlockCollection) -> MetaBlockingResult:
        """Run meta-blocking over ``blocks`` and return the candidate pairs."""
        table, positions, retained = self._job(blocks)
        if positions is not None:
            retained = _backends.retained_dict(table, positions)
        return MetaBlockingResult(
            candidate_pairs=set(retained),
            retained_edges=retained,
            graph_edges=len(table),
            graph_nodes=table.num_nodes,
        )

    def stream_retained(
        self,
        blocks: BlockCollection,
        chunk_edges: int = _backends.DEFAULT_CHUNK_EDGES,
    ):
        """Yield the retained edges in bounded chunks of ``((a, b), weight)``.

        The streaming counterpart of :meth:`run`: the concatenation of the
        yielded chunks is exactly ``run(blocks).retained_edges.items()`` —
        same edges, same floats, same order.  With a stock pruning strategy
        no retained-edge dict is ever built: the O(E) residual is three dense
        numeric arrays plus the retained positions, so the peak python-object
        footprint is O(chunk).  A custom strategy's ``prune`` returns a dict,
        which is sliced — correct, but not bounded by the chunk size.
        """
        table, positions, retained = self._job(blocks)
        if positions is None:
            yield from _backends.iter_dict_chunks(retained, chunk_edges)
        else:
            yield from _backends.iter_retained_chunks(table, positions, chunk_edges)

    def __call__(self, blocks: BlockCollection) -> MetaBlockingResult:
        return self.run(blocks)

    # -------------------------------------------------------------- internals
    def _job(self, blocks: BlockCollection) -> "tuple[EdgeWeights, object, dict | None]":
        """Build the index, weigh it, retain.

        Returns ``(table, positions, retained)``: the edge table plus either
        the retained positions into it (stock strategy) or — ``positions``
        is ``None`` — the retained dict of a custom strategy's ``prune``.
        The index is run-scoped: the table holds arrays it does not own, so
        the index is closed here, also when weighing raises.
        """
        index = CSRBlockIndex.from_blocks(blocks)
        try:
            table = self._weigh(index)
            return (table, *_backends.retain_edges(self.pruning, table, index))
        finally:
            index.close()

    def _weigh(self, index: CSRBlockIndex) -> EdgeWeights:
        """Every edge weight of ``index`` as one table: one kernel sweep."""
        plan = index.weight_plan(self.weighting, self.use_entropy)
        return index.kernel().weight_arrays(plan)
