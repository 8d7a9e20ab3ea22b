"""The sequential meta-blocker: weight the graph, (optionally) re-weight by
entropy, prune, return candidate pairs.

This is the reference driver; :class:`repro.metablocking.parallel.
ParallelMetaBlocker` produces exactly the same output using the broadcast-join
structure SparkER runs on Spark.

Both build the CSR index, let its kernel (:mod:`repro.metablocking.backends`)
emit every edge once as three dense arrays — endpoints and weight, entropy
factor included — range by range, and prune them with the one retention tail,
:func:`~repro.metablocking.backends.retained_positions`: the WEP/WNP/CEP/CNP
rules as array expressions.  The result keeps the retained edges as columns:
the candidate pairs sorted once by their dense codes, the retained-edge dict
built only when read.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.blocking.block import BlockCollection
from repro.blocking.pairs import CandidatePairs
from repro.exceptions import MetaBlockingError
from repro.metablocking import backends as _backends
from repro.metablocking.backends import EdgeWeights, RetainedEdges
from repro.metablocking.index import CSRBlockIndex
from repro.metablocking.pruning import PruningStrategy, make_pruning_strategy
from repro.metablocking.weights import WeightingScheme


@dataclass
class MetaBlockingResult:
    """Output of a meta-blocking run.

    ``candidate_pairs`` is a read-only :class:`CandidatePairs` and
    ``retained_edges`` a read-only :class:`RetainedEdges` mapping.
    """

    candidate_pairs: CandidatePairs = field(default_factory=CandidatePairs)
    retained_edges: RetainedEdges = field(default_factory=RetainedEdges)
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
        table, positions = self._job(blocks)
        # Upper edges over ascending dense ids: the codes sort as the pairs do.
        pairs = CandidatePairs.from_codes(
            np.sort(table.a[positions] * table.num_nodes + table.b[positions]), table.node_ids
        )
        return MetaBlockingResult(
            candidate_pairs=pairs,
            retained_edges=RetainedEdges(table, positions),
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
        same edges, same floats, same order.  No retained-edge dict is ever
        built: the O(E) residual is three dense numeric arrays plus the
        retained positions, so the peak python-object footprint is O(chunk).
        A non-positive ``chunk_edges`` raises before any index is built.
        """
        if chunk_edges <= 0:
            raise MetaBlockingError("chunk_edges must be positive")
        yield from _backends.iter_retained_chunks(*self._job(blocks), chunk_edges)

    def __call__(self, blocks: BlockCollection) -> MetaBlockingResult:
        return self.run(blocks)

    # -------------------------------------------------------------- internals
    def _job(self, blocks: BlockCollection) -> "tuple[EdgeWeights, object]":
        """Build the index, weigh it, retain: the edge table and the
        retained positions into it."""
        index = CSRBlockIndex.from_blocks(blocks)
        table = self._weigh(index)
        return table, _backends.retained_positions(self.pruning, table, index)

    def _weigh(self, index: CSRBlockIndex) -> EdgeWeights:
        """Every edge weight of ``index`` as one table, weighed range by range."""
        plan = index.weight_plan(self.weighting, self.use_entropy)
        return index.kernel().weight_arrays(plan)
