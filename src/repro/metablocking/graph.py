"""The blocking graph.

Profiles are nodes; an (undirected) edge connects two profiles that co-occur
in at least one block.  Every edge carries the aggregate information required
by the different weighting schemes:

* ``common_blocks`` — number of blocks shared by the two profiles (CBS),
* ``arcs`` — sum over shared blocks of ``1 / ||b||`` where ``||b||`` is the
  block's comparison cardinality (ARCS),
* ``entropy_sum`` — sum of the entropies of the shared blocks, used by the
  BLAST entropy re-weighting (the average shared-block entropy multiplies the
  base weight).

Node-level statistics (how many blocks each profile appears in, total block
count) are kept on the graph because JS / ECBS / EJS need them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.blocking.block import BlockCollection
from repro.data.ground_truth import canonical_pair
from repro.metablocking.index import CSRBlockIndex
from repro.options import EngineOptions


@dataclass
class EdgeInfo:
    """Aggregate co-occurrence information of one blocking-graph edge."""

    common_blocks: int = 0
    arcs: float = 0.0
    entropy_sum: float = 0.0

    @property
    def mean_entropy(self) -> float:
        """Average entropy of the blocks shared by the edge's endpoints."""
        if self.common_blocks == 0:
            return 0.0
        return self.entropy_sum / self.common_blocks


@dataclass
class BlockingGraph:
    """The meta-blocking graph of a block collection."""

    edges: dict[tuple[int, int], EdgeInfo] = field(default_factory=dict)
    blocks_per_profile: dict[int, int] = field(default_factory=dict)
    num_blocks: int = 0
    clean_clean: bool = False
    _adjacency: dict[int, list[tuple[int, EdgeInfo]]] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _adjacency_edges: int = field(default=-1, init=False, repr=False, compare=False)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def num_nodes(self) -> int:
        return len(self.blocks_per_profile)

    def nodes(self) -> set[int]:
        """All profile ids that appear in at least one block."""
        return set(self.blocks_per_profile)

    def neighbors(self, profile_id: int) -> dict[int, EdgeInfo]:
        """Return neighbour → edge info of ``profile_id``.

        Served from a cached adjacency index (rebuilt if the edge count
        changed) instead of scanning every edge per lookup.
        """
        return dict(self._adjacency_index().get(profile_id, ()))

    def degrees(self) -> dict[int, int]:
        """Blocking-graph degree of every node that has at least one edge."""
        counts: dict[int, int] = {}
        for a, b in self.edges:
            counts[a] = counts.get(a, 0) + 1
            counts[b] = counts.get(b, 0) + 1
        return counts

    def _adjacency_index(self) -> dict[int, list[tuple[int, EdgeInfo]]]:
        if self._adjacency is None or self._adjacency_edges != len(self.edges):
            self._adjacency = self.adjacency()
            self._adjacency_edges = len(self.edges)
        return self._adjacency

    def edge(self, a: int, b: int) -> EdgeInfo | None:
        """Return the edge info of pair (a, b), or None if not adjacent."""
        return self.edges.get(canonical_pair(a, b))

    def adjacency(self) -> dict[int, list[tuple[int, EdgeInfo]]]:
        """Full adjacency list (neighbour lists for every node)."""
        adjacency: dict[int, list[tuple[int, EdgeInfo]]] = {
            node: [] for node in self.blocks_per_profile
        }
        for (a, b), info in self.edges.items():
            adjacency.setdefault(a, []).append((b, info))
            adjacency.setdefault(b, []).append((a, info))
        return adjacency


def build_blocking_graph(
    blocks: BlockCollection, options: EngineOptions | None = None
) -> BlockingGraph:
    """Materialise the blocking graph of ``blocks``.

    Runs on the CSR index's kernel backend (python or numpy — see
    :mod:`repro.metablocking.backends`), the same kernel the parallel
    meta-blocker broadcasts: each node's neighbourhood is materialised exactly
    once and every edge inserted from its lower endpoint.  Each edge carries
    the block-comparison cardinality sum (ARCS) and entropy sum (BLAST)
    accumulated in ascending block order — both backends fix the same
    accumulation order, so the graph is bit-for-bit identical either way.
    """
    index = CSRBlockIndex.from_blocks(blocks, options)
    try:
        return blocking_graph_from_index(
            index, clean_clean=blocks.clean_clean, num_blocks=len(blocks)
        )
    finally:
        index.close()


def blocking_graph_from_index(
    index: CSRBlockIndex, *, clean_clean: bool, num_blocks: int
) -> BlockingGraph:
    """Materialise a :class:`BlockingGraph` from a prebuilt CSR index."""
    graph = BlockingGraph(clean_clean=clean_clean, num_blocks=num_blocks)
    node_ids = index.node_ids
    # ``tolist`` (stdlib array and ndarray alike) yields plain ints: no numpy
    # scalar reaches a pruning strategy or a JSON payload through the graph.
    graph.blocks_per_profile = dict(zip(node_ids, index.node_block_count.tolist()))

    kernel = index.kernel()
    edges = graph.edges
    for node in range(index.num_nodes):
        profile_a = node_ids[node]
        for other, info in kernel.edge_items(node):
            edges[(profile_a, node_ids[other])] = info
    return graph
