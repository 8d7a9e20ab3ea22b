"""Progressive meta-blocking (extension).

The SparkER authors' related work on *schema-agnostic progressive entity
resolution* (Simonini et al., ICDE 2018, cited as [6] in the demo paper)
emits candidate comparisons in decreasing order of estimated match likelihood
so that, under a limited comparison budget, most true matches are found early.
This module implements the two progressive strategies that build directly on
the meta-blocking graph of this package:

* :class:`ProgressiveSortedComparisons` — weight every edge of the blocking
  graph and emit edges globally sorted by decreasing weight (Progressive
  Global Sorting).
* :class:`ProgressiveNodeScheduling` — order the nodes by the average weight
  of their neighbourhood and emit, for each node in turn, its best unseen
  neighbours first (a simplified Progressive Profile Scheduling).

Both run on the CSR index's kernel backend directly (the interpreted
:class:`~repro.metablocking.backends.PythonKernel` or the vectorised
:class:`~repro.metablocking.backends.NumpyKernel`, selected by the engine
``options``) — one sweep materialising each node's neighbourhood
exactly once, every edge weighted from its lower endpoint — instead of
materialising a full :class:`~repro.metablocking.graph.BlockingGraph` and
re-deriving node statistics from it.  Every kernel fixes the same
accumulation order as the graph builder, so the weights (and therefore the
rankings) are bit-for-bit identical to the graph-based implementation they
replace, whichever backend runs the sweep.

``stream()`` is genuinely lazy: global sorting merges per-node runs through a
heap (:func:`heapq.merge`), so consuming the first *k* comparisons never pays
for a global sort; node scheduling yields node by node, each incident list
sorted exactly once up front.  ``rank()`` is simply ``list(stream())``.  The
benchmark ``bench_extension_progressive.py`` measures recall as a function of
the number of comparisons performed, the paper family's standard
"progressive recall" curve.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterator

from repro.blocking.block import BlockCollection
from repro.metablocking.index import CSRBlockIndex
from repro.metablocking.weights import WeightingScheme
from repro.options import EngineOptions

_Edge = tuple[tuple[int, int], float]


def _edge_rank(item: _Edge) -> tuple[float, tuple[int, int]]:
    """Best first: descending weight, ties broken by canonical pair order."""
    return (-item[1], item[0])


def _weighted_edges_by_node(
    index: CSRBlockIndex, scheme: WeightingScheme
) -> list[list[_Edge]]:
    """One kernel sweep: per dense node, its weighted edges (lower endpoint).

    Every edge appears exactly once, in the node-major first-touch order the
    graph builder uses — weights accumulate in the same order and come out
    float-identical to ``weight_all_edges(build_blocking_graph(blocks))``,
    whichever kernel backend drives the sweep.
    """
    plan = index.weight_plan(scheme, use_entropy=False)
    return index.kernel().weighted_edges_by_node(plan)


class ProgressiveSortedComparisons:
    """Emit candidate pairs in globally decreasing weight order.

    Parameters
    ----------
    weighting:
        Edge weighting scheme used to rank the comparisons.
    options:
        Resolved :class:`~repro.options.EngineOptions` for the CSR index
        :meth:`stream` builds (``None``: the index resolves them).
    """

    def __init__(
        self,
        weighting: str | WeightingScheme = WeightingScheme.CBS,
        *,
        options: EngineOptions | None = None,
    ) -> None:
        self.weighting = WeightingScheme.parse(weighting)
        self.options = options

    def rank(self, blocks: BlockCollection) -> list[tuple[int, int]]:
        """Return every distinct comparison, best first."""
        return list(self.stream(blocks))

    def stream(self, blocks: BlockCollection) -> Iterator[tuple[int, int]]:
        """Iterate the ranked comparisons lazily (heap merge of node runs).

        Each node's emitted edges form one run, sorted by the rank key; the
        runs are merged through a heap, so pulling the best *k* comparisons
        costs O(k log n) pops after the weighting sweep — no global sort.
        """
        index = CSRBlockIndex.from_blocks(blocks, self.options)
        try:
            iterator = self.stream_index(index)
        finally:
            index.close()
        yield from iterator

    def stream_index(self, index: CSRBlockIndex) -> Iterator[tuple[int, int]]:
        """:meth:`stream` over a caller-owned, already-built index.

        The service layer keeps one long-lived index per collection and
        answers every budgeted match query from it — same ranking, same heap
        merge, but the index is neither rebuilt nor closed here.  The
        weighting sweep runs eagerly (so the caller may close the index as
        soon as this returns); only the merge is lazy.
        """
        runs = [
            sorted(edges, key=_edge_rank)
            for edges in _weighted_edges_by_node(index, self.weighting)
            if edges
        ]

        def _merge() -> Iterator[tuple[int, int]]:
            for pair, _weight in heapq.merge(*runs, key=_edge_rank):
                yield pair

        return _merge()


class ProgressiveNodeScheduling:
    """Emit comparisons node by node, best nodes and best neighbours first."""

    def __init__(
        self,
        weighting: str | WeightingScheme = WeightingScheme.CBS,
        *,
        options: EngineOptions | None = None,
    ) -> None:
        self.weighting = WeightingScheme.parse(weighting)
        self.options = options

    def rank(self, blocks: BlockCollection) -> list[tuple[int, int]]:
        """Return every distinct comparison following the node schedule."""
        return list(self.stream(blocks))

    def stream(self, blocks: BlockCollection) -> Iterator[tuple[int, int]]:
        """Iterate the scheduled comparisons lazily, one node at a time."""
        index = CSRBlockIndex.from_blocks(blocks, self.options)
        try:
            iterator = self.stream_index(index)
        finally:
            index.close()
        yield from iterator

    def stream_index(self, index: CSRBlockIndex) -> Iterator[tuple[int, int]]:
        """:meth:`stream` over a caller-owned, already-built index.

        Sweep, schedule and per-node sorting all run eagerly (the caller may
        close the index as soon as this returns); the emission loop is lazy.
        """
        per_node = _weighted_edges_by_node(index, self.weighting)

        # Per-node incident edges, built in edge-emission order (the order the
        # node-priority float sums depend on), then each list sorted exactly
        # once up front — not per visit inside the emission loop.
        incident: dict[int, list[_Edge]] = {}
        for edges in per_node:
            for edge in edges:
                pair, _weight = edge
                for node in pair:
                    incident.setdefault(node, []).append(edge)
        priority = {
            node: sum(w for _p, w in edges) / len(edges)
            for node, edges in incident.items()
        }
        for edges in incident.values():
            edges.sort(key=_edge_rank)

        def _emit() -> Iterator[tuple[int, int]]:
            emitted: set[tuple[int, int]] = set()
            for node in sorted(priority, key=lambda n: (-priority[n], n)):
                for pair, _weight in incident[node]:
                    if pair in emitted:
                        continue
                    emitted.add(pair)
                    yield pair

        return _emit()


def progressive_recall_curve(
    ranking: list[tuple[int, int]],
    true_pairs: set[tuple[int, int]],
    *,
    num_points: int = 10,
) -> list[dict[str, float]]:
    """Recall after the first k comparisons, for ``num_points`` budgets.

    Returns rows with ``comparisons`` (the budget) and ``recall`` — the series
    plotted by progressive-ER papers.
    """
    if not ranking or not true_pairs:
        return []
    points = []
    total = len(ranking)
    found = 0
    truth = set(true_pairs)
    checkpoints = {max(1, round(total * (i + 1) / num_points)) for i in range(num_points)}
    for index, pair in enumerate(ranking, start=1):
        if pair in truth:
            found += 1
        if index in checkpoints:
            points.append(
                {"comparisons": index, "recall": round(found / len(truth), 6)}
            )
    return points
