"""Broadcast-join parallel meta-blocking on the mini engine — one stage.

The paper (Section 2.1) describes the parallel meta-blocking as *inspired by
the broadcast join*: the nodes of the blocking graph are partitioned, the
compact block index is broadcast, and each task materialises the
neighbourhoods of its own nodes and weighs their edges.  This module keeps
that shape and moves every edge as an *array element*, never as a python
object, until the retained set is known:

1. **Driver.**  Build the :class:`~repro.metablocking.index.CSRBlockIndex`,
   export its buffers to one shared-memory segment (numpy kernel on a
   process pool; otherwise the index pickles) and broadcast it — the job's
   only broadcast.  Split the dense node ids ``[0, n)`` into
   ``default_parallelism`` contiguous ranges balanced by *sweep cost* — per
   node, the summed size of the blocks it sits in, read off the offset
   arrays without materialising a neighbourhood (:func:`balanced_ranges`).
2. **One executor stage, ``metablocking.weights``.**  A task receives one
   ``(lo, hi)`` range, runs one partial kernel sweep over it against the
   broadcast index and returns ``(a, b, w)``: dense endpoints and weight of
   every edge whose *lower* endpoint is in the range — ndarrays under the
   numpy kernel, ``array('q')`` / ``array('d')`` under the python kernel.
   Each edge is emitted exactly once, so there is nothing to deduplicate
   and nothing to shuffle.
3. **Driver.**  Concatenate the task results in range order into one
   :class:`~repro.metablocking.backends.EdgeWeights` table and prune it with
   the retention tail the sequential
   :class:`~repro.metablocking.metablocker.MetaBlocker` uses
   (:func:`~repro.metablocking.backends.retained_positions`, or the scalar
   ``strategy.prune`` on the python kernel / for custom strategies).

**Range order is emission order.**  The kernels emit edges node-major (dense
ids ascending), first-touch within a node, each from its lower endpoint.  A
contiguous range covers consecutive nodes, so concatenating the ranges in
order reproduces the sequential full sweep's edge stream exactly — whatever
the number of ranges.  Every order-sensitive float (WEP's global mean, WNP's
per-node means) is then computed by the *same* code over the *same* array,
so retained edges, weights and the result dict's order are bit-for-bit the
sequential ones by construction.

**Pruning stays on the driver.**  It is a handful of array expressions, an
order of magnitude cheaper than the weighing; WEP and CEP need the global
view anyway; and distributing the node-centric votes would re-create a
shuffle whose per-edge records cost more than the votes they carry.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from itertools import accumulate

from repro.blocking.block import BlockCollection
from repro.engine.context import EngineContext
from repro.engine.executors import MultiprocessingExecutor
from repro.metablocking import backends as _backends
from repro.metablocking.backends import EdgeWeights
from repro.metablocking.index import CSRBlockIndex
from repro.metablocking.metablocker import MetaBlocker, MetaBlockingResult
from repro.metablocking.pruning import PruningStrategy, make_pruning_strategy
from repro.metablocking.weights import WeightingScheme
from repro.options import EngineOptions


def balanced_ranges(costs, parts: int) -> list[tuple[int, int]]:
    """Split ``[0, len(costs))`` into contiguous ranges of near-equal cost.

    ``costs`` are non-negative integers.  Returns at most ``parts`` non-empty
    ``(lo, hi)`` ranges that are disjoint, ascending and cover every index;
    the ``k``-th cut is the first index whose cost prefix reaches ``k/parts``
    of the total, so no range outweighs the ideal share by more than the
    heaviest single element.  Zero-cost stretches never get a range of their
    own (an all-zero vector yields one range).
    """
    n = len(costs)
    if n == 0:
        return []
    prefix = [0, *accumulate(costs)]
    total = prefix[-1]
    cuts = {0, n}
    for k in range(1, parts):
        cuts.add(bisect_left(prefix, -(-k * total // parts)))
    bounds = sorted(cuts)
    return list(zip(bounds, bounds[1:]))


class _RangeWeigher:
    """``(lo, hi)`` → the ``(a, b, w)`` edge arrays of that dense node range.

    The task function of the ``metablocking.weights`` stage: a module-level
    callable with bound arguments (not a closure), so the stage pickles and
    runs unchanged on the multiprocessing executor.  The weight plan is
    cached on the index, i.e. resolved once per worker process.
    """

    __slots__ = ("broadcast", "scheme", "use_entropy")

    def __init__(self, broadcast, scheme: WeightingScheme, use_entropy: bool) -> None:
        self.broadcast = broadcast
        self.scheme = scheme
        self.use_entropy = use_entropy

    def __call__(self, bounds: tuple[int, int]) -> tuple:
        index: CSRBlockIndex = self.broadcast.value
        plan = index.weight_plan(self.scheme, self.use_entropy)
        return index.kernel().range_weights(*bounds, plan)


def _edge_table(index: CSRBlockIndex, parts: list[tuple]) -> EdgeWeights:
    """The task results, concatenated in range order, as one edge table."""
    if index.backend == "numpy":
        np = _backends.numpy_or_none()
        a, b, w = (np.concatenate(column) for column in zip(*parts))
        return EdgeWeights(a, b, w, index.num_nodes, index.kernel().node_ids)
    a, b, w = array("q"), array("q"), array("d")
    for part_a, part_b, part_w in parts:
        a.extend(part_a)
        b.extend(part_b)
        w.extend(part_w)
    return EdgeWeights(a, b, w, index.num_nodes, index.node_ids)


class ParallelMetaBlocker:
    """Parallel meta-blocking with the broadcast-join structure of SparkER.

    Parameters
    ----------
    context:
        The engine context the job runs on.
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

        The concatenation of the chunks equals ``run(blocks).retained_edges
        .items()`` — and :meth:`MetaBlocker.stream_retained` — exactly.  On
        the numpy kernel with a stock strategy the driver holds the edges as
        three dense arrays plus the retained positions and materialises one
        chunk of python tuples at a time; the python kernel and custom
        strategies prune a full weight dict and slice the result.
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
        """Weigh on the executor, prune on the driver.

        Returns ``(table, positions, retained)``: the edge table plus either
        the retained positions into it (numpy kernel, stock strategy) or —
        ``positions`` is ``None`` — the retained dict of the scalar
        ``prune``.  The index, its shared segment and the broadcast are
        run-scoped: all released here, also when a task raises.
        """
        index = CSRBlockIndex.from_blocks(blocks, self.options)
        broadcast = None
        try:
            if index.num_nodes == 0:
                return EdgeWeights(array("q"), array("q"), array("d"), 0), None, {}
            # Resolved before the index ships: what the plan reads beyond the
            # CSR buffers (EJS's degree vector and edge count) travels with
            # the index instead of being re-swept per worker.
            index.weight_plan(self.weighting, self.use_entropy)
            if index.backend == "numpy" and isinstance(
                self.context.executor, MultiprocessingExecutor
            ):
                # The broadcast pickle then carries only a segment reference:
                # pool workers map the index instead of deserialising copies.
                index.export_shared()
            broadcast = self.context.broadcast(index)
            ranges = balanced_ranges(
                index.kernel().sweep_costs(), self.context.default_parallelism
            )
            parts = (
                self.context.parallelize(ranges, len(ranges))
                .map(
                    _RangeWeigher(broadcast, self.weighting, self.use_entropy),
                    name="metablocking.weights",
                )
                .collect()
            )
            table = _edge_table(index, parts)
            return (table, *_backends.retain_edges(self.pruning, table, index))
        finally:
            if broadcast is not None:
                self.context.unbroadcast(broadcast)
            index.close()


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
