"""Broadcast-join parallel meta-blocking as one range map in the driver.

The paper (Section 2.1) describes the parallel meta-blocking as *inspired by
the broadcast join*: the nodes of the blocking graph are partitioned, the
compact block index is shared with every task, and each task materialises
the neighbourhoods of its own nodes and weighs their edges.  Here the
broadcast join is described and run as a range map in the driver.  The
sequential :class:`~repro.metablocking.metablocker.MetaBlocker` already weighs
that way, range by range (:meth:`~repro.metablocking.backends.NumpyKernel.
weight_arrays`); this class only maps the same ranges over the engine:

1. **Build.**  Build the :class:`~repro.metablocking.index.CSRBlockIndex` —
   the broadcast: every task reads it.  Split the dense node ids ``[0, n)``
   into the kernel's contiguous ranges balanced by *sweep cost* — per node,
   the summed size of the blocks it sits in, read off the offset arrays
   without materialising a neighbourhood — with at least
   ``default_parallelism`` parts and none over the scratch budget
   (:meth:`~repro.metablocking.backends.NumpyKernel.ranges`).
2. **One map, ``metablocking.weights``.**  A task receives one ``(lo, hi)``
   range, runs one range sweep over it and returns ``(a, b, w)`` ndarrays:
   dense endpoints and weight of every edge whose *lower* endpoint is in the
   range.  Each edge is emitted exactly once, so there is nothing to
   deduplicate and nothing to shuffle.
3. **Prune.**  Concatenate the task results in range order into one
   :class:`~repro.metablocking.backends.EdgeWeights` table and prune it with
   the retention tail of the sequential meta-blocker, which this class
   extends: only the weighing step differs.

**Range order is emission order.**  The kernel emits edges node-major (dense
ids ascending), first-touch within a node, each from its lower endpoint.  A
contiguous range covers consecutive nodes, so concatenating the ranges in
order reproduces one edge stream whatever the number of ranges — the
sequential path is this map at width 1.  Every order-sensitive float (WEP's
global mean, WNP's per-node means) is then computed by the *same* code over
the *same* array, so retained edges, weights and the result dict's order are
bit-for-bit the sequential ones by construction.

**Pruning is not mapped.**  It is a handful of array expressions, an order of
magnitude cheaper than the weighing; WEP and CEP need the global view anyway.
"""

from __future__ import annotations

from repro.engine.context import EngineContext
from repro.metablocking.backends import EdgeWeights
from repro.metablocking.index import CSRBlockIndex
from repro.metablocking.metablocker import MetaBlocker
from repro.metablocking.pruning import PruningStrategy
from repro.metablocking.weights import WeightingScheme


class ParallelMetaBlocker(MetaBlocker):
    """Parallel meta-blocking with the broadcast-join structure of SparkER.

    Parameters
    ----------
    context:
        The engine context whose map runs the range tasks.
    weighting / pruning / use_entropy:
        Same meaning as for :class:`~repro.metablocking.metablocker.MetaBlocker`.
    """

    def __init__(
        self,
        context: EngineContext,
        weighting: str | WeightingScheme = WeightingScheme.CBS,
        pruning: str | PruningStrategy = "wnp",
        *,
        use_entropy: bool = False,
    ) -> None:
        super().__init__(weighting, pruning, use_entropy=use_entropy)
        self.context = context

    def _weigh(self, index: CSRBlockIndex) -> EdgeWeights:
        """Weigh on the engine: the sequential range list, mapped.

        The ranges are the kernel's budgeted ones, split into at least
        ``default_parallelism`` parts.
        """
        if index.num_nodes == 0:
            return super()._weigh(index)
        plan = index.weight_plan(self.weighting, self.use_entropy)
        kernel = index.kernel()
        parts = self.context.map(
            lambda bounds: kernel.range_weights(*bounds, plan),
            kernel.ranges(self.context.default_parallelism),
            "metablocking.weights",
        )
        return kernel.edge_table(parts)
