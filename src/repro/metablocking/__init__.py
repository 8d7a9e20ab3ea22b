"""Meta-blocking: blocking graph, edge weighting, pruning, entropy re-weighting."""

from repro.metablocking.backends import (
    NumpyKernel,
    PythonKernel,
    numpy_available,
)
from repro.metablocking.graph import BlockingGraph, EdgeInfo, build_blocking_graph
from repro.metablocking.index import CSRBlockIndex
from repro.metablocking.weights import WeightingScheme, compute_edge_weight
from repro.metablocking.pruning import (
    PruningStrategy,
    WeightedEdgePruning,
    WeightedNodePruning,
    CardinalityEdgePruning,
    CardinalityNodePruning,
    ReciprocalWeightedNodePruning,
)
from repro.metablocking.entropy_weighting import apply_entropy_weights
from repro.metablocking.metablocker import MetaBlocker, MetaBlockingResult
from repro.metablocking.parallel import ParallelMetaBlocker

__all__ = [
    "BlockingGraph",
    "EdgeInfo",
    "build_blocking_graph",
    "CSRBlockIndex",
    "PythonKernel",
    "NumpyKernel",
    "numpy_available",
    "WeightingScheme",
    "compute_edge_weight",
    "PruningStrategy",
    "WeightedEdgePruning",
    "WeightedNodePruning",
    "CardinalityEdgePruning",
    "CardinalityNodePruning",
    "ReciprocalWeightedNodePruning",
    "apply_entropy_weights",
    "MetaBlocker",
    "MetaBlockingResult",
    "ParallelMetaBlocker",
]
