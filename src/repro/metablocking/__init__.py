"""Meta-blocking: CSR block index, edge weighting, pruning, entropy re-weighting."""

from repro.metablocking.backends import NumpyKernel
from repro.metablocking.index import CSRBlockIndex
from repro.metablocking.weights import WeightingScheme
from repro.metablocking.pruning import (
    PruningStrategy,
    WeightedEdgePruning,
    WeightedNodePruning,
    CardinalityEdgePruning,
    CardinalityNodePruning,
    ReciprocalWeightedNodePruning,
)
from repro.metablocking.metablocker import MetaBlocker, MetaBlockingResult
from repro.metablocking.parallel import ParallelMetaBlocker

__all__ = [
    "CSRBlockIndex",
    "NumpyKernel",
    "WeightingScheme",
    "PruningStrategy",
    "WeightedEdgePruning",
    "WeightedNodePruning",
    "CardinalityEdgePruning",
    "CardinalityNodePruning",
    "ReciprocalWeightedNodePruning",
    "MetaBlocker",
    "MetaBlockingResult",
    "ParallelMetaBlocker",
]
