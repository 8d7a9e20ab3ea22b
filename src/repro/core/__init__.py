"""The SparkER entry points: ``Blocker`` and ``SparkER`` build pipeline specs
over one blocker chain; ``DebugSession`` reruns the blocker on a sample."""

from repro.core.config import (
    SparkERConfig,
    BlockerConfig,
    MatcherConfig,
    ClustererConfig,
    SamplingConfig,
)
from repro.core.blocker import Blocker, BlockerReport
from repro.core.entity_matcher import EntityMatcher
from repro.core.entity_clusterer import EntityClusterer
from repro.core.sparker import SparkER, SparkERResult
from repro.core.debugging import DebugSession

__all__ = [
    "SparkERConfig",
    "BlockerConfig",
    "MatcherConfig",
    "ClustererConfig",
    "SamplingConfig",
    "Blocker",
    "BlockerReport",
    "EntityMatcher",
    "EntityClusterer",
    "SparkER",
    "SparkERResult",
    "DebugSession",
]
