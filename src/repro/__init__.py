"""SparkER reproduction: scalable entity resolution.

This package reproduces the system described in *SparkER: Scaling Entity
Resolution in Spark* (EDBT 2019).  It provides:

* ``repro.engine`` -- the range pool (a process pool behind
  ``EngineContext.map``, plus shared-memory and temp-file lifecycles) that
  runs the parallel meta-blocking,
* ``repro.data`` -- the entity-profile data model, loaders and synthetic
  dataset generators,
* ``repro.blocking`` -- schema-agnostic token blocking, loose-schema (BLAST)
  blocking, block purging and block filtering,
* ``repro.looseschema`` -- the loose-schema generator (LSH attribute
  partitioning + attribute-cluster entropy),
* ``repro.metablocking`` -- the blocking graph, edge-weighting schemes,
  pruning strategies, BLAST entropy re-weighting and the broadcast-join style
  parallel meta-blocking,
* ``repro.matching`` -- similarity functions, threshold / rule matchers and a
  supervised pair classifier,
* ``repro.clustering`` -- entity clustering algorithms (connected components
  and alternatives),
* ``repro.evaluation`` -- blocking and matching quality metrics,
* ``repro.sampling`` -- the process-debugging sampler,
* ``repro.pipeline`` -- the composable stage-graph API: typed stages in a
  string-keyed registry, declarative dict/JSON specs
  (``Pipeline.from_spec``), a validated runner with per-stage metrics and
  checkpoint/resume,
* ``repro.core`` -- the SparkER pipeline modules (Blocker, Entity Matcher,
  Entity Clusterer), the end-to-end :class:`~repro.core.sparker.SparkER`
  facade (a thin wrapper over the canonical pipeline spec) and the
  process-debugging session.
"""

from repro.version import __version__
from repro.data.profile import EntityProfile, KeyValue
from repro.data.dataset import ProfileCollection
from repro.data.ground_truth import GroundTruth
from repro.core.config import SparkERConfig, BlockerConfig, MatcherConfig, ClustererConfig
from repro.core.sparker import SparkER, SparkERResult
from repro.core.blocker import Blocker, BlockerReport
from repro.core.entity_matcher import EntityMatcher
from repro.core.entity_clusterer import EntityClusterer
from repro.core.debugging import DebugSession
from repro.pipeline import Pipeline, PipelineResult, Stage

__all__ = [
    "Pipeline",
    "PipelineResult",
    "Stage",
    "__version__",
    "EntityProfile",
    "KeyValue",
    "ProfileCollection",
    "GroundTruth",
    "SparkERConfig",
    "BlockerConfig",
    "MatcherConfig",
    "ClustererConfig",
    "SparkER",
    "SparkERResult",
    "Blocker",
    "BlockerReport",
    "EntityMatcher",
    "EntityClusterer",
    "DebugSession",
]
