"""Composable stage-graph pipeline API.

The paper's central architectural claim (Figure 3) is that entity resolution
decomposes into *black-box modules* that non-expert users can recombine:
profiles flow through the Blocker, the Entity Matcher and the Entity
Clusterer, and each module is internally a short pipeline of interchangeable
steps.  This package is the library form of that claim — every step is a
typed :class:`~repro.pipeline.stage.Stage` in a string-keyed registry, and a
:class:`~repro.pipeline.runner.Pipeline` wires any subset of them together
from a plain dict/JSON spec, with composition-time validation of the artifact
kinds that flow between them.

Mapping of registered stages to Figure 3 of the paper:

====================== ======================================================
Registry key            Paper module / figure element
====================== ======================================================
``loose_schema``        Blocker → Loose-schema generator (Figure 4, BLAST:
                        attribute partitioning + cluster entropies)
``token_blocking``      Blocker → Block generation (schema-agnostic token
                        blocking, or loose-schema blocking when a
                        partitioning artifact is wired in)
``block_purging``       Blocker → Block purging
``block_filtering``     Blocker → Block filtering
``meta_blocking``       Blocker → Meta-blocking (graph weighting + pruning)
``block_comparisons``   Blocker → candidate pairs without meta-blocking
``progressive_meta_blocking``  Progressive ER extension ([6] of the demo
                        paper): budgeted best-first candidate emission
``matching``            Entity Matcher (threshold / rules / classifier)
``clustering``          Entity Clusterer → connected components &
                        alternative algorithms (Figure 5)
``entity_generation``   Entity Clusterer → entity generation (merged
                        attribute values per cluster)
``evaluation``          The demo GUI's quality panels: blocking, matching
                        and clustering metrics vs the ground truth
====================== ======================================================

Quick start::

    from repro.pipeline import Pipeline

    result = Pipeline.from_spec({
        "stages": [
            {"stage": "token_blocking"},
            {"stage": "block_purging"},
            {"stage": "block_filtering"},
            {"stage": "meta_blocking", "params": {"weighting": "cbs",
                                                  "pruning": "wnp"}},
            {"stage": "matching", "params": {"threshold": 0.4}},
            {"stage": "clustering"},
            {"stage": "entity_generation"},
        ],
    }).run(profiles, ground_truth)
    result.entities, result.summary(), result.metric_rows(), result.stage_rows()

:class:`repro.core.sparker.SparkER` runs
``Pipeline.from_spec(SparkER.canonical_spec(config))`` and
:class:`repro.core.blocker.Blocker` the blocker half of that spec,
``blocker_stages(config.blocker)``.
"""

from repro.pipeline.artifacts import ArtifactStore, KNOWN_KINDS
from repro.pipeline.checkpoint import PipelineCheckpoint
from repro.pipeline.registry import (
    make_stage,
    register_stage,
    registered_stages,
    stage_catalog,
    stage_parameters,
)
from repro.pipeline.runner import Pipeline, PipelineContext, PipelineResult
from repro.pipeline.stage import ArtifactSpec, Stage, StageExecution

# Importing the adapters populates the registry.
from repro.pipeline import stages as _stages  # noqa: F401

__all__ = [
    "ArtifactSpec",
    "ArtifactStore",
    "KNOWN_KINDS",
    "Pipeline",
    "PipelineCheckpoint",
    "PipelineContext",
    "PipelineResult",
    "Stage",
    "StageExecution",
    "make_stage",
    "register_stage",
    "registered_stages",
    "stage_catalog",
    "stage_parameters",
]
