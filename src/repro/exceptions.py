"""Exception hierarchy for the SparkER reproduction.

All library-specific errors derive from :class:`SparkERError` so callers can
catch a single base class at the pipeline boundary.
"""


class SparkERError(Exception):
    """Base class for every error raised by this package."""


class ConfigurationError(SparkERError):
    """An invalid or inconsistent configuration value was supplied."""


class DataError(SparkERError):
    """Input data could not be parsed or violates the data-model contract."""


class EngineError(SparkERError):
    """The engine was misused or lost a worker (bad option, crashed pool)."""


class BlockingError(SparkERError):
    """A blocking stage received invalid input or produced an invalid state."""


class MetaBlockingError(SparkERError):
    """Meta-blocking failed (unknown weighting scheme, bad graph, ...)."""


class MatchingError(SparkERError):
    """Entity matching failed (unknown similarity function, untrained model)."""


class ClusteringError(SparkERError):
    """Entity clustering failed (unknown algorithm, inconsistent graph)."""


class EvaluationError(SparkERError):
    """Evaluation was requested without the required ground truth."""


class PipelineError(SparkERError):
    """A stage-graph pipeline was composed or executed incorrectly."""


class PipelineValidationError(PipelineError):
    """A pipeline spec failed composition-time validation (missing or
    mistyped artifacts, unknown stages, bad parameters)."""
