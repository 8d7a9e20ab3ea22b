"""Pipeline configuration.

The demo distinguishes an *unsupervised* mode (run everything with a default
configuration) from a *supervised* mode (the user tunes a custom configuration
interactively on a sample, then applies it in batch mode).  Both modes are
driven by the same :class:`SparkERConfig`; the default instance is the
unsupervised configuration.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field, asdict

from repro.clustering.registry import make_clustering_algorithm
from repro.exceptions import ConfigurationError, SparkERError
from repro.matching.similarity import get_similarity_function
from repro.metablocking.pruning import make_pruning_strategy
from repro.metablocking.weights import WeightingScheme


def check_name(parse: Callable[[str], object], name: str) -> None:
    """Parse a scheme / strategy / function / algorithm name with its own
    parser; an unknown one is a :class:`ConfigurationError` naming it."""
    try:
        parse(name)
    except SparkERError as error:
        raise ConfigurationError(str(error)) from None


@dataclass
class BlockerConfig:
    """Configuration of the blocker module (Figure 4).

    Parameters
    ----------
    use_loose_schema:
        When True the loose-schema generator runs and blocking keys are
        qualified with attribute-cluster ids (BLAST); otherwise plain
        schema-agnostic token blocking is used.
    attribute_threshold:
        Similarity threshold of the attribute partitioning; 1.0 puts every
        attribute in the blob, reproducing schema-agnostic blocking.
    use_entropy:
        Re-weight meta-blocking edges by attribute-cluster entropy (BLAST).
    purge_factor:
        A block containing more than this fraction of all profiles is purged.
    filter_ratio:
        Fraction of each profile's blocks kept by block filtering.
    weighting_scheme / pruning_strategy:
        Meta-blocking weighting (cbs, ecbs, js, ejs, arcs) and pruning
        (wep, cep, wnp, rwnp, cnp).
    use_meta_blocking:
        When False the candidate pairs are the distinct comparisons of the
        (purged + filtered) blocks, with no graph pruning.
    min_token_length / remove_stopwords:
        Tokenization options.
    """

    use_loose_schema: bool = True
    attribute_threshold: float = 0.3
    use_entropy: bool = True
    purge_factor: float = 0.5
    filter_ratio: float = 0.8
    weighting_scheme: str = "cbs"
    pruning_strategy: str = "wnp"
    use_meta_blocking: bool = True
    min_token_length: int = 1
    remove_stopwords: bool = False

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on inconsistent values."""
        if not 0.0 <= self.attribute_threshold <= 1.0:
            raise ConfigurationError("attribute_threshold must be in [0, 1]")
        if not 0.0 < self.purge_factor <= 1.0:
            raise ConfigurationError("purge_factor must be in (0, 1]")
        if not 0.0 < self.filter_ratio <= 1.0:
            raise ConfigurationError("filter_ratio must be in (0, 1]")
        if self.min_token_length < 1:
            raise ConfigurationError("min_token_length must be >= 1")
        check_name(WeightingScheme.parse, self.weighting_scheme)
        check_name(make_pruning_strategy, self.pruning_strategy)


@dataclass
class MatcherConfig:
    """Configuration of the entity matcher.

    ``mode`` selects the matcher: ``threshold`` (unsupervised, default),
    ``rules`` (user-provided conjunction of per-attribute rules) or
    ``classifier`` (supervised logistic regression trained on labeled pairs).
    """

    mode: str = "threshold"
    similarity: str = "jaccard"
    threshold: float = 0.4
    classifier_epochs: int = 300
    decision_threshold: float = 0.5

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on inconsistent values."""
        if self.mode not in {"threshold", "rules", "classifier"}:
            raise ConfigurationError(
                "matcher mode must be one of: threshold, rules, classifier"
            )
        if not 0.0 <= self.threshold <= 1.0:
            raise ConfigurationError("threshold must be in [0, 1]")
        if not 0.0 <= self.decision_threshold <= 1.0:
            raise ConfigurationError("decision_threshold must be in [0, 1]")
        check_name(get_similarity_function, self.similarity)


@dataclass
class ClustererConfig:
    """Configuration of the entity clusterer.

    The paper's clusterer is connected components (no parameters); alternative
    algorithms are available for experimentation.
    """

    algorithm: str = "connected_components"
    min_score: float = 0.0

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on inconsistent values."""
        if not 0.0 <= self.min_score <= 1.0:
            raise ConfigurationError("min_score must be in [0, 1]")
        check_name(make_clustering_algorithm, self.algorithm)


@dataclass
class SamplingConfig:
    """Configuration of the process-debugging sampler (K and k of the paper)."""

    num_seeds: int = 20
    per_seed: int = 10
    seed: int = 23

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on inconsistent values."""
        if self.num_seeds <= 0 or self.per_seed <= 0:
            raise ConfigurationError("num_seeds and per_seed must be positive")


@dataclass
class SparkERConfig:
    """Top-level configuration of a SparkER run."""

    blocker: BlockerConfig = field(default_factory=BlockerConfig)
    matcher: MatcherConfig = field(default_factory=MatcherConfig)
    clusterer: ClustererConfig = field(default_factory=ClustererConfig)
    sampling: SamplingConfig = field(default_factory=SamplingConfig)

    def validate(self) -> None:
        """Validate every section."""
        self.blocker.validate()
        self.matcher.validate()
        self.clusterer.validate()
        self.sampling.validate()

    def as_dict(self) -> dict[str, object]:
        """Nested dictionary of every configuration value (for persistence)."""
        return asdict(self)

    @classmethod
    def unsupervised_default(cls) -> "SparkERConfig":
        """The out-of-the-box configuration of the unsupervised mode."""
        return cls()

    @classmethod
    def schema_agnostic(cls) -> "SparkERConfig":
        """A configuration that disables the loose-schema generator entirely."""
        config = cls()
        config.blocker.use_loose_schema = False
        config.blocker.use_entropy = False
        return config

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "SparkERConfig":
        """Rebuild a configuration from :meth:`as_dict` output; keys outside
        the four sections (a retired ``parallelism``) are ignored."""
        config = cls()
        blocker = dict(data.get("blocker", {}))
        matcher = dict(data.get("matcher", {}))
        clusterer = dict(data.get("clusterer", {}))
        sampling = dict(data.get("sampling", {}))
        config.blocker = BlockerConfig(**blocker)
        config.matcher = MatcherConfig(**matcher)
        config.clusterer = ClustererConfig(**clusterer)
        config.sampling = SamplingConfig(**sampling)
        config.validate()
        return config
