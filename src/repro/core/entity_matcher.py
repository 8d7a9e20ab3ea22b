"""The Entity Matcher module.

Takes the candidate pairs produced by the blocker and labels them as match or
non-match, producing the similarity graph.  The module is a thin orchestration
layer over the matchers of :mod:`repro.matching`; any matcher can be plugged
in (the demo uses Magellan's, here we provide threshold, rule-based and
classifier matchers).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.blocking.pairs import CandidatePairs
from repro.core.config import MatcherConfig
from repro.data.dataset import ProfileCollection
from repro.exceptions import ConfigurationError, MatchingError
from repro.matching.classifier import LogisticRegressionMatcher
from repro.matching.features import PairFeatureExtractor
from repro.matching.matcher import Matcher, MatchingRule, RuleBasedMatcher, ThresholdMatcher
from repro.matching.similarity_graph import SimilarityGraph
from repro.looseschema.attribute_partitioning import AttributePartitioning
from repro.utils.tokenize import TokenTable


class EntityMatcher:
    """Labels candidate pairs as matches, producing the similarity graph.

    Parameters
    ----------
    config:
        Matcher configuration; ``config.mode`` selects the underlying matcher.
    rules:
        The rule conjunction, required when ``mode == "rules"``.
    labeled_pairs:
        ``(a, b, is_match)`` triples, required when ``mode == "classifier"``
        (supervised mode).
    partitioning:
        Optional loose-schema partitioning used to add per-cluster features to
        the supervised matcher.
    matcher:
        A fully custom matcher instance; overrides ``config.mode`` when given.
    """

    def __init__(
        self,
        config: MatcherConfig | None = None,
        *,
        rules: Sequence[MatchingRule] | None = None,
        labeled_pairs: Sequence[tuple[int, int, bool]] | None = None,
        partitioning: AttributePartitioning | None = None,
        matcher: Matcher | None = None,
    ) -> None:
        self.config = config or MatcherConfig()
        self.config.validate()
        self.rules = list(rules) if rules else []
        self.labeled_pairs = list(labeled_pairs) if labeled_pairs else []
        self.partitioning = partitioning
        self._custom_matcher = matcher

    # ------------------------------------------------------------------ public
    def build_matcher(self, profiles: ProfileCollection) -> Matcher:
        """Instantiate (and, for the classifier, train) the configured matcher."""
        if self._custom_matcher is not None:
            return self._custom_matcher
        mode = self.config.mode
        if mode == "threshold":
            return ThresholdMatcher(
                similarity=self.config.similarity, threshold=self.config.threshold
            )
        if mode == "rules":
            if not self.rules:
                raise ConfigurationError("matcher mode 'rules' requires a rule list")
            return RuleBasedMatcher(self.rules)
        if mode == "classifier":
            if not self.labeled_pairs:
                raise MatchingError(
                    "matcher mode 'classifier' requires labeled pairs for training"
                )
            extractor = PairFeatureExtractor(partitioning=self.partitioning)
            matcher = LogisticRegressionMatcher(
                extractor,
                epochs=self.config.classifier_epochs,
                decision_threshold=self.config.decision_threshold,
            )
            matcher.fit(profiles, self.labeled_pairs)
            return matcher
        raise ConfigurationError(f"unknown matcher mode {mode!r}")

    def match(
        self,
        profiles: ProfileCollection,
        candidate_pairs: "CandidatePairs | Iterable[tuple[int, int]]",
        table: TokenTable | None = None,
    ) -> SimilarityGraph:
        """Score/label every candidate pair, in sorted order, and return the
        similarity graph.  :class:`CandidatePairs` are in that order already;
        any other iterable of tuples is sorted here, once.  ``table``, a token
        table of ``profiles``, goes to a threshold matcher."""
        matcher = self.build_matcher(profiles)
        if not isinstance(candidate_pairs, CandidatePairs):
            candidate_pairs = sorted(candidate_pairs)
        if isinstance(matcher, ThresholdMatcher):
            return matcher.match(profiles, candidate_pairs, table)
        return matcher.match(profiles, candidate_pairs)

    def __call__(
        self,
        profiles: ProfileCollection,
        candidate_pairs: "CandidatePairs | Iterable[tuple[int, int]]",
    ) -> SimilarityGraph:
        return self.match(profiles, candidate_pairs)
