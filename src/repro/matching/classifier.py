"""Supervised matchers: logistic regression and naive Bayes over pair features.

The demo's supervised mode uses a Magellan-style classifier trained on labeled
pairs.  Magellan itself is not available offline, so these classifiers are
implemented from scratch on numpy; they consume the feature vectors of
:class:`repro.matching.features.PairFeatureExtractor`.
"""

from __future__ import annotations

from collections.abc import Sequence

try:  # numpy is optional at import time: only training/scoring the
    import numpy as np  # supervised classifiers needs it.
except ImportError:
    np = None  # type: ignore[assignment]

from repro.data.dataset import ProfileCollection
from repro.data.profile import EntityProfile
from repro.exceptions import MatchingError
from repro.matching.features import PairFeatureExtractor, require_numpy
from repro.matching.matcher import Matcher


class LogisticRegressionMatcher(Matcher):
    """Binary logistic regression trained with batch gradient descent.

    Parameters
    ----------
    feature_extractor:
        Produces the numeric features of a pair.
    learning_rate / epochs / l2:
        Gradient-descent hyperparameters.
    decision_threshold:
        Probability above which a pair is labeled a match.
    """

    def __init__(
        self,
        feature_extractor: PairFeatureExtractor | None = None,
        *,
        learning_rate: float = 0.5,
        epochs: int = 300,
        l2: float = 1e-4,
        decision_threshold: float = 0.5,
    ) -> None:
        self.feature_extractor = feature_extractor or PairFeatureExtractor()
        self.learning_rate = learning_rate
        self.epochs = epochs
        self.l2 = l2
        self.decision_threshold = decision_threshold
        self._weights: np.ndarray | None = None
        self._bias: float = 0.0

    # ------------------------------------------------------------------ train
    @property
    def is_trained(self) -> bool:
        """True once :meth:`fit` has been called."""
        return self._weights is not None

    def fit(
        self,
        profiles: ProfileCollection,
        labeled_pairs: Sequence[tuple[int, int, bool]],
    ) -> "LogisticRegressionMatcher":
        """Train on ``(profile_a, profile_b, is_match)`` triples."""
        require_numpy()
        if not labeled_pairs:
            raise MatchingError("cannot train on an empty labeled-pair list")
        pairs = [(a, b) for a, b, _label in labeled_pairs]
        labels = np.array([1.0 if label else 0.0 for _a, _b, label in labeled_pairs])
        features = self.feature_extractor.feature_matrix(profiles, pairs)
        if len(set(labels.tolist())) < 2:
            raise MatchingError("training data must contain both matches and non-matches")

        num_features = features.shape[1]
        weights = np.zeros(num_features)
        bias = 0.0
        n = len(labels)
        for _ in range(self.epochs):
            logits = features @ weights + bias
            predictions = 1.0 / (1.0 + np.exp(-logits))
            error = predictions - labels
            gradient_w = features.T @ error / n + self.l2 * weights
            gradient_b = float(error.mean())
            weights -= self.learning_rate * gradient_w
            bias -= self.learning_rate * gradient_b
        self._weights = weights
        self._bias = bias
        return self

    # ------------------------------------------------------------------ score
    def predict_proba(self, left: EntityProfile, right: EntityProfile) -> float:
        """Match probability of one pair."""
        if self._weights is None:
            raise MatchingError("the matcher must be trained with fit() before use")
        features = self.feature_extractor.features(left, right)
        logit = float(features @ self._weights + self._bias)
        return 1.0 / (1.0 + np.exp(-logit))

    def evaluate(
        self, left: EntityProfile, right: EntityProfile, prepared: dict
    ) -> tuple[bool, float]:
        probability = self.predict_proba(left, right)
        return probability >= self.decision_threshold, probability


class NaiveBayesMatcher(Matcher):
    """Gaussian naive Bayes over pair features.

    A simpler supervised baseline; useful in the demo to show that the
    matcher module is pluggable.
    """

    def __init__(
        self,
        feature_extractor: PairFeatureExtractor | None = None,
        *,
        decision_threshold: float = 0.5,
        variance_floor: float = 1e-6,
    ) -> None:
        self.feature_extractor = feature_extractor or PairFeatureExtractor()
        self.decision_threshold = decision_threshold
        self.variance_floor = variance_floor
        self._means: dict[int, np.ndarray] = {}
        self._variances: dict[int, np.ndarray] = {}
        self._priors: dict[int, float] = {}

    @property
    def is_trained(self) -> bool:
        """True once :meth:`fit` has been called."""
        return bool(self._priors)

    def fit(
        self,
        profiles: ProfileCollection,
        labeled_pairs: Sequence[tuple[int, int, bool]],
    ) -> "NaiveBayesMatcher":
        """Train on ``(profile_a, profile_b, is_match)`` triples."""
        require_numpy()
        if not labeled_pairs:
            raise MatchingError("cannot train on an empty labeled-pair list")
        pairs = [(a, b) for a, b, _label in labeled_pairs]
        labels = np.array([1 if label else 0 for _a, _b, label in labeled_pairs])
        features = self.feature_extractor.feature_matrix(profiles, pairs)
        for cls in (0, 1):
            mask = labels == cls
            if not mask.any():
                raise MatchingError("training data must contain both classes")
            class_features = features[mask]
            self._means[cls] = class_features.mean(axis=0)
            self._variances[cls] = class_features.var(axis=0) + self.variance_floor
            self._priors[cls] = float(mask.mean())
        return self

    def _log_likelihood(self, features: np.ndarray, cls: int) -> float:
        mean = self._means[cls]
        variance = self._variances[cls]
        log_density = -0.5 * (
            np.log(2 * np.pi * variance) + (features - mean) ** 2 / variance
        )
        return float(log_density.sum() + np.log(self._priors[cls]))

    def predict_proba(self, left: EntityProfile, right: EntityProfile) -> float:
        """Match probability of one pair."""
        if not self._priors:
            raise MatchingError("the matcher must be trained with fit() before use")
        features = self.feature_extractor.features(left, right)
        log_match = self._log_likelihood(features, 1)
        log_non_match = self._log_likelihood(features, 0)
        maximum = max(log_match, log_non_match)
        match_term = np.exp(log_match - maximum)
        non_match_term = np.exp(log_non_match - maximum)
        return float(match_term / (match_term + non_match_term))

    def evaluate(
        self, left: EntityProfile, right: EntityProfile, prepared: dict
    ) -> tuple[bool, float]:
        probability = self.predict_proba(left, right)
        return probability >= self.decision_threshold, probability
