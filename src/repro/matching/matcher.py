"""Unsupervised matchers: threshold and rule based.

The entity matcher receives candidate pairs from the blocker and labels each
as match / non-match, producing the similarity graph.  Any matcher can be
plugged in (the demo shows Magellan); this module implements the unsupervised
ones, :mod:`repro.matching.classifier` the supervised ones.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.blocking.pairs import pair_columns
from repro.data.dataset import ProfileCollection
from repro.data.profile import EntityProfile
from repro.exceptions import DataError, MatchingError
from repro.matching.similarity import SIMILARITY_FUNCTIONS, Similarity, get_similarity_function
from repro.matching.similarity_graph import SimilarityGraph
from repro.metablocking.backends import expand_ranges, stable_sort
from repro.utils.tokenize import TokenTable, table_for

# The most token probes one chunk of the array pass of ThresholdMatcher.match
# holds at once, so its scratch memory is bounded whatever the pair count.
PROBE_BUDGET = 1 << 16
# The most (row, token) cells of its probe table, which holds a block of the
# pairs' larger rows at a time (one row when the forms alone exceed it).
TABLE_BUDGET = 1 << 22

# A token-set measure as (numerator, denominator) of the intersection size and
# the two set sizes; a zero denominator scores 0.0, as the per-pair compare does.
_SET_SCORE_TERMS = {
    SIMILARITY_FUNCTIONS["jaccard"]: lambda common, a, b: (common, a + b - common),
    SIMILARITY_FUNCTIONS["dice"]: lambda common, a, b: (2 * common, a + b),
    SIMILARITY_FUNCTIONS["overlap"]: lambda common, a, b: (common, np.minimum(a, b)),
}


class Matcher(ABC):
    """A matcher scores candidate pairs and keeps those deemed matches."""

    @abstractmethod
    def evaluate(
        self, left: EntityProfile, right: EntityProfile, prepared: dict
    ) -> tuple[bool, float]:
        """Return ``(is a match, score in [0, 1])`` of one pair, computed once.

        ``prepared`` is the memo of the calling :meth:`match` (empty for a
        single :meth:`score` / :meth:`is_match`): a matcher that derives an
        operand from a profile's text keeps it there, so every profile is
        normalised once per call, never per pair.  It does not outlive the call.
        """

    def score(self, left: EntityProfile, right: EntityProfile) -> float:
        """Similarity score of one pair in [0, 1]."""
        return self.evaluate(left, right, {})[1]

    def is_match(self, left: EntityProfile, right: EntityProfile) -> bool:
        """Decide whether a pair is a match."""
        return self.evaluate(left, right, {})[0]

    def match(
        self,
        profiles: ProfileCollection,
        candidate_pairs: Iterable[tuple[int, int]],
    ) -> SimilarityGraph:
        """Score every candidate pair and return the graph of matches."""
        left, right, scores = [], [], []
        prepared: dict = {}
        for a, b in candidate_pairs:
            matched, score = self.evaluate(profiles[a], profiles[b], prepared)
            if matched:
                left.append(a)
                right.append(b)
                scores.append(score)
        return SimilarityGraph.from_arrays(left, right, scores)

    def __call__(
        self,
        profiles: ProfileCollection,
        candidate_pairs: Iterable[tuple[int, int]],
    ) -> SimilarityGraph:
        return self.match(profiles, candidate_pairs)


def _prepared_operand(
    similarity: Similarity, profile: EntityProfile, attribute: str | None, prepared: dict
):
    """``similarity.prepare`` of the profile's whole text (``attribute=None``)
    or of one attribute's value, computed once per ``prepared`` memo."""
    key = (similarity, attribute, profile.profile_id)
    if key not in prepared:
        text = profile.text() if attribute is None else profile.value_of(attribute)
        prepared[key] = similarity.prepare(text)
    return prepared[key]


class ThresholdMatcher(Matcher):
    """Match when a single similarity of the whole-profile text exceeds a threshold.

    Parameters
    ----------
    similarity:
        Name of the similarity function (see
        :data:`repro.matching.similarity.SIMILARITY_FUNCTIONS`).
    threshold:
        Minimum score for a pair to be a match.
    """

    def __init__(self, similarity: str = "jaccard", threshold: float = 0.5) -> None:
        if not 0.0 <= threshold <= 1.0:
            raise MatchingError("threshold must be in [0, 1]")
        self.similarity_name = similarity
        self.similarity = get_similarity_function(similarity)
        self.threshold = threshold

    def evaluate(
        self, left: EntityProfile, right: EntityProfile, prepared: dict
    ) -> tuple[bool, float]:
        score = self.similarity.compare(
            _prepared_operand(self.similarity, left, None, prepared),
            _prepared_operand(self.similarity, right, None, prepared),
        )
        return score >= self.threshold, score

    def match(
        self,
        profiles: ProfileCollection,
        candidate_pairs: Iterable[tuple[int, int]],
        table: TokenTable | None = None,
    ) -> SimilarityGraph:
        """Score every pair in one array pass when the measure is a stock
        token-set one and ``evaluate`` is this class's; else pair by pair.
        The array pass reads the pairs as id columns (a
        :class:`~repro.blocking.pairs.CandidatePairs`'s own, else the tuples
        in order) and ``table``, a token table of ``profiles`` (one is built
        when absent)."""
        terms = _SET_SCORE_TERMS.get(self.similarity)
        if terms is None or type(self).evaluate is not ThresholdMatcher.evaluate:
            return super().match(profiles, candidate_pairs)
        a, b = pair_columns(candidate_pairs)
        if not len(a):
            return SimilarityGraph()
        numerators, denominators = terms(*_set_sizes(profiles, a, b, table))
        scores = np.zeros(len(a))
        np.divide(numerators, denominators, out=scores, where=denominators > 0)
        kept = scores >= self.threshold
        return SimilarityGraph.from_arrays(a[kept], b[kept], scores[kept])


def _set_sizes(profiles: ProfileCollection, a, b, table: TokenTable | None) -> tuple:
    """``(|A ∩ B|, |A|, |B|)`` int64 arrays of the whole-text token sets of
    the pairs ``(a[i], b[i])``, from one token table of the collection."""
    table = table_for(profiles, table)
    # Profile id -> row: binary searches over the rows' ids, sorted, a column
    # at a time (each mostly ascends, which makes searchsorted ~3x faster).
    ids, by_id = stable_sort(table.profile_ids.copy())
    pair_ids = np.stack((a, b), axis=1)
    found = np.stack((ids.searchsorted(a), ids.searchsorted(b)), axis=1)
    known = found < len(ids)
    known[known] = ids[found[known]] == pair_ids[known]
    if not known.all():
        raise DataError(f"unknown profile id {pair_ids[~known][0]}")
    rows = by_id[found]
    # Each profile's distinct tokens as one sorted run of row * width + token codes.
    width = max(len(table.forms), 1)
    codes = np.sort(table.row_of[table.value_of] * width + table.token_ids)
    codes = codes[np.diff(codes, prepend=-1) != 0]  # not np.unique: it imports numpy.ma
    sizes = np.bincount(codes // width, minlength=len(ids))
    starts = np.cumsum(sizes) - sizes
    left, right = sizes[rows[:, 0]], sizes[rows[:, 1]]
    # Group the pairs by the row of their larger set, whose slot numbers
    # those rows in order; the smaller set's codes are probed into a table of
    # (slot, token) cells, slot * width + token, a block of slots at a time.
    larger, order = stable_sort(np.where(left > right, rows[:, 0], rows[:, 1]))
    smaller = (rows[:, 0] + rows[:, 1])[order] - larger
    new = np.diff(larger, prepend=-1) != 0
    slots = np.cumsum(new) - 1
    span = max(TABLE_BUDGET // width, 1)  # slots per block
    marks = np.zeros(min(span, int(slots[-1]) + 1) * width, dtype=bool)
    # The cells of every slot, in slot order, and where each slot's cells begin.
    owners = larger[new]
    cells = codes[expand_ranges(starts[owners], sizes[owners])]
    cells += np.repeat((np.arange(len(owners)) - owners) * width, sizes[owners])
    firsts = np.concatenate(([0], np.cumsum(sizes[owners])))
    # Probe number i of a pair reads code index i + base, shifted to its cell.
    lengths = sizes[smaller]
    ends = np.cumsum(lengths)
    base = starts[smaller] - (ends - lengths)
    shifts = (slots - smaller) * width
    common = np.zeros(len(rows), dtype=np.int64)
    start = 0
    while start < len(rows):
        low, first = ends[start] - lengths[start], slots[start]
        stop = min(
            int(np.searchsorted(ends, low + PROBE_BUDGET, "right")),
            int(np.searchsorted(slots, first + span)),
        )
        stop = max(stop, start + 1)
        offset = first * width
        marked = cells[firsts[first] : firsts[slots[stop - 1] + 1]] - offset
        marks[marked] = True
        pair_of = np.repeat(np.arange(stop - start), lengths[start:stop])
        probes = codes[np.arange(low, ends[stop - 1]) + base[start:stop][pair_of]]
        probes += (shifts[start:stop] - offset)[pair_of]
        common[order[start:stop]] = np.bincount(pair_of[marks[probes]], minlength=stop - start)
        marks[marked] = False
        start = stop
    return common, left, right


@dataclass
class MatchingRule:
    """One conjunct of a rule-based matcher.

    ``attribute_left`` / ``attribute_right`` select which attribute of each
    profile to compare (``None`` compares the whole profile text); the rule is
    satisfied when ``similarity(value_left, value_right) >= threshold``.
    """

    similarity: str
    threshold: float
    attribute_left: str | None = None
    attribute_right: str | None = None

    def evaluate(
        self, left: EntityProfile, right: EntityProfile, prepared: dict | None = None
    ) -> tuple[bool, float]:
        """Return (satisfied, score) for one pair (``prepared``: see :class:`Matcher`)."""
        prepared = {} if prepared is None else prepared
        function = get_similarity_function(self.similarity)
        score = function.compare(
            _prepared_operand(function, left, self.attribute_left, prepared),
            _prepared_operand(function, right, self.attribute_right, prepared),
        )
        return score >= self.threshold, score


class RuleBasedMatcher(Matcher):
    """Match when every rule of a conjunction is satisfied.

    The pair's score is the mean of the rule scores, so the similarity graph
    still carries a graded value for the clusterer.
    """

    def __init__(self, rules: Sequence[MatchingRule]) -> None:
        if not rules:
            raise MatchingError("RuleBasedMatcher needs at least one rule")
        self.rules = list(rules)

    def evaluate(
        self, left: EntityProfile, right: EntityProfile, prepared: dict
    ) -> tuple[bool, float]:
        results = [rule.evaluate(left, right, prepared) for rule in self.rules]
        scores = [score for _satisfied, score in results]
        return all(satisfied for satisfied, _score in results), sum(scores) / len(scores)
