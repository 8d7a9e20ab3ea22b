"""Every meta-blocking path against the definition-level reference.

``tests/metablocking_oracle.py`` enumerates all pairs and transcribes the
weighting schemes and pruning rules from their definitions; here Hypothesis
drives it against the package's paths — ``MetaBlocker.run`` and
``stream_retained``, ``ParallelMetaBlocker`` on a serial context with a drawn
range count, ``ProgressiveSortedComparisons`` and ``DeltaMetaBlocker`` over an
``IncrementalBlockIndex`` — on dirty and clean-clean collections, both
hand-built (encoded from ``Block`` values, blocks without a comparison among
them) and token-blocked.

The contract.  Weights agree to a relative 1e-12.  Retained edges and their
order agree exactly, except for *borderline* edges: a weight within
1e-9·max(1, |t|) of a value ``t`` that decided it — a WEP / WNP threshold,
or the k-th kept weight of CEP / CNP (a tie at the cut).  Summation order
may move a float by an ulp there and nowhere else.  CBS without entropy gets
no exemption: its weights and means are exact.
"""

import math

from hypothesis import example, given, settings, strategies as st

from repro.blocking.block import Block, BlockCollection
from repro.blocking.token_blocking import TokenBlocking
from repro.data.dataset import ProfileCollection
from repro.data.profile import EntityProfile
from repro.engine.context import EngineContext
from repro.metablocking.index import IncrementalBlockIndex
from repro.metablocking.metablocker import MetaBlocker
from repro.metablocking.parallel import ParallelMetaBlocker
from repro.metablocking.progressive import ProgressiveSortedComparisons
from repro.metablocking.pruning import CardinalityEdgePruning, CardinalityNodePruning
from repro.service.delta import DeltaMetaBlocker

from tests import metablocking_oracle as oracle

WEIGHTINGS = ["cbs", "ecbs", "js", "ejs", "arcs"]
RULES = ["wep", "cep", "wnp", "rwnp", "cnp", "rcnp"]
WORDS = ["sony", "tv", "hd", "led", "x1", "40", "lg"]
ENTROPIES = [0.3, 0.5, 1.0, 2.0]
EXAMPLES = 200


def strategy_of(rule):
    return CardinalityNodePruning(reciprocal=True) if rule == "rcnp" else rule


def same_weight(x, y):
    return math.isclose(x, y, rel_tol=1e-12, abs_tol=0.0)


def borderline_to(x, t):
    return abs(x - t) <= 1e-9 * max(1.0, abs(t))


# ---------------------------------------------------------------------------
# collections
# ---------------------------------------------------------------------------
def token_blocks(rows, clean_clean):
    """Token blocking by brute force: ``rows`` are ``(id, source, words)``."""
    blocks = []
    for token in sorted({word for _id, _source, words in rows for word in words}):
        holders = [(pid, source) for pid, source, words in rows if token in words]
        source0 = {pid for pid, source in holders if not (clean_clean and source == 1)}
        source1 = {pid for pid, source in holders if clean_clean and source == 1}
        block = (source0, source1, clean_clean, 1.0)
        if oracle.cardinality(block):
            blocks.append(block)
    return blocks


def profiles_of(rows):
    profiles = []
    for pid, source, words in rows:
        profile = EntityProfile(profile_id=pid, source_id=source)
        profile.add("name", " ".join(words))
        profiles.append(profile)
    return profiles


class Case:
    """A drawn collection: hand-built blocks, or profiles to token-block."""

    def __init__(self, clean_clean, blocks=None, rows=None):
        self.clean_clean, self.blocks, self.rows = clean_clean, blocks, rows

    def build(self) -> BlockCollection:
        if self.rows is not None:
            return TokenBlocking().block(ProfileCollection(profiles_of(self.rows)))
        return BlockCollection(
            (Block(f"k{i}", set(s0), set(s1), entropy, clean) for i, (s0, s1, clean, entropy)
             in enumerate(self.blocks)),
            clean_clean=self.clean_clean,
        )

    def oracle_blocks(self):
        if self.rows is not None:
            return token_blocks(self.rows, self.clean_clean)
        return self.blocks

    def __repr__(self):
        return f"Case({self.clean_clean}, blocks={self.blocks}, rows={self.rows})"


def hand(clean_clean, *sides):
    """A hand-built case from ``(source0, source1[, entropy])`` tuples."""
    blocks = [(set(s[0]), set(s[1]), clean_clean, s[2] if len(s) > 2 else 1.0) for s in sides]
    return Case(clean_clean, blocks=blocks)


@st.composite
def cases(draw, clean_clean):
    if draw(st.booleans()):
        left = st.sets(st.integers(0, 8 if not clean_clean else 5), max_size=5)
        right = st.sets(st.integers(100, 105), max_size=4) if clean_clean else st.just(set())
        blocks = draw(st.lists(
            st.tuples(left, right, st.just(clean_clean), st.sampled_from(ENTROPIES)),
            max_size=7,
        ))
        return Case(clean_clean, blocks=blocks)
    words = st.sets(st.sampled_from(WORDS), min_size=1, max_size=4)
    texts = draw(st.lists(words, min_size=2, max_size=10))
    split = draw(st.integers(1, len(texts) - 1)) if clean_clean else len(texts)
    rows = [(pid, int(pid >= split), text) for pid, text in enumerate(texts)]
    return Case(clean_clean, rows=rows)


configs = st.tuples(
    st.sampled_from(WEIGHTINGS),
    st.sampled_from(RULES),
    st.booleans(),  # entropy
    st.integers(1, 5),  # parallel ranges
    st.integers(1, 4),  # stream chunk
)


# ---------------------------------------------------------------------------
# the contract
# ---------------------------------------------------------------------------
def expect(blocks, weighting, rule, use_entropy):
    graph = oracle.Graph(blocks)
    weights = oracle.weigh(graph, weighting, use_entropy)
    retained, cuts = oracle.prune(graph, weights, rule)
    return graph, weights, retained, cuts


def agree(got, expected, weights, cuts, exact):
    """``got`` / ``expected``: ``[(pair, weight)]`` in retention order."""
    for pair, weight in got:
        assert same_weight(weight, weights[pair]), (pair, weight, weights[pair])
    borderline = set() if exact else {
        pair for pair, deciders in cuts.items()
        if any(borderline_to(weights[pair], t) for t in deciders)
    }
    assert [p for p, _w in got if p not in borderline] == [
        p for p, _w in expected if p not in borderline
    ]


PATHS = ["run", "stream", "parallel"]


def retained_by(path, blocks, weighting, rule, use_entropy, ranges, chunk, context=None):
    """One batch path's retained ``[(pair, weight)]`` in retention order, and
    its ``(graph_nodes, graph_edges)`` (``None`` for the stream).  The
    parallel path runs on ``context`` when given, else on a serial one."""
    pruning = strategy_of(rule)
    if path == "stream":
        streamed = MetaBlocker(weighting, pruning, use_entropy=use_entropy).stream_retained(
            blocks, chunk_edges=chunk
        )
        return [edge for part in streamed for edge in part], None
    if path == "run":
        result = MetaBlocker(weighting, pruning, use_entropy=use_entropy).run(blocks)
    else:
        result = ParallelMetaBlocker(
            context or EngineContext(ranges), weighting, pruning, use_entropy=use_entropy
        ).run(blocks)
    return list(result.retained_edges.items()), (result.graph_nodes, result.graph_edges)


def check_path(case, path, config, context=None):
    weighting, rule, use_entropy, ranges, chunk = config
    graph, weights, expected, cuts = expect(case.oracle_blocks(), weighting, rule, use_entropy)
    blocks = case.build()
    got, counts = retained_by(path, blocks, weighting, rule, use_entropy, ranges, chunk, context)
    assert counts in (None, (len(graph.nodes), len(graph.shared)))
    agree(got, expected, weights, cuts, weighting == "cbs" and not use_entropy)


def check_weights(case, weighting, use_entropy):
    """Every weight, not only the retained ones, and the graph counts."""
    graph, weights, _retained, _cuts = expect(case.oracle_blocks(), weighting, "wep", use_entropy)
    blocks = case.build()
    result = MetaBlocker(
        weighting, CardinalityEdgePruning(k=10**9), use_entropy=use_entropy
    ).run(blocks)
    assert (result.graph_nodes, result.graph_edges) == (len(graph.nodes), len(graph.shared))
    everything = result.retained_edges
    assert everything.keys() == weights.keys()
    assert all(same_weight(everything[pair], weights[pair]) for pair in weights)


def check_batch_paths(case, config):
    for path in PATHS:
        check_path(case, path, config)
    weighting, _rule, use_entropy, _ranges, _chunk = config
    check_weights(case, weighting, use_entropy)


def check_progressive(case, weighting):
    _graph, weights, _retained, _cuts = expect(case.oracle_blocks(), weighting, "wep", False)
    ranking = ProgressiveSortedComparisons(weighting).rank(case.build())
    assert sorted(ranking) == sorted(weights)
    # Best first, ties by pair; a near-tie may fall either way (never for CBS).
    for first, second in zip(ranking, ranking[1:]):
        high, low = weights[first], weights[second]
        assert high > low or borderline_to(high, low)
        assert high != low or first < second


def check_delta(clean_clean, rows, cuts_at, weighting, rule):
    index = IncrementalBlockIndex(clean_clean=clean_clean)
    delta = DeltaMetaBlocker(weighting, strategy_of(rule))
    bounds = sorted({0, len(rows), *(c % (len(rows) + 1) for c in cuts_at)})
    for lo, hi in zip(bounds, bounds[1:]):
        index.append_profiles(profiles_of(rows[lo:hi]))
        compacted = index.materialise()
        plan = compacted.weight_plan(weighting, use_entropy=False)
        got = delta.refresh(compacted, compacted.kernel().weight_arrays(plan), index.compactions)
        _g, weights, expected, cuts = expect(
            token_blocks(rows[:hi], clean_clean), weighting, rule, False
        )
        agree(list(got.items()), expected, weights, cuts, weighting == "cbs")


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------
# CEP / CNP: k = 2 of four tied CBS edges (5 assignments) — the cut is a tie.
K_TIE = hand(False, ({0, 1, 2}, ()), ({3, 4}, ()))
# WEP / WNP: every weight equals every threshold.
AT_THRESHOLD = hand(False, ({0, 1}, ()), ({2, 3}, ()))
# Profile 5 sits only in a block that induces no comparison; B counts it.
ISOLATED = hand(False, ({0, 1}, ()), ({5}, ()), ({0, 1, 2}, (), 0.5))
EMPTY = hand(False)


@settings(max_examples=EXAMPLES, deadline=None)
@given(cases(False), configs)
@example(K_TIE, ("cbs", "cep", False, 2, 1))
@example(K_TIE, ("cbs", "cnp", False, 3, 2))
@example(K_TIE, ("arcs", "rcnp", True, 1, 1))
@example(AT_THRESHOLD, ("cbs", "wep", False, 2, 1))
@example(AT_THRESHOLD, ("cbs", "wnp", False, 2, 1))
@example(AT_THRESHOLD, ("js", "rwnp", False, 1, 3))
@example(ISOLATED, ("ecbs", "wnp", True, 3, 1))
@example(ISOLATED, ("ejs", "cnp", False, 2, 1))
@example(EMPTY, ("cbs", "wep", False, 1, 1))
@example(EMPTY, ("ejs", "cnp", True, 4, 2))
def test_batch_paths_dirty(case, config):
    check_batch_paths(case, config)


# Clean-clean twins: 0 and 1 on the left, 100..103 on the right.
CLEAN_K_TIE = hand(True, ({0}, {100, 101}), ({1}, {102, 103}))
CLEAN_AT_THRESHOLD = hand(True, ({0}, {100}), ({1}, {101}))
CLEAN_ISOLATED = hand(True, ({0}, {100}), ({1}, ()), ({0, 2}, {100}, 2.0))


@settings(max_examples=EXAMPLES, deadline=None)
@given(cases(True), configs)
@example(CLEAN_K_TIE, ("cbs", "cep", False, 2, 1))
@example(CLEAN_K_TIE, ("cbs", "cnp", False, 1, 2))
@example(CLEAN_AT_THRESHOLD, ("cbs", "wep", False, 2, 1))
@example(CLEAN_AT_THRESHOLD, ("cbs", "rwnp", False, 3, 1))
@example(CLEAN_ISOLATED, ("ecbs", "cep", True, 2, 1))
@example(CLEAN_ISOLATED, ("arcs", "wnp", False, 1, 1))
@example(hand(True), ("js", "wnp", False, 1, 1))
def test_batch_paths_clean_clean(case, config):
    check_batch_paths(case, config)


@settings(max_examples=EXAMPLES, deadline=None)
@given(cases(False), st.sampled_from(WEIGHTINGS))
@example(K_TIE, "cbs")
@example(EMPTY, "ejs")
def test_progressive_ranking_dirty(case, weighting):
    check_progressive(case, weighting)


@settings(max_examples=EXAMPLES, deadline=None)
@given(cases(True), st.sampled_from(WEIGHTINGS))
@example(CLEAN_K_TIE, "cbs")
@example(CLEAN_ISOLATED, "arcs")
def test_progressive_ranking_clean_clean(case, weighting):
    check_progressive(case, weighting)


@st.composite
def streams(draw, clean_clean):
    """Profiles in ingest (id) order, sources interleaved, plus batch cuts."""
    texts = draw(st.lists(st.sets(st.sampled_from(WORDS), max_size=3), max_size=10))
    sources = draw(st.lists(st.integers(0, int(clean_clean)), min_size=len(texts),
                            max_size=len(texts)))
    rows = [(pid, source, text) for pid, (source, text) in enumerate(zip(sources, texts))]
    return rows, draw(st.lists(st.integers(0, 10), max_size=3))


@settings(max_examples=EXAMPLES, deadline=None)
@given(streams(False), st.sampled_from(WEIGHTINGS), st.sampled_from(RULES))
@example(([(0, 0, {"tv", "hd"}), (1, 0, {"tv"}), (2, 0, {"tv", "hd"})], [1]), "cbs", "cep")
@example(([], []), "cbs", "wnp")
def test_delta_refresh_dirty(stream, weighting, rule):
    check_delta(False, *stream, weighting, rule)


@settings(max_examples=EXAMPLES, deadline=None)
@given(streams(True), st.sampled_from(WEIGHTINGS), st.sampled_from(RULES))
@example(([(0, 0, {"tv"}), (1, 1, {"tv"}), (2, 0, {"tv", "hd"}), (3, 1, {"hd"})], [2]),
         "cbs", "wnp")
def test_delta_refresh_clean_clean(stream, weighting, rule):
    check_delta(True, *stream, weighting, rule)
