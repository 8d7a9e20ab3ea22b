"""The ranking selects before it sorts: lazy windows ≡ the full ranking.

:func:`~repro.metablocking.backends.ranked_positions` keeps only the edges at
or above the ``k``-th largest weight (ties included) and lexsorts that
subset; the sorted progressive stream ranks growing windows of it.  Both must
equal the full ``(-weight, pair)`` order position for position
— on tables with heavy weight ties (integer CBS weights) above all, where a
window cut falls inside a run of equal weights.  Node scheduling's one
``lexsort`` must equal its definition, a node-by-node loop.  The service's
cold ``matches`` must equal a fresh batch ranking of the union collection
across growing ingest cycles.
"""

from __future__ import annotations

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.blocking.token_blocking import TokenBlocking
from repro.data.dataset import ProfileCollection
from repro.metablocking import backends, progressive
from repro.metablocking.index import CSRBlockIndex
from repro.metablocking.progressive import (
    ProgressiveNodeScheduling,
    ProgressiveSortedComparisons,
)
from repro.service.collection import CollectionConfig, ServiceCollection

from tests.test_metablocking_incremental import _random_profiles
from tests.test_service_app import _ingest_payload


@st.composite
def tied_tables(draw):
    """An edge table in arbitrary emission order, its weights mostly tied."""
    n = draw(st.integers(2, 12))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
            .filter(lambda p: p[0] < p[1]),
            unique=True,
            max_size=n * (n - 1) // 2,
        )
    )
    weights = draw(
        st.lists(
            st.one_of(st.integers(1, 3).map(float), st.floats(0.0, 4.0)),
            min_size=len(pairs),
            max_size=len(pairs),
        )
    )
    a = np.array([pair[0] for pair in pairs], dtype=np.int64)
    b = np.array([pair[1] for pair in pairs], dtype=np.int64)
    ids = np.arange(n, dtype=np.int64) * 3 + 1
    return backends.EdgeWeights(a, b, np.array(weights, dtype=np.float64), n, ids)


def _full_ranking(table):
    """Every position, ranked by ``(-weight, pair)`` on the pair tuples."""
    keys = list(zip((-table.w).tolist(), table.a.tolist(), table.b.tolist()))
    return np.array(sorted(range(len(table)), key=keys.__getitem__), dtype=np.int64)


def _budgets(chunk: int, length: int) -> list[int]:
    return sorted({0, 1, chunk - 1, chunk, chunk + 1, length, length + 1})


@settings(max_examples=300, deadline=None)
@given(table=tied_tables(), chunk=st.integers(1, 6))
def test_lazy_windows_equal_the_full_ranking(table, chunk):
    expected = _full_ranking(table)
    pairs = [(int(table.node_ids[table.a[p]]), int(table.node_ids[table.b[p]])) for p in expected]
    with mock.patch.object(progressive, "_RANK_CHUNK", chunk):
        stream = ProgressiveSortedComparisons("cbs").stream_index(None, table)
        pulled: list = []
        for budget in _budgets(chunk, len(table)):
            pulled.extend(itertools.islice(stream, budget - len(pulled)))
            assert pulled == pairs[:budget]
            assert backends.ranked_positions(table, budget).tolist() == expected[:budget].tolist()
        assert list(stream) == []


@settings(max_examples=100, deadline=None)
@given(table=tied_tables())
def test_full_k_is_the_whole_ranking(table):
    assert backends.ranked_positions(table, len(table)).tolist() == _full_ranking(table).tolist()


@pytest.mark.parametrize("weighting", ["cbs", "js"])
def test_cold_matches_equal_a_fresh_batch_ranking_across_ingests(weighting):
    profiles = _random_profiles(60, clean_clean=False, seed=43)
    collection = ServiceCollection(CollectionConfig(name="c", weighting=weighting))
    chunk = 8
    try:
        for lo, hi in ((0, 20), (20, 40), (40, 60)):
            collection.ingest(_ingest_payload(profiles[lo:hi]))
            # One window at the default chunk: a plain full sort.
            blocks = TokenBlocking().block(ProfileCollection(profiles[:hi]))
            ranking = ProgressiveSortedComparisons(weighting).rank(blocks)
            assert chunk < len(ranking) < progressive._RANK_CHUNK
            probe = profiles[lo].profile_id
            with mock.patch.object(progressive, "_RANK_CHUNK", chunk):
                for budget in _budgets(chunk, len(ranking)) + [3 * chunk, chunk]:
                    result = collection.matches(probe, budget)
                    assert result["candidates"] == [list(p) for p in ranking[:budget]]
                    assert result["matches"] == [
                        list(p) for p in ranking[:budget] if probe in p
                    ]
                    # Exhausted: the prefix returned is the whole ranking.
                    assert result["exhausted"] == (budget >= len(ranking))
    finally:
        collection.close()


@pytest.mark.parametrize("strategy", ["sorted", "node"])
def test_a_budget_of_exactly_the_ranking_length_is_exhausted_first_time(strategy):
    """``exhausted`` depends on the budget alone, not on which budgets an
    earlier query pulled: the first query at exactly the length says true,
    one short of it false — before and after."""
    profiles = _random_profiles(40, clean_clean=False, seed=47)
    blocks = TokenBlocking().block(ProfileCollection(profiles))
    length = len(ProgressiveSortedComparisons("cbs").rank(blocks))
    assert length > 1
    for budgets in ([length, length - 1, length], [length - 1, length, length - 1]):
        collection = ServiceCollection(CollectionConfig(name="c", progressive=strategy))
        try:
            collection.ingest(_ingest_payload(profiles))
            for budget in budgets:
                result = collection.matches(profiles[0].profile_id, budget)
                assert result["scheduled"] == budget
                assert result["exhausted"] == (budget == length)
        finally:
            collection.close()


def _scheduled_by_definition(table):
    """Progressive node scheduling as defined, over the table's edge dict.

    Node priority is the mean incident weight, summed left to right in
    emission order by an explicit loop (``sum()`` compensates floats from
    Python 3.12 on); nodes are visited by ``(-priority, node)``, and each
    visit emits the node's unseen edges by ``(-weight, pair)``.
    """
    incident: dict = {}
    for pair, weight in table.to_mapping().items():
        for node in pair:
            incident.setdefault(node, []).append((pair, weight))
    priority = {}
    for node, edges in incident.items():
        total = 0.0
        for _pair, weight in edges:
            total += weight
        priority[node] = total / len(edges)
    emitted: dict = {}
    for node in sorted(priority, key=lambda n: (-priority[n], n)):
        for pair, _weight in sorted(incident[node], key=lambda e: (-e[1], e[0])):
            emitted.setdefault(pair, None)
    return list(emitted)


@settings(max_examples=300, deadline=None)
@given(table=tied_tables(), chunk=st.integers(1, 6))
def test_node_schedule_equals_its_definition(table, chunk):
    with mock.patch.object(progressive, "_RANK_CHUNK", chunk):
        stream = ProgressiveNodeScheduling("cbs").stream_index(None, table)
        assert list(stream) == _scheduled_by_definition(table)


@pytest.mark.parametrize("weighting", ["cbs", "js"])
def test_node_scheduled_matches_follow_the_definition_across_ingests(weighting):
    profiles = _random_profiles(60, clean_clean=False, seed=53)
    collection = ServiceCollection(
        CollectionConfig(name="c", weighting=weighting, progressive="node")
    )
    try:
        for lo, hi in ((0, 20), (20, 40), (40, 60)):
            collection.ingest(_ingest_payload(profiles[lo:hi]))
            blocks = TokenBlocking().block(ProfileCollection(profiles[:hi]))
            index = CSRBlockIndex.from_blocks(blocks)
            table = index.kernel().weight_arrays(index.weight_plan(weighting, False))
            expected = _scheduled_by_definition(table)
            assert ProgressiveNodeScheduling(weighting).rank(blocks) == expected
            for budget in (5, len(expected), len(expected) + 3):
                result = collection.matches(profiles[lo].profile_id, budget)
                assert result["candidates"] == [list(p) for p in expected[:budget]]
                assert result["exhausted"] == (budget >= len(expected))
    finally:
        collection.close()
