"""Range-by-range weighing under the kernel's scratch budget.

Every weighing is a pass of range sweeps, ``⌈total sweep cost /
SWEEP_BUDGET⌉`` cost-balanced ranges of it.  The oracle grid's collections
fit in one range at the real budget, so here the budget is patched down — to
1 (every node its own range) and to a middle value (a few nodes per range) —
and every path that weighs (``MetaBlocker.run``, ``stream_retained``, the
range map, both progressive strategies and ``DeltaMetaBlocker.refresh``) is
checked against the definition-level reference, or against its own output
at the real budget where the reference has no definition.  The degree pass
EJS reads is checked against the reference's degrees and edge count.
"""

import tracemalloc

import numpy as np
import pytest

from repro.blocking.token_blocking import TokenBlocking
from repro.data.synthetic import generate_scalability_products
from repro.engine.context import EngineContext
from repro.exceptions import MetaBlockingError
from repro.metablocking import backends
from repro.metablocking.index import CSRBlockIndex
from repro.metablocking.metablocker import MetaBlocker
from repro.metablocking.parallel import ParallelMetaBlocker
from repro.metablocking.progressive import ProgressiveNodeScheduling
from tests import metablocking_oracle as oracle
from tests.test_metablocking_oracle import (
    RULES,
    WEIGHTINGS,
    check_delta,
    check_path,
    check_progressive,
    check_weights,
)
from tests.test_metablocking_oracle_grid import COLLECTIONS, STREAMS

# 1: one node per range; 8: two to thirteen ranges on the grid collections.
BUDGETS = pytest.mark.parametrize("budget", [1, 8], ids=["node", "middle"])
ENTROPY = pytest.mark.parametrize("use_entropy", [False, True], ids=["plain", "entropy"])
UNBOUNDED = 1 << 62


def ranges_of(blocks):
    index = CSRBlockIndex.from_blocks(blocks)
    return index.kernel().ranges(), index.num_nodes


def test_the_budgets_split_the_grid_as_named(monkeypatch):
    monkeypatch.setattr(backends, "SWEEP_BUDGET", 1)
    for case in COLLECTIONS.values():
        ranges, nodes = ranges_of(case.build())
        assert ranges == [(node, node + 1) for node in range(nodes)]
    monkeypatch.setattr(backends, "SWEEP_BUDGET", 8)
    counts = [ranges_of(case.build()) for case in COLLECTIONS.values()]
    assert any(1 < len(ranges) < nodes for ranges, nodes in counts)


@BUDGETS
@pytest.mark.parametrize("path", ["run", "stream"])
@pytest.mark.parametrize("rule", RULES)
@ENTROPY
@pytest.mark.parametrize("weighting", WEIGHTINGS)
@pytest.mark.parametrize("name", COLLECTIONS)
def test_batch_path(name, weighting, use_entropy, rule, path, budget, monkeypatch):
    monkeypatch.setattr(backends, "SWEEP_BUDGET", budget)
    check_path(COLLECTIONS[name], path, (weighting, rule, use_entropy, 1, 3))


@BUDGETS
@ENTROPY
@pytest.mark.parametrize("weighting", WEIGHTINGS)
@pytest.mark.parametrize("name", COLLECTIONS)
def test_every_weight(name, weighting, use_entropy, budget, monkeypatch):
    monkeypatch.setattr(backends, "SWEEP_BUDGET", budget)
    check_weights(COLLECTIONS[name], weighting, use_entropy)


@BUDGETS
@pytest.mark.parametrize("name", COLLECTIONS)
def test_degree_pass_matches_the_reference(name, budget, monkeypatch):
    monkeypatch.setattr(backends, "SWEEP_BUDGET", budget)
    case = COLLECTIONS[name]
    graph = oracle.Graph(case.oracle_blocks())
    index = CSRBlockIndex.from_blocks(case.build())
    assert dict(zip(index.node_ids, index.degree_vector().tolist())) == graph.degree
    assert index.num_edges() == len(graph.shared)


@BUDGETS
@pytest.mark.parametrize("weighting", WEIGHTINGS)
@pytest.mark.parametrize("name", COLLECTIONS)
def test_progressive_strategies(name, weighting, budget, monkeypatch):
    blocks = COLLECTIONS[name].build()
    scheduled = ProgressiveNodeScheduling(weighting).rank(blocks)
    monkeypatch.setattr(backends, "SWEEP_BUDGET", budget)
    check_progressive(COLLECTIONS[name], weighting)
    assert ProgressiveNodeScheduling(weighting).rank(blocks) == scheduled


@BUDGETS
@pytest.mark.parametrize("rule", RULES)
@pytest.mark.parametrize("weighting", WEIGHTINGS)
@pytest.mark.parametrize("name", STREAMS)
def test_delta_refresh(name, weighting, rule, budget, monkeypatch):
    monkeypatch.setattr(backends, "SWEEP_BUDGET", budget)
    clean_clean, rows, cuts_at = STREAMS[name]
    check_delta(clean_clean, rows, cuts_at, weighting, rule)


@pytest.fixture(scope="module")
def scale_blocks():
    return TokenBlocking().block(generate_scalability_products(400, seed=1).profiles)


def test_the_pool_maps_the_budgeted_ranges(scale_blocks, monkeypatch):
    expected = MetaBlocker("js", "wnp").run(scale_blocks)
    for budget, tasks in ((UNBOUNDED, 3), (1, expected.graph_nodes)):
        monkeypatch.setattr(backends, "SWEEP_BUDGET", budget)
        with EngineContext(3) as context:
            result = ParallelMetaBlocker(context, "js", "wnp").run(scale_blocks)
            assert [row["tasks"] for row in context.scheduler.stage_table()] == [tasks]
        assert list(result.retained_edges.items()) == list(expected.retained_edges.items())


def test_no_sweep_outgrows_the_budget_by_more_than_one_node(scale_blocks, monkeypatch):
    index = CSRBlockIndex.from_blocks(scale_blocks)
    kernel = index.kernel()
    costs = kernel.sweep_costs()
    plan = index.weight_plan("ejs", True)
    expected = kernel.weight_arrays(plan)
    budget = sum(costs) // 10
    monkeypatch.setattr(backends, "SWEEP_BUDGET", budget)
    swept = []
    original = backends.NumpyKernel._sweep

    def recording(self, nodes, **kwargs):
        swept.append(nodes)
        return original(self, nodes, **kwargs)

    monkeypatch.setattr(backends.NumpyKernel, "_sweep", recording)
    table = kernel.weight_arrays(plan)
    assert [(nodes.start, nodes.stop) for nodes in swept] == kernel.ranges()
    assert swept[0].start == 0 and swept[-1].stop == index.num_nodes
    assert all(before.stop == after.start for before, after in zip(swept, swept[1:]))
    assert all(sum(costs[node] for node in nodes) <= budget + max(costs) for nodes in swept)
    assert 10 <= len(swept) <= 11
    for column in ("a", "b", "w"):
        assert getattr(table, column).tobytes() == getattr(expected, column).tobytes()


def test_weighing_scratch_is_bounded_by_the_budget(scale_blocks, monkeypatch):
    index = CSRBlockIndex.from_blocks(scale_blocks)
    kernel = index.kernel()
    total = sum(kernel.sweep_costs())
    plan = index.weight_plan("cbs", False)
    peaks = {}
    for budget in (UNBOUNDED, total // 16):
        monkeypatch.setattr(backends, "SWEEP_BUDGET", budget)
        tracemalloc.start()
        try:
            kernel.weight_arrays(plan)
            peaks[budget] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert total >= 8 * (total // 16)
    assert peaks[total // 16] <= 0.5 * peaks[UNBOUNDED], peaks


def test_stream_retained_rejects_chunk_edges_before_building_an_index(
    scale_blocks, monkeypatch
):
    def forbidden(*args, **kwargs):
        raise AssertionError("stream_retained built an index for a refused chunk size")

    monkeypatch.setattr(CSRBlockIndex, "from_blocks", forbidden)
    for chunk_edges in (0, -1):
        with pytest.raises(MetaBlockingError, match="chunk_edges must be positive"):
            next(MetaBlocker("cbs", "wnp").stream_retained(scale_blocks, chunk_edges))


def test_an_empty_graph_weighs_to_an_empty_table(monkeypatch):
    monkeypatch.setattr(backends, "SWEEP_BUDGET", 1)
    index = CSRBlockIndex.from_blocks(COLLECTIONS["empty"].build())
    table = index.kernel().weight_arrays(index.weight_plan("ejs", True))
    assert len(table) == 0 and table.w.dtype == np.float64
    assert index.num_edges() == 0
