"""Every cell of the meta-blocking grid against the definition-level reference.

The Hypothesis drivers in ``test_metablocking_oracle`` draw a scheme, a rule
and a collection per example, so one run need not meet every combination.
This grid pins all of them on every run: weighting scheme × entropy × pruning
rule × batch path (``MetaBlocker.run``, ``stream_retained``,
``ParallelMetaBlocker`` at 1, 4 and 64 ranges and on a ``process:2``
context, whose map runs in the driver like every other), plus the full weight table,
the progressive ranking and the incremental ``DeltaMetaBlocker``, on a fixed
set of collections — the tie, threshold, isolated and empty cases and seeded
random ones, dirty and clean-clean, hand-built (encoded from ``Block``
values) and token-blocked.  Same contract as the Hypothesis drivers.
"""

import random

import pytest

from repro.engine.context import EngineContext
from repro.metablocking.parallel import ParallelMetaBlocker
from tests.test_metablocking_oracle import (
    AT_THRESHOLD,
    CLEAN_AT_THRESHOLD,
    CLEAN_ISOLATED,
    CLEAN_K_TIE,
    EMPTY,
    ISOLATED,
    K_TIE,
    RULES,
    WEIGHTINGS,
    Case,
    check_delta,
    check_path,
    check_progressive,
    check_weights,
)

VOCABULARY = ["sony", "tv", "hd", "led", "x1", "40", "lg", "4k", "oled", "smart"]


def random_blocks(seed, clean_clean):
    """Hand-built blocks: overlapping, skewed, some inducing no comparison."""
    rng = random.Random(seed)
    blocks = []
    for _ in range(12):
        left = {rng.randrange(14) for _ in range(rng.randint(0, 5))}
        right = {100 + rng.randrange(10) for _ in range(rng.randint(0, 4))}
        blocks.append((left, right if clean_clean else set(), clean_clean, rng.choice([0.3, 0.5, 1.0, 2.0, 1.7])))
    return Case(clean_clean, blocks=blocks)


def random_rows(seed, clean_clean, count=14):
    """``(id, source, words)`` rows; clean-clean puts the second half on source 1."""
    rng = random.Random(seed)
    return [
        (pid, int(clean_clean and pid >= count // 2),
         set(rng.sample(VOCABULARY, rng.randint(1, 4))))
        for pid in range(count)
    ]


COLLECTIONS = {
    "k-tie": K_TIE,
    "at-threshold": AT_THRESHOLD,
    "isolated": ISOLATED,
    "empty": EMPTY,
    "clean-k-tie": CLEAN_K_TIE,
    "clean-at-threshold": CLEAN_AT_THRESHOLD,
    "clean-isolated": CLEAN_ISOLATED,
    "dirty-blocks": random_blocks(11, False),
    "clean-blocks": random_blocks(12, True),
    "dirty-tokens": Case(False, rows=random_rows(13, False)),
    "clean-tokens": Case(True, rows=random_rows(14, True)),
}
ENTROPY = pytest.mark.parametrize("use_entropy", [False, True], ids=["plain", "entropy"])
# Four ranges: more than some collections have nodes, fewer than others.
RANGES, CHUNK = 4, 3
# The range-width axis of the range map: one range (the whole sweep
# as one task), four, and 64 (every collection here gets one node per range).
RANGE_WIDTHS = [1, RANGES, 64]


@pytest.mark.parametrize("path", ["run", "stream"])
@pytest.mark.parametrize("rule", RULES)
@ENTROPY
@pytest.mark.parametrize("weighting", WEIGHTINGS)
@pytest.mark.parametrize("name", COLLECTIONS)
def test_batch_path(name, weighting, use_entropy, rule, path):
    check_path(COLLECTIONS[name], path, (weighting, rule, use_entropy, RANGES, CHUNK))


@pytest.mark.parametrize("ranges", RANGE_WIDTHS)
@pytest.mark.parametrize("rule", RULES)
@ENTROPY
@pytest.mark.parametrize("weighting", WEIGHTINGS)
@pytest.mark.parametrize("name", COLLECTIONS)
def test_parallel_at_every_range_width(name, weighting, use_entropy, rule, ranges):
    check_path(COLLECTIONS[name], "parallel", (weighting, rule, use_entropy, ranges, CHUNK))


@pytest.mark.parametrize("name", COLLECTIONS)
def test_the_widest_axis_gives_every_node_its_own_range(name):
    with EngineContext(max(RANGE_WIDTHS)) as context:
        result = ParallelMetaBlocker(context, "cbs", "wnp").run(COLLECTIONS[name].build())
        tasks = [row["tasks"] for row in context.scheduler.stage_table()]
    assert tasks == ([result.graph_nodes] if result.graph_nodes else [])


@pytest.fixture(scope="module")
def process_context():
    with EngineContext(RANGES, executor="process:2") as context:
        yield context


@pytest.mark.parametrize("rule", RULES)
@ENTROPY
@pytest.mark.parametrize("weighting", WEIGHTINGS)
@pytest.mark.parametrize("name", COLLECTIONS)
def test_parallel_on_a_process_pool(name, weighting, use_entropy, rule, process_context):
    """An executor spec that names processes changes nothing: the ``process:2``
    context's map runs in the driver and agrees with the reference."""
    check_path(
        COLLECTIONS[name], "parallel", (weighting, rule, use_entropy, RANGES, CHUNK),
        process_context,
    )


@ENTROPY
@pytest.mark.parametrize("weighting", WEIGHTINGS)
@pytest.mark.parametrize("name", COLLECTIONS)
def test_every_weight(name, weighting, use_entropy):
    check_weights(COLLECTIONS[name], weighting, use_entropy)


@pytest.mark.parametrize("weighting", WEIGHTINGS)
@pytest.mark.parametrize("name", COLLECTIONS)
def test_progressive_ranking(name, weighting):
    check_progressive(COLLECTIONS[name], weighting)


def interleaved(rows):
    return [(pid, pid % 2, words) for pid, _source, words in rows]


# (clean_clean, rows in ingest order, batch cuts)
STREAMS = {
    "dirty": (False, random_rows(21, False, count=10), [3, 7]),
    "clean": (True, interleaved(random_rows(22, False, count=10)), [4]),
    "dirty-one-batch": (False, random_rows(23, False, count=8), []),
    "clean-singletons": (True, interleaved(random_rows(24, False, count=6)), [1, 2, 3, 4, 5]),
}


@pytest.mark.parametrize("rule", RULES)
@pytest.mark.parametrize("weighting", WEIGHTINGS)
@pytest.mark.parametrize("name", STREAMS)
def test_delta_refresh(name, weighting, rule):
    clean_clean, rows, cuts_at = STREAMS[name]
    check_delta(clean_clean, rows, cuts_at, weighting, rule)
