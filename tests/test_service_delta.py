"""Delta meta-blocker: incremental refresh ≡ batch meta-blocking.

After every append + refresh the :class:`~repro.service.delta.
DeltaMetaBlocker`'s retained edges must equal (dict-identical, floats
included) what a fresh :class:`~repro.metablocking.metablocker.MetaBlocker`
computes on the union collection.  Local-capable configurations (CBS/JS/ARCS
× WNP/RWNP/CNP) must reach that answer through the neighbourhood-local path;
global schemes (ECBS/EJS) and edge-centric prunings must fall back to a full
recompute — equally correct, just not localised.
"""

from __future__ import annotations

import pytest

from repro.blocking.token_blocking import TokenBlocking
from repro.data.dataset import ProfileCollection
from repro.metablocking.backends import numpy_available
from repro.metablocking.index import IncrementalBlockIndex
from repro.metablocking.metablocker import MetaBlocker
from repro.options import EngineOptions
from repro.service.delta import DeltaMetaBlocker

from tests.test_metablocking_incremental import _random_profiles

opts = EngineOptions.resolve

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="numpy backend requires numpy"
)

KERNELS = ["python", pytest.param("numpy", marks=needs_numpy)]
LOCAL_GRID = [
    (weighting, pruning)
    for weighting in ("cbs", "js", "arcs")
    for pruning in ("wnp", "rwnp", "cnp")
]
GLOBAL_GRID = [("ecbs", "wnp"), ("ejs", "cnp"), ("cbs", "wep"), ("js", "cep")]


def _batch_retained(profiles, weighting, pruning, *, clean_clean, kernel):
    blocks = TokenBlocking().block(ProfileCollection(profiles))
    assert blocks.clean_clean == clean_clean
    return MetaBlocker(weighting, pruning, options=opts(kernel_backend=kernel)).run(
        blocks
    ).retained_edges


def _run_append_sequence(weighting, pruning, *, clean_clean, kernel, seed=19):
    """Three appends with a refresh after each.

    Yields ``(delta, retained_snapshot, expected)`` per refresh — the
    snapshot is copied because the same :class:`DeltaMetaBlocker` instance
    keeps mutating across steps.
    """
    profiles = _random_profiles(75, clean_clean=clean_clean, seed=seed)
    batches = [profiles[:30], profiles[30:55], profiles[55:]]
    incremental = IncrementalBlockIndex(
        clean_clean=clean_clean, options=opts(kernel_backend=kernel)
    )
    delta = DeltaMetaBlocker(weighting, pruning)
    try:
        ingested = []
        pending: set[int] = set()
        for position, batch in enumerate(batches):
            append = incremental.append_profiles(batch)
            pending.update(append.touched_profile_ids)
            ingested.extend(batch)
            index = incremental.materialise()
            touched = None if position == 0 else frozenset(pending)
            delta.refresh(index, touched)
            pending.clear()
            expected = _batch_retained(
                ingested, weighting, pruning, clean_clean=clean_clean, kernel=kernel
            )
            yield delta, dict(delta.retained), expected
    finally:
        incremental.close()


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("weighting,pruning", LOCAL_GRID)
@pytest.mark.parametrize("clean_clean", [False, True])
def test_local_refresh_matches_batch(weighting, pruning, clean_clean, kernel):
    runs = list(
        _run_append_sequence(weighting, pruning, clean_clean=clean_clean, kernel=kernel)
    )
    for _delta, retained, expected in runs:
        assert retained == expected
    final = runs[-1][0]
    assert final.local_capable
    # The first refresh primes fully; later refreshes must have localised
    # (unless CNP's default k moved, which these sizes keep stable).
    assert final.full_refreshes >= 1
    assert final.local_refreshes >= 1
    if pruning != "cnp":
        assert final.last_mode == "local"
    else:
        # CNP falls back to a full recompute whenever an append moves the
        # resolved default k — correct either way, so only require that the
        # local path ran at least once in the sequence.
        assert final.last_mode in ("local", "full")


@pytest.mark.parametrize("weighting,pruning", GLOBAL_GRID)
def test_global_configurations_fall_back_to_full_recompute(weighting, pruning):
    runs = list(
        _run_append_sequence(weighting, pruning, clean_clean=False, kernel="python")
    )
    for _delta, retained, expected in runs:
        assert retained == expected
    final = runs[-1][0]
    assert not final.local_capable
    assert final.local_refreshes == 0
    assert final.full_refreshes == final.refreshes


def test_refresh_with_none_forces_full_recompute():
    profiles = _random_profiles(40, clean_clean=False, seed=5)
    incremental = IncrementalBlockIndex()
    incremental.append_profiles(profiles)
    index = incremental.materialise()
    delta = DeltaMetaBlocker("cbs", "wnp")
    delta.refresh(index, frozenset(range(40)))  # first call primes fully
    delta.refresh(index, None)
    assert delta.full_refreshes == 2
    assert delta.retained == _batch_retained(
        profiles, "cbs", "wnp", clean_clean=False, kernel="python"
    )
    incremental.close()


def test_empty_touched_set_is_a_no_op_after_priming():
    profiles = _random_profiles(40, clean_clean=False, seed=5)
    incremental = IncrementalBlockIndex()
    incremental.append_profiles(profiles)
    index = incremental.materialise()
    delta = DeltaMetaBlocker("cbs", "wnp")
    delta.refresh(index, None)
    before = dict(delta.retained)
    delta.refresh(index, frozenset())
    assert delta.last_mode == "local"
    assert delta.last_affected == 0
    assert delta.retained == before
    incremental.close()


def test_candidates_of_orders_best_first():
    profiles = _random_profiles(50, clean_clean=False, seed=9)
    incremental = IncrementalBlockIndex()
    incremental.append_profiles(profiles)
    delta = DeltaMetaBlocker("js", "wnp")
    delta.refresh(incremental.materialise(), None)
    some_profile = next(pid for pair in delta.retained for pid in pair)
    incident = delta.candidates_of(some_profile)
    assert incident
    weights = [weight for _pair, weight in incident]
    assert weights == sorted(weights, reverse=True)
    for pair, weight in incident:
        assert some_profile in pair
        assert delta.retained[pair] == weight
    incremental.close()


def test_stats_exposes_refresh_counters():
    delta = DeltaMetaBlocker("cbs", "wnp")
    stats = delta.stats()
    assert stats["local_capable"] is True
    assert stats["refreshes"] == 0
    assert stats["retained_edges"] == 0
    assert stats["weighting"] == "cbs"
    assert stats["pruning"] == "WeightedNodePruning"
