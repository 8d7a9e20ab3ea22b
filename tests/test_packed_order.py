"""Packed-code sorts (``backends.stable_sort`` / ``unique_inverse``) against
the numpy functions they replace: ``np.argsort(kind="stable")``,
``np.lexsort`` and ``np.unique(return_inverse=True)``, position for position.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.metablocking import backends
from repro.metablocking.backends import stable_sort, unique_inverse

_INT32 = np.iinfo(np.int32)
# Few distinct values, so ties (which only the position bits order) are common.
_TIED = st.integers(-3, 3)


def _keys(dtype, elements):
    return arrays(dtype, st.integers(0, 60), elements=elements)


def _check_stable_sort(keys):
    expected = np.argsort(keys, kind="stable")
    ordered, order = stable_sort(keys.copy())
    assert order.tolist() == expected.tolist()
    assert ordered.tolist() == keys[expected].tolist()


def _check_unique(values):
    before = values.copy()
    ids, inverse = unique_inverse(values)
    expected_ids, expected_inverse = np.unique(values, return_inverse=True)
    assert ids.tolist() == expected_ids.tolist()
    assert inverse.tolist() == expected_inverse.tolist()
    assert values.tolist() == before.tolist()  # left as they are


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    _keys(np.int64, _TIED),
    _keys(np.int32, _TIED),
    _keys(np.int32, st.integers(_INT32.min, _INT32.max)),
    _keys(np.int64, st.integers(-(2**40), 2**40)),
))
def test_stable_sort_equals_the_stable_argsort(keys):
    _check_stable_sort(keys)


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    _keys(np.int64, _TIED),
    _keys(np.int32, st.integers(-50, 50)),
    _keys(np.int64, st.integers(-(2**40), 2**40)),
))
def test_unique_inverse_equals_np_unique(values):
    _check_unique(values)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 40).flatmap(
    lambda n: st.tuples(*[arrays(np.int64, n, elements=_TIED) for _ in range(3)])
))
def test_stable_passes_last_key_first_equal_lexsort(columns):
    """Block filtering's rank: stable sorts by the minor keys first."""
    order = np.arange(len(columns[0]))
    for key in reversed(columns):
        order = order[stable_sort(key[order])[1]]
    assert order.tolist() == np.lexsort(columns[::-1]).tolist()


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 40).flatmap(
    lambda n: st.tuples(*[arrays(np.int64, n, elements=st.integers(0, 5)) for _ in range(2)])
))
def test_packed_composite_key_equals_lexsort(columns):
    """A composite ``major << bits | minor`` key sorts as the two-key lexsort."""
    major, minor = columns
    order = stable_sort((major << 3) | minor)[1]
    assert order.tolist() == np.lexsort((minor, major)).tolist()


@pytest.mark.parametrize("dtype", [np.int64, np.int32])
@pytest.mark.parametrize(
    "keys",
    [[], [7], [-7], [5] * 9, [0, -1, 0, -1, 2], [_INT32.min, _INT32.max, 0, _INT32.min]],
    ids=["empty", "one", "one-negative", "all-equal", "negative-ties", "int32-extremes"],
)
def test_edge_cases(keys, dtype):
    keys = np.array(keys, dtype=dtype)
    _check_stable_sort(keys)
    _check_unique(keys)


def test_int32_input_is_not_overwritten_and_int64_is_consumed():
    small = np.array([3, 1, 3, 0], dtype=np.int32)
    ordered, _order = stable_sort(small)
    assert small.tolist() == [3, 1, 3, 0] and ordered.dtype == np.int64
    wide = np.array([3, 1, 3, 0], dtype=np.int64)
    ordered, _order = stable_sort(wide)
    assert ordered is wide and wide.tolist() == [0, 1, 3, 3]


@pytest.fixture
def argsorts(monkeypatch):
    """Count the stable argsorts the helper falls back to."""
    calls = []
    original = np.argsort

    def spy(*args, **kwargs):
        calls.append(kwargs.get("kind"))
        return original(*args, **kwargs)

    monkeypatch.setattr(backends.np, "argsort", spy)
    return calls


@pytest.mark.parametrize("span_bits, fallback", [(60, False), (61, True), (63, True)])
def test_keys_past_63_bits_take_the_stable_argsort(span_bits, fallback, argsorts):
    """Eight keys need three position bits: a span of 2**60 still packs."""
    low = -(2 ** (span_bits - 1))
    keys = np.array([low, 5, low, 2**span_bits + low - 1, 5, 0, low, 5], dtype=np.int64)
    assert (int(keys.max()) - int(keys.min())).bit_length() == span_bits
    stable_sort(keys.copy())
    assert argsorts == (["stable"] if fallback else [])
    _check_stable_sort(keys)
    _check_unique(keys)


@settings(max_examples=50, deadline=None)
@given(arrays(np.int64, st.integers(1, 30), elements=st.sampled_from(
    [np.iinfo(np.int64).min, np.iinfo(np.int64).max, -1, 0, 1]
)))
def test_full_int64_range_keys(keys):
    _check_stable_sort(keys)
    _check_unique(keys)
