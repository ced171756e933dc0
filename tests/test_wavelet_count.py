"""The wavelet-matrix dominance count behind the exact LRU engines.

:func:`repro.memsim.engines._range_count_less` answers offline range
"count values below x" queries; the engines use it to count the
distinct keys of reuse windows whose total volume is too large to
gather.  Every test asserts exact equality with a brute-force or scalar
oracle: random arrays and ranges, the level-count edges (lengths at
powers of two +/- 1), empty ranges and out-of-range thresholds, and a
trace whose base volume is past the gather budget without patching it.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.memsim import engines
from repro.memsim.engines import (
    _range_count_less,
    lru_hit_mask,
    set_stack_distances,
    stack_distances,
)
from tests.oracles import (
    scalar_capped_hits,
    scalar_set_stack_distances,
    scalar_stack_distances,
)


def brute_count_less(values, starts, ends, thresholds):
    values = np.asarray(values)
    return np.array(
        [int(np.sum(values[s:e] < x)) for s, e, x in zip(starts, ends, thresholds)],
        dtype=np.int64,
    )


@st.composite
def range_queries(draw):
    values = draw(st.lists(st.integers(-50, 300), min_size=1, max_size=80))
    n = len(values)
    q = draw(st.integers(1, 20))
    bounds = st.integers(0, n)
    starts = draw(st.lists(bounds, min_size=q, max_size=q))
    ends = draw(st.lists(bounds, min_size=q, max_size=q))
    thresholds = draw(st.lists(st.integers(-60, 400), min_size=q, max_size=q))
    return values, starts, ends, thresholds


@pytest.fixture
def obs_on():
    was = obs.enabled()
    obs.set_enabled(True)
    obs.reset()
    yield
    obs.set_enabled(was)
    obs.reset()


def wavelet_counters():
    counters = obs.registry().snapshot()["counters"]
    return (
        counters.get("engines.wavelet_calls", 0),
        counters.get("engines.wavelet_queries", 0),
    )


class TestRangeCountLess:
    @given(range_queries())
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force(self, case):
        values, starts, ends, thresholds = case
        got = _range_count_less(np.array(values), starts, ends, thresholds)
        assert np.array_equal(got, brute_count_less(values, starts, ends, thresholds))

    @pytest.mark.parametrize(
        "n", [1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 255, 256, 257]
    )
    def test_level_count_edges(self, n):
        # Lengths and value ranges at powers of two +/- 1 move the
        # number of bit levels; thresholds sweep 0 .. max + 2.
        rng = np.random.default_rng(n)
        for top in (n - 1, n, n + 1):
            values = rng.integers(0, max(top, 0) + 1, n)
            starts = rng.integers(0, n + 1, 64)
            ends = rng.integers(0, n + 1, 64)
            thresholds = rng.integers(0, top + 3, 64)
            thresholds[:3] = (0, top + 1, top + 2)
            got = _range_count_less(values, starts, ends, thresholds)
            want = brute_count_less(values, starts, ends, thresholds)
            assert np.array_equal(got, want)

    def test_single_element(self):
        got = _range_count_less(np.array([5]), [0, 0, 0, 1], [1, 1, 1, 1], [0, 5, 6, 9])
        assert got.tolist() == [0, 0, 1, 0]

    def test_empty_inputs(self):
        assert _range_count_less(np.array([3, 1]), [], [], []).size == 0
        empty = np.zeros(0, dtype=np.int64)
        assert _range_count_less(empty, [0, 0], [0, 0], [0, 10]).tolist() == [0, 0]

    def test_empty_and_inverted_ranges_count_zero(self):
        values = np.arange(10)
        got = _range_count_less(values, [4, 7, 0], [4, 2, 0], [100, 100, 100])
        assert got.tolist() == [0, 0, 0]

    def test_thresholds_at_zero_and_above_max(self):
        values = np.array([0, 3, 3, 1, 7])
        got = _range_count_less(values, [0] * 4, [5] * 4, [0, 1, 8, 10**9])
        assert got.tolist() == [0, 1, 5, 5]


class TestWaveletBranch:
    def test_over_budget_trace_matches_oracles(self, obs_on):
        # 30k accesses over 15k keys: the chain-base window volume is
        # far past the gather budget, so the wavelet branch runs as-is.
        rng = np.random.default_rng(2024)
        keys = rng.integers(0, 15_000, 30_000)
        prev = engines.prev_occurrence(keys)
        has_prev = prev >= 0
        volume = int((np.flatnonzero(has_prev) - prev[has_prev] - 1).sum())
        assert volume > 1 << 24
        assert np.array_equal(stack_distances(keys), scalar_stack_distances(keys))
        assert wavelet_counters()[0] >= 1
        assert np.array_equal(
            set_stack_distances(keys, 512), scalar_set_stack_distances(keys, 512)
        )
        everything = np.arange(keys.size)
        for cap in (64, 4096):
            assert np.array_equal(
                lru_hit_mask(keys, cap), scalar_capped_hits(keys, everything, cap)
            )

    @given(st.lists(st.integers(0, 60), max_size=300), st.sampled_from([1, 2, 8]))
    @settings(max_examples=60, deadline=None)
    def test_forced_budget_set_distances(self, keys, n_sets):
        arr = np.array(keys, dtype=np.int64)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engines, "_RESIDUAL_BUDGET", -1)
            got = set_stack_distances(arr, n_sets)
        assert np.array_equal(got, scalar_set_stack_distances(arr, n_sets))


class TestPathCounters:
    def test_forced_budget_counts_calls_and_queries(self, obs_on, monkeypatch):
        rng = np.random.default_rng(5)
        keys = rng.integers(0, 200, 3000)
        monkeypatch.setattr(engines, "_RESIDUAL_BUDGET", 1)
        stack_distances(keys)
        calls, queries = wavelet_counters()
        assert calls == 1
        assert 0 < queries <= keys.size

    def test_short_trace_stays_on_windowed_path(self, obs_on):
        rng = np.random.default_rng(5)
        keys = rng.integers(0, 200, 3000)
        stack_distances(keys)
        lru_hit_mask(keys, 16)
        assert wavelet_counters() == (0, 0)
