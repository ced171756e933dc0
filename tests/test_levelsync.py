"""The level-synchronous dgemm executor against the depth-first recursion.

``dgemm`` runs standard (``mode="accumulate"``), Strassen and Winograd on
the level-synchronous executor whenever no runtime is given and the
kernel is BLAS; passing ``rt=SerialRuntime()`` forces the depth-first
recursion with the same serial semantics.  The two must agree bit for
bit, counters included, and the path choice must show in the obs
counters.
"""

import tracemalloc

import numpy as np
import pytest

from repro import obs
from repro.algorithms import levelsync
from repro.algorithms.dgemm import dgemm
from repro.layouts.registry import PAPER_LAYOUTS
from repro.matrix.partition import plan_partition
from repro.matrix.tile import TileRange
from repro.runtime.cilk import SerialRuntime

LEVEL_SYNC = ("standard", "strassen", "winograd")
TR = TileRange(8, 16)

#: name -> (m, k, n, dtype, op_a, op_b, dgemm keywords)
SHAPES = {
    "square": (64, 64, 64, np.float64, "N", "N", {}),
    "padded": (50, 45, 61, np.float64, "N", "N", {}),
    "partitioned": (24, 150, 20, np.float64, "N", "N", {}),
    "transposed": (40, 48, 36, np.float64, "T", "T", {}),
    "float32": (48, 48, 48, np.float32, "N", "N", {}),
    "complex128": (40, 40, 40, np.complex128, "N", "T", {}),
    "unit_tile": (1, 37, 29, np.float64, "N", "N", {}),
    "forced_tile": (64, 64, 64, np.float64, "N", "N", {"tile": 4}),
}


def _operands(m, k, n, dtype, op_a, op_b, seed=0):
    rng = np.random.default_rng(seed)

    def draw(shape):
        x = rng.standard_normal(shape)
        if np.issubdtype(dtype, np.complexfloating):
            x = x + 1j * rng.standard_normal(shape)
        return x.astype(dtype)

    a = draw((m, k) if op_a == "N" else (k, m))
    b = draw((k, n) if op_b == "N" else (n, k))
    return a, b


def _both(a, b, **kwargs):
    fast = dgemm(a, b, **kwargs)
    oracle = dgemm(a, b, rt=SerialRuntime(), **kwargs)
    return fast, oracle


@pytest.fixture
def obs_on():
    was = obs.enabled()
    obs.set_enabled(True)
    obs.reset()
    yield
    obs.set_enabled(was)
    obs.reset()


def _counters():
    return obs.registry().snapshot()["counters"]


class TestMatchesDepthFirst:
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    @pytest.mark.parametrize("layout", PAPER_LAYOUTS)
    @pytest.mark.parametrize("algorithm", LEVEL_SYNC)
    def test_bit_identical_with_identical_counters(self, algorithm, layout, shape):
        m, k, n, dtype, op_a, op_b, extra = SHAPES[shape]
        a, b = _operands(m, k, n, dtype, op_a, op_b)
        fast, oracle = _both(a, b, op_a=op_a, op_b=op_b, algorithm=algorithm,
                             layout=layout, trange=TR, **extra)
        assert fast.c.dtype == oracle.c.dtype
        assert np.array_equal(fast.c, oracle.c)
        assert fast.counters == oracle.counters
        assert fast.counters.leaf_multiplies > 0

    @pytest.mark.parametrize("algorithm,layout", [
        ("standard", "LG"), ("strassen", "LH"), ("winograd", "LU"),
    ])
    def test_deep_forced_recursion(self, algorithm, layout):
        a, b = _operands(128, 128, 128, np.float64, "N", "N", seed=1)
        fast, oracle = _both(a, b, algorithm=algorithm, layout=layout, tile=4)
        assert fast.tiling.d == 5
        assert np.array_equal(fast.c, oracle.c)
        assert fast.counters == oracle.counters

    def test_partitioned_shape_accumulates_k_blocks(self):
        m, k, n = SHAPES["partitioned"][:3]
        plan = plan_partition(m, k, n, TR)
        assert plan.p_k > 1 and plan.p_m == plan.p_n == 1

    @pytest.mark.parametrize("algorithm", LEVEL_SYNC)
    def test_alpha_beta_applied_after(self, algorithm):
        a, b = _operands(30, 34, 28, np.float64, "N", "N", seed=2)
        c = np.random.default_rng(3).standard_normal((30, 28))
        fast, oracle = _both(a, b, c=c, alpha=-0.5, beta=2.0,
                             algorithm=algorithm, trange=TR)
        assert np.array_equal(fast.c, oracle.c)
        np.testing.assert_allclose(fast.c, -0.5 * a @ b + 2.0 * c, atol=1e-10)

    @pytest.mark.parametrize("algorithm", ("strassen", "winograd"))
    def test_memory_cap_still_exact_when_levels_group(self, algorithm, monkeypatch):
        """With no budget every level runs group by group, depth-first."""
        monkeypatch.setattr(levelsync, "STACK_BUDGET_BYTES", 0)
        a, b = _operands(64, 64, 64, np.float64, "N", "N", seed=4)
        for layout in ("LZ", "LH", "LC"):
            fast, oracle = _both(a, b, algorithm=algorithm, layout=layout, trange=TR)
            assert np.array_equal(fast.c, oracle.c)
            assert fast.counters == oracle.counters


class TestPathChoice:
    @pytest.mark.parametrize("algorithm", LEVEL_SYNC)
    def test_level_sync_path_counts(self, algorithm, obs_on):
        a, b = _operands(32, 32, 32, np.float64, "N", "N")
        dgemm(a, b, algorithm=algorithm)
        counters = _counters()
        assert counters["dgemm.path.level_sync"] == 1
        assert "dgemm.path.recursive" not in counters

    @pytest.mark.parametrize("kwargs", [
        {"rt": SerialRuntime()},
        {"kernel": "sixloop"},
        {"algorithm": "hybrid"},
        {"algorithm": "strassen_space"},
        {"algorithm": "standard", "mode": "temps"},
    ], ids=["runtime", "kernel", "hybrid", "strassen_space", "temps"])
    def test_recursive_path_counts(self, kwargs, obs_on):
        a, b = _operands(32, 32, 32, np.float64, "N", "N")
        res = dgemm(a, b, tile=8, **kwargs)
        np.testing.assert_allclose(res.c, a @ b, atol=1e-10)
        counters = _counters()
        assert counters["dgemm.path.recursive"] == 1
        assert "dgemm.path.level_sync" not in counters

    def test_unit_wide_canonical_tiles_stay_depth_first(self, obs_on):
        # numpy takes vector BLAS paths on 1-wide tiles, whose results
        # depend on the strides the executor's stacks would change.
        assert not levelsync.supports("strassen", "accumulate", "LC", (1, 16, 16))
        assert levelsync.supports("strassen", "accumulate", "LZ", (1, 16, 16))
        a, b = _operands(1, 40, 30, np.float64, "N", "N")
        dgemm(a, b, algorithm="strassen", layout="LC", trange=TR)
        assert _counters()["dgemm.path.recursive"] == 1

    def test_grouped_levels_count_under_the_cap(self, obs_on):
        a, b = _operands(64, 64, 64, np.float64, "N", "N")
        dgemm(a, b, algorithm="strassen", tile=8)
        assert _counters()["dgemm.level_sync.grouped_levels"] == 0
        a, b = _operands(512, 512, 512, np.float64, "N", "N")
        dgemm(a, b, algorithm="strassen")
        assert _counters()["dgemm.level_sync.grouped_levels"] > 0

    def test_disabled_obs_records_nothing(self):
        was = obs.enabled()
        obs.set_enabled(False)
        obs.reset()
        try:
            a, b = _operands(32, 32, 32, np.float64, "N", "N")
            dgemm(a, b, algorithm="strassen")
            dgemm(a, b, algorithm="strassen", rt=SerialRuntime())
            assert _counters() == {}
        finally:
            obs.set_enabled(was)
            obs.reset()


def _peak_bytes(**kwargs):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        dgemm(**kwargs)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("layout", ("LZ", "LH"))
@pytest.mark.parametrize("algorithm", ("strassen", "winograd"))
def test_memory_peak_close_to_depth_first(algorithm, layout):
    a, b = _operands(512, 512, 512, np.float64, "N", "N")
    kwargs = dict(a=a, b=b, algorithm=algorithm, layout=layout)
    # Warm the layouts' cached permutations for both paths first.
    dgemm(**kwargs)
    dgemm(rt=SerialRuntime(), **kwargs)
    level_sync = _peak_bytes(**kwargs)
    depth_first = _peak_bytes(rt=SerialRuntime(), **kwargs)
    assert level_sync <= 1.25 * depth_first, (level_sync, depth_first)
