"""Wide/lean matrix partitioning (Figure 3)."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.matrix.partition import BlockProduct, plan_partition
from repro.matrix.tile import InfeasibleTiling, TileRange
from tests.oracles import exhaustive_plan_partition

TILE_RANGES = [TileRange(), TileRange(8, 16), TileRange(17, 32), TileRange(1, 1),
               TileRange(4, 8), TileRange(5, 7), TileRange(1, 64)]


class TestPlanPartition:
    def test_squat_is_trivial(self):
        p = plan_partition(100, 100, 100, TileRange(16, 32))
        assert p.is_trivial
        assert p.n_products == 1

    def test_paper_wide_example(self):
        # The 1024 x 256 case from Section 4 must split along m.
        p = plan_partition(1024, 256, 256, TileRange(17, 32))
        assert p.p_m > 1
        assert p.p_k == 1 and p.p_n == 1

    def test_lean_b(self):
        p = plan_partition(64, 64, 1024, TileRange(17, 32))
        assert p.p_n > 1

    def test_inner_split_accumulates(self):
        p = plan_partition(64, 1024, 64, TileRange(17, 32))
        assert p.p_k > 1
        prods = p.block_products()
        # Exactly one non-accumulating product per output block.
        by_out = {}
        for bp in prods:
            key = (bp.row_range, bp.col_range)
            by_out.setdefault(key, []).append(bp)
        for group in by_out.values():
            assert sum(1 for bp in group if not bp.accumulate) == 1
            assert not group[0].accumulate

    def test_blocks_cover_exactly(self):
        p = plan_partition(300, 40, 35, TileRange(8, 16))
        prods = p.block_products()
        cover = np.zeros((300, 35), dtype=int)
        k_cover = np.zeros(40, dtype=int)
        for bp in prods:
            cover[bp.row_range[0] : bp.row_range[1], bp.col_range[0] : bp.col_range[1]] += 1
        expected = p.p_k
        assert (cover == expected).all()

    def test_blocks_are_squat_feasible(self):
        tr = TileRange(8, 16)
        p = plan_partition(500, 30, 30, tr)
        from repro.matrix.tile import select_matmul_tiling

        for bp in p.block_products():
            m, k, n = bp.shape
            select_matmul_tiling(m, k, n, tr)  # must not raise

    def test_powers_of_two_block_counts(self):
        p = plan_partition(1024, 64, 64, TileRange(16, 32))
        for v in (p.p_m, p.p_k, p.p_n):
            assert v & (v - 1) == 0

    def test_extreme_aspect(self):
        p = plan_partition(2048, 16, 16, TileRange(8, 16))
        assert p.p_m >= 64


class TestPlanMatchesExhaustiveSearch:
    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(1, 1100), st.integers(1, 1100), st.integers(1, 1100),
        st.sampled_from(TILE_RANGES),
    )
    def test_equal_plans(self, m, k, n, tr):
        assert plan_partition(m, k, n, tr) == exhaustive_plan_partition(m, k, n, tr)

    @pytest.mark.parametrize("dims", [(1, 1, 1), (1, 1100, 1), (1100, 1, 1100),
                                      (1024, 256, 256), (2048, 16, 16)])
    @pytest.mark.parametrize("tr", TILE_RANGES, ids=str)
    def test_equal_plans_at_the_edges(self, dims, tr):
        assert plan_partition(*dims, tr) == exhaustive_plan_partition(*dims, tr)

    def test_beyond_int64_safe_dims(self):
        tr = TileRange()
        dims = (200_000, 3, 150_000)
        assert plan_partition(*dims, tr) == exhaustive_plan_partition(*dims, tr)

    def test_memoized_frozen_result(self):
        p = plan_partition(300, 200, 100)
        assert plan_partition(300, 200, 100, TileRange()) is p
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.p_m = 2  # type: ignore[misc]

    def test_empty_dims_are_infeasible(self):
        with pytest.raises(InfeasibleTiling):
            plan_partition(0, 10, 10)


class TestBlockProduct:
    def test_shape(self):
        bp = BlockProduct((0, 10), (5, 25), (2, 9), accumulate=False)
        assert bp.shape == (10, 20, 7)
