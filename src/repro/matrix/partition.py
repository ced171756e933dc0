"""Wide/lean matrix handling (Figure 3 of the paper).

Tile sizes confined to ``[T_min, T_max]`` make directly-tileable matrices
*squat* (aspect ratio within ``alpha = T_max/T_min`` of square).  A wide
or lean matrix — or a product whose three dimensions are too dissimilar —
is first cut into squat blocks; the product is reconstructed from block
products ``C[i,j] = sum_l A[i,l] . B[l,j]``, all of which the paper
spawns in parallel.

:func:`plan_partition` chooses the block counts ``(p_m, p_k, p_n)``
(powers of two making every block jointly tileable, least padded flop
volume first) and returns a :class:`PartitionPlan` whose ``block_products``
enumerates the sub-multiplications.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools

import numpy as np

from repro.bits.util import ceil_div
from repro.matrix.tile import InfeasibleTiling, MatmulTiling, TileRange

__all__ = ["BlockProduct", "PartitionPlan", "plan_partition"]


def _split_points(dim: int, parts: int) -> list[tuple[int, int]]:
    """(start, stop) ranges cutting ``dim`` into ``parts`` near-equal blocks."""
    base = ceil_div(dim, parts)
    out = []
    start = 0
    while start < dim:
        stop = min(dim, start + base)
        out.append((start, stop))
        start = stop
    return out


@dataclasses.dataclass(frozen=True)
class BlockProduct:
    """One squat sub-multiplication ``C[rm, rn] += A[rm, rk] . B[rk, rn]``."""

    row_range: tuple[int, int]  # rows of C / A
    inner_range: tuple[int, int]  # cols of A / rows of B
    col_range: tuple[int, int]  # cols of C / B
    accumulate: bool  # True when a previous product wrote this C block

    @property
    def shape(self) -> tuple[int, int, int]:
        """(m, k, n) of this block product."""
        return (
            self.row_range[1] - self.row_range[0],
            self.inner_range[1] - self.inner_range[0],
            self.col_range[1] - self.col_range[0],
        )


@dataclasses.dataclass(frozen=True)
class PartitionPlan:
    """Decomposition of a product into squat block products."""

    m: int
    k: int
    n: int
    p_m: int
    p_k: int
    p_n: int
    tiling: MatmulTiling  # joint tiling used by every block product

    @property
    def is_trivial(self) -> bool:
        """True when no splitting was needed (already squat)."""
        return self.p_m == self.p_k == self.p_n == 1

    @property
    def n_products(self) -> int:
        """Total sub-multiplications."""
        return self.p_m * self.p_k * self.p_n

    def block_products(self) -> list[BlockProduct]:
        """All block products; those with the same (row, col) accumulate."""
        rows = _split_points(self.m, self.p_m)
        inners = _split_points(self.k, self.p_k)
        cols = _split_points(self.n, self.p_n)
        out = []
        for rm, rn in itertools.product(rows, cols):
            for idx, rk in enumerate(inners):
                out.append(BlockProduct(rm, rk, rn, accumulate=idx > 0))
        return out


#: Block counts per axis are the powers of two ``2^0 .. 2^(SPLIT_EXPONENTS-1)``.
SPLIT_EXPONENTS = 12
#: Below this largest dimension every padded volume fits int64 (a padded
#: block dimension stays below ``2 * max_dim + 1``); larger problems plan
#: in Python integers.
_INT64_SAFE_DIM = 1 << 17


def plan_partition(
    m: int, k: int, n: int, trange: TileRange | None = None
) -> PartitionPlan:
    """Choose block counts making every block jointly tileable.

    Among all power-of-two block counts per axis, the winner has the
    least padded flop volume; ties go to the fewest blocks, then to the
    lexicographically smallest ``(p_m, p_k, p_n)``.  Each block uses the
    joint tiling :func:`~repro.matrix.tile.select_matmul_tiling` would
    pick (least padded area, then smallest ``d``).  Raises
    :class:`~repro.matrix.tile.InfeasibleTiling` only if even unit
    blocks fail, which cannot happen for dims >= 1.  Plans are memoized.
    """
    trange = trange or TileRange()
    return _plan(m, k, n, trange.t_min, trange.t_max)


@functools.lru_cache(maxsize=1024)
def _plan(m: int, k: int, n: int, t_min: int, t_max: int) -> PartitionPlan:
    """One array pass over every (block counts, tile-grid order) pair.

    Axis 0-2 of the grids index the split exponents of m, k and n; the
    last axis indexes the tile-grid order ``d`` of the block tiling.
    """
    dims = (m, k, n)
    dtype = np.int64 if max(dims) < _INT64_SAFE_DIM else object
    splits = np.array([1 << e for e in range(SPLIT_EXPONENTS)], dtype=dtype)
    size = np.array(dims, dtype=dtype)[:, None]
    blocks = -(-size // splits)  # (3, E): block dims per axis and split
    # Orders select_matmul_tiling tries: 2^d <= max_dim // t_min + 1.
    d_cap = max(1, max(dims) // t_min) + 1
    sides = np.array([1 << d for d in range(d_cap.bit_length())], dtype=dtype)
    tiles = -(-blocks[..., None] // sides)  # (3, E, D)
    ok = (
        (splits <= size)[..., None]
        & (tiles <= t_max)
        & ((tiles >= t_min) | (blocks[..., None] < t_min))
    )
    grid = (slice(None), None, None), (None, slice(None), None), (None, None, slice(None))
    t_m, t_k, t_n = (tiles[axis][grid[axis]] for axis in range(3))
    b_m, b_k, b_n = (blocks[axis][grid[axis]] for axis in range(3))
    b_max = np.maximum(np.maximum(b_m, b_k), b_n)
    feasible = (
        ok[0][grid[0]] & ok[1][grid[1]] & ok[2][grid[2]]
        & (sides <= np.maximum(1, b_max // t_min)[..., None] + 1)
    )
    area = (t_m * t_k + t_k * t_n + t_m * t_n) * sides * sides
    worst = float("inf") if dtype is object else np.iinfo(np.int64).max
    best = np.where(feasible, area, worst).argmin(axis=-1)[..., None]
    e_m, e_k, e_n = np.nonzero(feasible.any(axis=-1))
    if e_m.size == 0:
        raise InfeasibleTiling(
            f"no partition of ({m}x{k})({k}x{n}) into squat blocks with "
            f"tiles in [{t_min}, {t_max}]"
        )
    shape = feasible.shape
    chosen = [
        np.take_along_axis(np.broadcast_to(t, shape), best, axis=-1)[e_m, e_k, e_n, 0]
        for t in (t_m, t_k, t_n)
    ]
    order = best[e_m, e_k, e_n, 0]
    volume = chosen[0] * chosen[1] * chosen[2] * sides[order] ** 3
    # Exact padded flop volume (over 2) as Python integers.
    key = min(
        (v << (em + ek + en), em + ek + en, em, ek, en, i)
        for i, (v, em, ek, en) in enumerate(
            zip(volume.tolist(), e_m.tolist(), e_k.tolist(), e_n.tolist())
        )
    )
    _, _, em, ek, en, i = key
    tiling = MatmulTiling(
        int(order[i]),
        *(int(t[i]) for t in chosen),
        *(int(blocks[axis, e]) for axis, e in enumerate((em, ek, en))),
    )
    return PartitionPlan(m, k, n, 1 << em, 1 << ek, 1 << en, tiling)
