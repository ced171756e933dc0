"""BLAS-3 compatible ``dgemm`` front end (paper Section 2.1 and 4).

Computes ``C <- alpha * op(A) . op(B) + beta * C`` with ``op(X)`` either
``X`` or ``X^T``, on column-major inputs, exactly like the Level 3 BLAS
routine the paper stays call-compatible with.  Internally it:

1. classifies the problem and, for wide/lean shapes, splits it into
   squat block products (Figure 3, :mod:`repro.matrix.partition`);
2. selects a joint tiling with tile sizes in ``[T_min, T_max]`` and
   explicit zero padding (Section 4, :mod:`repro.matrix.tile`);
3. converts the operands into the requested recursive layout with any
   transposition fused into the remap — *and charges that conversion to
   the reported cost*, the honest accounting the paper argues for;
4. runs the requested recursive algorithm over the requested layout
   (``layout="LC"`` keeps canonical storage: the paper's baseline).
   Without a runtime and with the BLAS kernel, standard (``mode=
   "accumulate"``), Strassen and Winograd run on the level-synchronous
   executor (:mod:`repro.algorithms.levelsync`), which batches each
   recursion level into a few numpy calls with bit-identical results;
   every other configuration runs the depth-first recursion;
5. converts back, applying ``alpha``/``beta`` at the dense interface.

Empty dimensions follow BLAS: ``m == 0`` or ``n == 0`` gives an empty
``C``, and ``k == 0`` gives ``beta * C`` (zeros when ``beta`` is 0).

Returns a :class:`DgemmResult` carrying the output and a full cost
breakdown (conversion vs. compute time, operation counters, pad ratio).
"""

from __future__ import annotations

import dataclasses
from repro import clock

import numpy as np

from repro import obs
from repro.algorithms import levelsync
from repro.algorithms.hybrid import default_fast_levels, hybrid_multiply
from repro.algorithms.recursion import Context
from repro.algorithms.spacesaving import strassen_space_saving
from repro.algorithms.standard import standard_multiply
from repro.algorithms.strassen import strassen_multiply
from repro.algorithms.winograd import winograd_multiply
from repro.kernels import instrument
from repro.matrix.convert import (
    ConversionStats,
    from_tiled,
    to_dense_padded,
    to_tiled,
)
from repro.matrix.partition import PartitionPlan, plan_partition
from repro.matrix.tile import (
    MatmulTiling,
    TileRange,
    Tiling,
    matmul_tiling_for_fixed_tile,
)
from repro.matrix.tiledmatrix import DenseMatrix, TiledMatrix
from repro.runtime.cilk import Runtime

__all__ = ["ALGORITHMS", "DgemmResult", "dgemm", "matmul"]

#: Algorithm registry: name -> recursive multiply function.
ALGORITHMS = {
    "standard": standard_multiply,
    "strassen": strassen_multiply,
    "winograd": winograd_multiply,
    "hybrid": hybrid_multiply,
    "strassen_space": strassen_space_saving,
}


@dataclasses.dataclass
class DgemmResult:
    """Output matrix plus the cost breakdown of one dgemm call."""

    c: np.ndarray
    algorithm: str
    layout: str
    m: int
    k: int
    n: int
    tiling: MatmulTiling
    partition: PartitionPlan
    conversion: ConversionStats
    counters: instrument.Counters
    compute_seconds: float
    total_seconds: float

    @property
    def conversion_fraction(self) -> float:
        """Share of end-to-end time spent converting layouts."""
        return self.conversion.seconds / self.total_seconds if self.total_seconds else 0.0

    @property
    def pad_ratio(self) -> float:
        """Padded C area over logical area, minus one (0 when C is empty)."""
        return self.tiling.tiling_c().pad_ratio if self.m and self.n else 0.0


def _op_dims(a: np.ndarray, op: str) -> tuple[int, int]:
    if op not in ("N", "T"):
        raise ValueError(f"op must be 'N' or 'T', got {op!r}")
    r, c = a.shape
    return (r, c) if op == "N" else (c, r)


def _op_block(a: np.ndarray, op: str, rows: tuple[int, int], cols: tuple[int, int]):
    """Sub-block of op(a) as (underlying slice, transpose flag)."""
    if op == "N":
        return a[rows[0] : rows[1], cols[0] : cols[1]], False
    return a[cols[0] : cols[1], rows[0] : rows[1]], True


def dgemm(
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray | None = None,
    alpha: float = 1.0,
    beta: float = 0.0,
    op_a: str = "N",
    op_b: str = "N",
    algorithm: str = "standard",
    layout: str = "LZ",
    trange: TileRange | None = None,
    tile: int | None = None,
    kernel="blas",
    rt: Runtime | None = None,
    mode: str = "accumulate",
    fast: str = "strassen",
    fast_levels: int | None = None,
) -> DgemmResult:
    """``C <- alpha * op(A) . op(B) + beta * C``; see module docstring.

    ``tile`` forces a square leaf tile (Figure 4's depth sweep) and
    bypasses partitioning; otherwise tiles come from ``trange``.
    ``mode`` selects the standard algorithm's spawn structure;
    ``fast``/``fast_levels`` configure ``algorithm="hybrid"``
    (``fast_levels=None`` picks the modeled crossover).
    """
    t_start = clock.perf_counter()
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("a and b must be 2-D")
    if algorithm not in ALGORITHMS:
        raise KeyError(f"unknown algorithm {algorithm!r}; known: {sorted(ALGORITHMS)}")
    m, k = _op_dims(a, op_a)
    k2, n = _op_dims(b, op_b)
    if k != k2:
        raise ValueError(f"inner dims differ: op(A) is {m}x{k}, op(B) is {k2}x{n}")
    if beta != 0.0 and c is None:
        raise ValueError("beta != 0 requires c")
    if c is not None and c.shape != (m, n):
        raise ValueError(f"c has shape {c.shape}, expected {(m, n)}")

    trange = trange or TileRange()
    layout = layout.upper()
    # BLAS contract: an empty product adds nothing, so C is empty (m or
    # n is 0) or just beta * C (k is 0, whatever alpha is); no tiling
    # exists to plan.
    empty = 0 in (m, k, n)
    if empty:
        alpha = 1.0
        tiling = MatmulTiling(0, m, k, n, m, k, n)
        partition = PartitionPlan(m, k, n, 1, 1, 1, tiling)
    elif tile is not None:
        tiling = matmul_tiling_for_fixed_tile(m, k, n, tile)
        partition = PartitionPlan(m, k, n, 1, 1, 1, tiling)
    else:
        partition = plan_partition(m, k, n, trange)
        tiling = partition.tiling

    conv = ConversionStats()
    ctx = Context(rt, kernel)
    multiply = ALGORITHMS[algorithm]
    level_sync = (
        rt is None
        and kernel == "blas"
        and levelsync.supports(
            algorithm, mode, layout, (tiling.t_m, tiling.t_k, tiling.t_n)
        )
    )
    grouped_levels = 0
    out = np.zeros((m, n), dtype=np.result_type(a, b), order="F")
    compute_seconds = 0.0

    with instrument.collect() as counted:
        # Group block products by output block so k-blocks accumulate into
        # one converted C target before converting back once.
        blocks = [] if empty else partition.block_products()
        by_output: dict[tuple, list] = {}
        for bp in blocks:
            by_output.setdefault((bp.row_range, bp.col_range), []).append(bp)

        for (rm, rn), group in by_output.items():
            bm, bn = rm[1] - rm[0], rn[1] - rn[0]
            ct = Tiling(tiling.d, tiling.t_m, tiling.t_n, bm, bn)
            if layout == "LC":
                c_acc = DenseMatrix.zeros(ct.d, ct.t_r, ct.t_c, bm, bn, dtype=out.dtype)
            else:
                c_acc = TiledMatrix.zeros(
                    layout, ct.d, ct.t_r, ct.t_c, bm, bn, dtype=out.dtype
                )
            for bp in group:
                rk = bp.inner_range
                bk = rk[1] - rk[0]
                at = Tiling(tiling.d, tiling.t_m, tiling.t_k, bm, bk)
                bt = Tiling(tiling.d, tiling.t_k, tiling.t_n, bk, bn)
                asub, a_tr = _op_block(a, op_a, rm, rk)
                bsub, b_tr = _op_block(b, op_b, rk, rn)
                if layout == "LC":
                    av = to_dense_padded(asub, at, a_tr, out.dtype, stats=conv)
                    bv = to_dense_padded(bsub, bt, b_tr, out.dtype, stats=conv)
                else:
                    av = to_tiled(asub, layout, at, a_tr, out.dtype, stats=conv)
                    bv = to_tiled(bsub, layout, bt, b_tr, out.dtype, stats=conv)
                t0 = clock.perf_counter()
                if level_sync:
                    grouped_levels += levelsync.multiply(algorithm, c_acc, av, bv)
                    compute_seconds += clock.perf_counter() - t0
                    continue
                extra: dict = {}
                if algorithm == "standard":
                    extra["mode"] = mode
                elif algorithm == "hybrid":
                    levels = fast_levels
                    if levels is None:
                        side_tile = max(tiling.t_m, tiling.t_k, tiling.t_n)
                        levels = default_fast_levels(
                            side_tile << tiling.d, side_tile, fast
                        )
                    extra["fast"] = fast
                    extra["fast_levels"] = min(levels, tiling.d)
                multiply(
                    c_acc.root_view(),
                    av.root_view(),
                    bv.root_view(),
                    ctx,
                    accumulate=True,
                    **extra,
                )
                compute_seconds += clock.perf_counter() - t0
            if layout == "LC":
                t0 = clock.perf_counter()
                block_result = c_acc.array[:bm, :bn]
                conv.record(c_acc.array.size, out.dtype.itemsize, clock.perf_counter() - t0)
            else:
                block_result = from_tiled(c_acc, stats=conv)
            out[rm[0] : rm[1], rn[0] : rn[1]] = block_result

    if obs.enabled():
        if level_sync:
            obs.add("dgemm.path.level_sync")
            obs.add("dgemm.level_sync.grouped_levels", grouped_levels)
        else:
            obs.add("dgemm.path.recursive")
    if alpha != 1.0:
        out *= alpha
    if beta != 0.0 and c is not None:
        out += beta * np.asarray(c)

    return DgemmResult(
        c=out,
        algorithm=algorithm,
        layout=layout,
        m=m,
        k=k,
        n=n,
        tiling=tiling,
        partition=partition,
        conversion=conv,
        counters=counted,
        compute_seconds=compute_seconds,
        total_seconds=clock.perf_counter() - t_start,
    )


def matmul(a: np.ndarray, b: np.ndarray, **kwargs) -> np.ndarray:
    """Convenience wrapper: just the product ``op(A) . op(B)``."""
    return dgemm(a, b, **kwargs).c
