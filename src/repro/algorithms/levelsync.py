"""Level-synchronous executor: the wall-clock engine behind ``dgemm``.

The recursive algorithms of this package run depth-first, one Python
call per leaf product and per streamed addition: the paper's Cilk
program, which the tracer, the trace synthesizer, the race proofs and
the simulated runtimes all observe.  For a plain wall-clock ``dgemm``
that per-tile dispatch, not arithmetic, dominates the run time.  This
module runs the same arithmetic breadth-first.

* **Level programs.**  Strassen and Winograd run from their
  :class:`~repro.algorithms.program.LevelProgram`, the same table the
  depth-first :func:`~repro.algorithms.program.run_level` interprets:
  pre-additions, product operand pairs and post-additions, in program
  order.  The executor runs each step once per recursion level over a
  *stack* of sub-problems, and every leaf product of a stacked subtree
  becomes one batched ``np.matmul``.
* **Standard.**  The depth-first standard recursion (``mode="accumulate"``)
  adds the products of each leaf ``C`` tile in ascending ``k`` order, so
  here it is a loop over the ``2^d`` k-steps of the tile grid, each one
  broadcast ``np.matmul`` over all ``(i, j)`` tiles.
* **Stacks.**  A recursive-layout stack is a ``(batch, 4^j, tile)``
  array of column-major tiles in the curve's root orientation.  A
  quadrant is a contiguous run of tiles; one whose orientation differs
  (Gray, Hilbert) is aligned with the layout's own mapping arrays
  (:func:`~repro.layouts.base.orientation_permutation`), as the
  depth-first additions do.  ``L_C`` stacks are ``(batch, rows, cols)``
  column-major arrays and quadrants are strided views of them.
* **Memory cap.**  Stacking a level multiplies its operand footprint by
  ``7/4`` per level below it.  A level is stacked only while its whole
  subtree fits :data:`STACK_BUDGET_BYTES`; above that, its seven products
  run group by group, depth-first, so the working set stays close to the
  depth-first executor's (Benson & Ballard's BFS/DFS hybrid).

Every leaf product uses the same ``np.matmul`` call as the depth-first
kernel (``C += A @ B`` when accumulating, ``matmul(A, B, out=C)`` when
overwriting, on column-major tiles of the same strides), and every
addition adds the same elements in the same order, so results are
bit-identical to the depth-first executor, and so are the
:mod:`repro.kernels.instrument` counters.  The one exception: ``L_C``
copies quadrants into fresh stacks, which changes the strides of
``1``-wide tiles, where numpy switches to vector BLAS paths;
:func:`supports` leaves those to the depth-first executor.
"""

from __future__ import annotations

import functools
import numpy as np

from repro.algorithms.program import FAST_PROGRAMS, LevelProgram
from repro.kernels import instrument
from repro.layouts.base import RecursiveLayout, orientation_permutation
from repro.matrix.tiledmatrix import DenseMatrix, TiledMatrix

__all__ = [
    "STACK_BUDGET_BYTES",
    "multiply",
    "supports",
]

#: Bytes a stacked subtree may allocate.  Stacking pays off once a
#: level's leaf batch holds a few dozen tiles (7^2 products of 32x32
#: doubles is 0.4 MB per operand); beyond a few MB the batches are
#: long enough that dispatch is amortized, and the extra working set
#: would only raise the peak above the depth-first executor's.
STACK_BUDGET_BYTES = 4 << 20

def supports(algorithm: str, mode: str, layout: str, tile_dims: tuple[int, ...]) -> bool:
    """Whether :func:`multiply` reproduces the depth-first result exactly."""
    if algorithm == "standard":
        return mode == "accumulate"
    if algorithm not in FAST_PROGRAMS:
        return False
    return layout != "LC" or min(tile_dims) > 1


# -- stacks ---------------------------------------------------------------


class _Stacks:
    """Stacks of one operand's sub-problems (tile ``t_r x t_c``)."""

    def __init__(self, t_r: int, t_c: int, dtype) -> None:
        self.t_r, self.t_c = t_r, t_c
        self.tile = t_r * t_c
        self.dtype = dtype

    def elements(self, j: int) -> int:
        """Elements of one sub-problem of grid order ``j``."""
        return self.tile << (2 * j)

    def split(self, x: np.ndarray, batch: int, slots: int) -> np.ndarray:
        """View a ``batch * slots`` stack as ``(batch, slots, ...)``."""
        return x.reshape(batch, slots, *x.shape[1:])


class _CurveStacks(_Stacks):
    """``(batch, 4^j, t_r*t_c)`` stacks of column-major tiles, each
    sub-problem in its curve's root orientation."""

    def __init__(self, curve: RecursiveLayout, t_r: int, t_c: int, dtype) -> None:
        super().__init__(t_r, t_c, dtype)
        self.curve = curve
        self.rank = curve.rank_table[0]
        self.child = curve.child_table[0]

    def empty(self, batch: int, j: int) -> np.ndarray:
        return np.empty((batch, 1 << (2 * j), self.tile), dtype=self.dtype)

    def quadrant(self, x: np.ndarray, j: int, qi: int, qj: int):
        """Quadrant ``(qi, qj)`` in root orientation, and the orientation
        its storage has (``None`` when the result is a view of ``x``)."""
        q = 1 << (2 * (j - 1))
        r = int(self.rank[qi, qj])
        view = x[:, r * q : (r + 1) * q]
        o = int(self.child[qi, qj])
        if o == 0 or j == 1:
            return view, None
        return view[:, orientation_permutation(self.curve, j - 1, o, 0)], o

    def write_back(self, x: np.ndarray, j: int, qi: int, qj: int, o: int,
                   value: np.ndarray) -> None:
        """Store a root-oriented quadrant into its orientation-``o`` slot."""
        q = 1 << (2 * (j - 1))
        r = int(self.rank[qi, qj])
        x[:, r * q : (r + 1) * q] = value[:, orientation_permutation(self.curve, j - 1, 0, o)]

    def matrices(self, tiles: np.ndarray) -> np.ndarray:
        """Column-major ``(..., t_r, t_c)`` views of ``(..., tile)`` rows."""
        return tiles.reshape(*tiles.shape[:-1], self.t_c, self.t_r).swapaxes(-1, -2)

    def leaves(self, x: np.ndarray) -> np.ndarray:
        """``(batch, t_r, t_c)`` tile views of a ``j=0`` stack."""
        return self.matrices(x[:, 0])


class _DenseStacks(_Stacks):
    """``(batch, rows, cols)`` stacks of column-major matrices (``L_C``)."""

    def empty(self, batch: int, j: int) -> np.ndarray:
        rows, cols = self.t_r << j, self.t_c << j
        return np.empty((batch, cols, rows), dtype=self.dtype).transpose(0, 2, 1)

    def quadrant(self, x: np.ndarray, j: int, qi: int, qj: int):
        hr, hc = self.t_r << (j - 1), self.t_c << (j - 1)
        return x[:, qi * hr : (qi + 1) * hr, qj * hc : (qj + 1) * hc], None

    def leaves(self, x: np.ndarray) -> np.ndarray:
        return x


@functools.lru_cache(maxsize=None)
def _tile_order(curve: RecursiveLayout, d: int) -> np.ndarray:
    return curve.tile_order(d, 0)


def _dense_grid(x: np.ndarray, t_r: int, t_c: int, d: int) -> np.ndarray:
    """``(2^d, 2^d, t_r, t_c)`` tile-grid view of one column-major array."""
    if not x.flags.f_contiguous:
        raise ValueError("L_C operands must be column-major contiguous")
    side = 1 << d
    return x.reshape(t_r, side, t_c, side, order="F").transpose(1, 3, 0, 2)


# -- the executor -------------------------------------------------------------


def _stream(out: np.ndarray, x: np.ndarray, y: np.ndarray, subtract: bool) -> None:
    (np.subtract if subtract else np.add)(x, y, out=out)


class _Executor:
    def __init__(self, program: LevelProgram, ga, gb, gc, d: int, itemsize: int):
        # Stacked product operands live in one slot per product, so an
        # operand may feed only one product on each side.
        for side in zip(*program.products):
            if len(set(side)) != len(side):
                raise ValueError(
                    f"level program reuses a product operand {side}; "
                    "the level-synchronous executor needs each to feed one product"
                )
        self.program = program
        self.geoms = {"a": ga, "b": gb, "c": gc}
        self.grouped_levels = 0
        self.leaf_shape = (ga.t_r, ga.t_c, gb.t_c)
        # Which operand's stacks ("a" or "b") each pre-addition writes.
        self.owner = {name: like[0] for name, like in program.pre_temporaries}
        self.x_slot = {x: p for p, (x, _) in enumerate(program.products)}
        self.y_slot = {y: p for p, (_, y) in enumerate(program.products)}
        # footprint[j]: bytes one sub-problem of grid order j allocates
        # when its whole subtree is stacked.
        n = len(program.products)
        per_quadrant = n * (ga.tile + gb.tile + gc.tile) + (
            len(program.post_temporaries) * gc.tile
        )
        self.footprint = [0]
        for j in range(1, d + 1):
            level = (1 << (2 * (j - 1))) * per_quadrant * itemsize
            self.footprint.append(level + n * self.footprint[j - 1])

    def run(self, c, a, b, j: int, accumulate: bool) -> None:
        if j == 0:
            self._leaves(c, a, b, accumulate)
        else:
            self._level(c, a, b, j, accumulate)

    def _leaves(self, c, a, b, accumulate: bool) -> None:
        ga, gb, gc = self.geoms["a"], self.geoms["b"], self.geoms["c"]
        cl, al, bl = gc.leaves(c), ga.leaves(a), gb.leaves(b)
        if accumulate:
            cl += np.matmul(al, bl)
        else:
            np.matmul(al, bl, out=cl)
        instrument.count_leaf_multiply(*self.leaf_shape, count=cl.shape[0])

    def _level(self, c, a, b, j: int, accumulate: bool) -> None:
        prog, geoms = self.program, self.geoms
        batch = c.shape[0]
        n = len(prog.products)
        env: dict[str, np.ndarray] = {}

        def operand(name: str) -> np.ndarray:
            if name in env:
                return env[name]
            # A quadrant of A or B: a view, or a transient aligned copy,
            # as the depth-first additions make one per use.
            qi, qj = int(name[1]) - 1, int(name[2]) - 1
            return geoms[name[0]].quadrant(a if name[0] == "a" else b, j, qi, qj)[0]

        stacked = batch * self.footprint[j] <= STACK_BUDGET_BYTES
        if stacked:
            xs = geoms["a"].empty(batch * n, j - 1)
            ys = geoms["b"].empty(batch * n, j - 1)
            slots = {
                **{x: geoms["a"].split(xs, batch, n)[:, p] for x, p in self.x_slot.items()},
                **{y: geoms["b"].split(ys, batch, n)[:, p] for y, p in self.y_slot.items()},
            }
        for dst, x, y, subtract in prog.pre:
            g = geoms[self.owner[dst]]
            out = slots[dst] if stacked and dst in slots else g.empty(batch, j - 1)
            _stream(out, operand(x), operand(y), subtract)
            env[dst] = out
            instrument.count_adds(batch * g.elements(j - 1))

        ps = geoms["c"].empty(batch * n, j - 1)
        products = geoms["c"].split(ps, batch, n)
        if stacked:
            for name, slot in slots.items():
                if name not in env:
                    slot[...] = operand(name)
            env.clear()
            self.run(ps, xs, ys, j - 1, False)
            del xs, ys, slots
        else:
            self.grouped_levels += 1
            for p, (x, y) in enumerate(prog.products):
                self.run(products[:, p], operand(x), operand(y), j - 1, False)
            env.clear()
        for p in range(n):
            env[f"p{p + 1}"] = products[:, p]

        gc = geoms["c"]
        elements = batch * gc.elements(j - 1)
        for dst, terms, signs in prog.post:
            if not dst.startswith("c"):
                out = gc.empty(batch, j - 1)
                _stream(out, env[terms[0]], env[terms[1]], signs[1] < 0)
                env[dst] = out
                instrument.count_adds(elements)
                continue
            qi, qj = int(dst[1]) - 1, int(dst[2]) - 1
            cq, o = gc.quadrant(c, j, qi, qj)
            _combine(cq, [env[t] for t in terms], signs, accumulate)
            instrument.count_adds(elements * (len(terms) - (0 if accumulate else 1)))
            if o is not None:
                gc.write_back(c, j, qi, qj, o, cq)


def _combine(out: np.ndarray, terms: list[np.ndarray], signs: tuple[int, ...],
             accumulate: bool) -> None:
    """``out (+)= sum(sign * term)`` in the pass order of ``combine``."""
    start = 0
    if not accumulate:
        _stream(out, terms[0], terms[1], signs[1] < 0)
        start = 2
    for term, sign in zip(terms[start:], signs[start:]):
        _stream(out, out, term, sign < 0)


def _standard(ga, gb, gc, c, a, b, d: int, accumulate: bool) -> None:
    """The depth-first standard order: per block of C tile rows, ``2^d``
    broadcast k-steps, so every leaf accumulates in ascending ``k``."""
    side = 1 << d
    dense = isinstance(gc, _DenseStacks)
    if dense:
        a_grid, b_grid, c_grid = (
            _dense_grid(x[0], g.t_r, g.t_c, d) for x, g in ((a, ga), (b, gb), (c, gc))
        )
    else:
        order = _tile_order(gc.curve, d)
    # A block of C tile rows and its product temporary fit the cap.
    rows = max(1, STACK_BUDGET_BYTES // (2 * side * gc.tile * gc.dtype.itemsize))
    for i0 in range(0, side, rows):
        i1 = min(side, i0 + rows)
        if dense:
            block = c_grid[i0:i1]
        else:
            # Gathers take whole tile rows, so every gathered tile stays
            # column-major, as the depth-first kernel sees it.
            c_rows = c[0][order[i0:i1]]
            block = gc.matrices(c_rows)
        for kk in range(side):
            if dense:
                a_col, b_row = a_grid[i0:i1, kk], b_grid[kk]
            else:
                a_col = ga.matrices(a[0][order[i0:i1, kk]])
                b_row = gb.matrices(b[0][order[kk]])
            if accumulate or kk:
                block += np.matmul(a_col[:, None], b_row[None])
            else:
                np.matmul(a_col[:, None], b_row[None], out=block)
        if not dense:
            c[0][order[i0:i1]] = c_rows
    instrument.count_leaf_multiply(ga.t_r, ga.t_c, gb.t_c, count=side**3)


def multiply(
    algorithm: str,
    c: TiledMatrix | DenseMatrix,
    a: TiledMatrix | DenseMatrix,
    b: TiledMatrix | DenseMatrix,
    accumulate: bool = True,
) -> int:
    """``C (+)= A . B`` over whole containers; returns the number of
    levels that ran group by group under the memory cap.

    Same result and same instrument counters as the depth-first
    ``ALGORITHMS[algorithm]`` on the containers' root views (for the
    cases :func:`supports` admits).
    """
    dtype = c.dtype
    if isinstance(c, TiledMatrix):
        assert isinstance(a, TiledMatrix) and isinstance(b, TiledMatrix)
        curve = c.layout.curve
        assert isinstance(curve, RecursiveLayout)
        d = c.layout.d
        ga = _CurveStacks(curve, a.layout.t_r, a.layout.t_c, dtype)
        gb = _CurveStacks(curve, b.layout.t_r, b.layout.t_c, dtype)
        gc = _CurveStacks(curve, c.layout.t_r, c.layout.t_c, dtype)
        cs, as_, bs = (m.buf.reshape(1, 1 << (2 * d), -1) for m in (c, a, b))
    else:
        assert isinstance(a, DenseMatrix) and isinstance(b, DenseMatrix)
        ga = _DenseStacks(a.t_r, a.t_c, dtype)
        gb = _DenseStacks(b.t_r, b.t_c, dtype)
        gc = _DenseStacks(c.t_r, c.t_c, dtype)
        d = (c.array.shape[0] // c.t_r).bit_length() - 1
        cs, as_, bs = (m.array[None] for m in (c, a, b))
    if algorithm == "standard":
        _standard(ga, gb, gc, cs, as_, bs, d, accumulate)
        return 0
    executor = _Executor(FAST_PROGRAMS[algorithm], ga, gb, gc, d, np.dtype(dtype).itemsize)
    executor.run(cs, as_, bs, d, accumulate)
    return executor.grouped_levels
