"""Hybrid fast/standard recursion with a crossover depth.

Frens & Wise speculated about "an attractive hybrid composed of
Strassen's recurrence and this one" (quoted in the paper's
introduction).  The classic engineering of Strassen-family algorithms
does exactly this: run the 7-product recursion while the quadrants are
large enough that saving one-eighth of the products beats the 18 (or
15) extra quadrant additions, then switch to the standard 8-product
recursion, whose subtree is pure dgemm streaming with no temporaries.

:func:`hybrid_multiply` takes the number of fast levels explicitly;
:func:`default_fast_levels` derives a crossover from the exact
operation-count recurrences under a bandwidth-aware cost model (a
streamed addition element costs several flops' worth of time).

Implementation: each fast level runs the algorithm's level program
(:data:`repro.algorithms.program.FAST_PROGRAMS`) through
:func:`~repro.algorithms.program.run_level`, whose product recursion
re-enters the hybrid with one fewer fast level.
"""

from __future__ import annotations

from repro.algorithms.opcount import op_count
from repro.algorithms.program import FAST_PROGRAMS, run_level
from repro.algorithms.recursion import Context, leaf_multiply
from repro.algorithms.standard import standard_multiply
from repro.matrix.tiledmatrix import MatrixView

__all__ = ["hybrid_multiply", "default_fast_levels"]


def _program(fast: str):
    try:
        return FAST_PROGRAMS[fast]
    except KeyError:
        raise KeyError(
            f"unknown fast algorithm {fast!r}; known: {sorted(FAST_PROGRAMS)}"
        ) from None


def default_fast_levels(
    n: int, tile: int, fast: str = "strassen", stream_cost: float = 4.0
) -> int:
    """Crossover depth minimizing modeled cost (flops + weighted streams).

    Evaluates every candidate number of fast levels against the exact
    operation-count recurrences and returns the cheapest.
    """
    _program(fast)
    if n % tile:
        raise ValueError(f"n={n} not a multiple of tile={tile}")
    side = n // tile
    if side & (side - 1):
        raise ValueError(f"n/tile = {side} must be a power of two")
    d = side.bit_length() - 1

    def cost(fast_levels: int) -> float:
        # The fast levels are a fast multiply down to n >> fast_levels.
        sub = n >> fast_levels
        top = op_count(fast, n, sub)
        flops = float(top.leaf_multiplies) * op_count("standard", sub, tile).multiply_flops
        return flops + top.add_elements * stream_cost

    return min(range(d + 1), key=cost)


def hybrid_multiply(
    c: MatrixView,
    a: MatrixView,
    b: MatrixView,
    ctx: Context | None = None,
    accumulate: bool = True,
    fast: str = "strassen",
    fast_levels: int = 1,
) -> None:
    """``C (+)= A . B``: ``fast_levels`` of Strassen/Winograd, then standard."""
    ctx = ctx or Context()
    program = _program(fast)
    if fast_levels < 0:
        raise ValueError(f"fast_levels must be >= 0, got {fast_levels}")

    def recurse(ctx_, c_, a_, b_, acc_, remaining: int) -> None:
        if c_.is_leaf:
            leaf_multiply(ctx_, c_, a_, b_, acc_)
            return
        if remaining <= 0:
            standard_multiply(c_, a_, b_, ctx_, accumulate=acc_)
            return

        def product_recursion(ctx__, p, x, y, acc__):
            recurse(ctx__, p, x, y, acc__, remaining - 1)

        run_level(program, ctx_, c_, a_, b_, acc_, product_recursion)

    recurse(ctx, c, a, b, accumulate, fast_levels)
