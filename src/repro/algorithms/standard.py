"""Standard O(n^3) recursive matrix multiplication (paper Figure 1(a)).

Two spawn structures are provided:

* ``mode="accumulate"`` (default) — two phases of four parallel
  recursive products each; the second phase accumulates into the same C
  quadrants, so no temporaries are needed.  This is the memory-lean Cilk
  idiom and the mode used for wall-clock measurements.

* ``mode="temps"`` — the paper's Figure 1(a) literally: all eight
  products spawned at once into quadrant-sized temporaries, followed by
  four parallel post-additions (the level program
  :data:`repro.algorithms.program.STANDARD_TEMPS`).  More parallel
  slack, more memory; used by the critical-path experiments.
"""

from __future__ import annotations

from repro.algorithms.program import STANDARD_TEMPS, recurse
# ``combine`` stays importable from here for callers that patch the
# per-algorithm names.
from repro.algorithms.recursion import Context, combine, leaf_multiply  # noqa: F401
from repro.matrix.tiledmatrix import MatrixView

__all__ = ["standard_multiply", "standard_level"]


def standard_multiply(
    c: MatrixView,
    a: MatrixView,
    b: MatrixView,
    ctx: Context | None = None,
    accumulate: bool = True,
    mode: str = "accumulate",
) -> None:
    """``C (+)= A . B`` by quadrant recursion with eight recursive products."""
    ctx = ctx or Context()
    if mode == "temps":
        recurse(STANDARD_TEMPS, ctx, c, a, b, accumulate)
    elif mode == "accumulate":
        _recurse(ctx, c, a, b, accumulate)
    else:
        raise ValueError(f"unknown mode {mode!r}")


def _recurse(ctx: Context, c, a, b, accumulate: bool) -> None:
    if c.is_leaf:
        leaf_multiply(ctx, c, a, b, accumulate)
    else:
        standard_level(ctx, c, a, b, accumulate, _recurse)


def standard_level(ctx: Context, c, a, b, accumulate: bool, product_recursion) -> None:
    """One ``mode="accumulate"`` level: two phases of four products
    straight into the C quadrants.  ``product_recursion(ctx, cq, aq, bq,
    accumulate)`` computes each product (the hook shape of
    :func:`~repro.algorithms.program.run_level`, used by the symbolic
    trace synthesizer to intercept the recursion)."""
    c11, c12, c21, c22 = c.quadrants()
    a11, a12, a21, a22 = a.quadrants()
    b11, b12, b21, b22 = b.quadrants()
    rec = lambda cq, aq, bq, acc: (  # noqa: E731 - local shorthand
        lambda: product_recursion(ctx, cq, aq, bq, acc)
    )
    # Phase 1: the four "first" products, possibly overwriting C.
    ctx.rt.spawn_all(
        [
            rec(c11, a11, b11, accumulate),
            rec(c12, a11, b12, accumulate),
            rec(c21, a21, b11, accumulate),
            rec(c22, a21, b12, accumulate),
        ]
    )
    # Phase 2: the four "second" products always accumulate.
    ctx.rt.spawn_all(
        [
            rec(c11, a12, b21, True),
            rec(c12, a12, b22, True),
            rec(c21, a22, b21, True),
            rec(c22, a22, b22, True),
        ]
    )
