"""Strassen's algorithm (paper Figure 1(b)): 7 products, 18 additions.

One level is the level program :data:`repro.algorithms.program.STRASSEN`:
ten independent pre-additions build the quadrant temporaries ``S1..S5``
(from A) and ``T1..T5`` (from B), the seven products are spawned in
parallel, and four post-addition chains combine them into C.

The pre-additions are where the recursive layouts' orientation issues
bite (e.g. ``A11 + A22`` mixes two orientations under L_G/L_H); the
streamed ops of :mod:`repro.matrix.quadrant` resolve them with the
paper's half-step / mapping-array techniques.

A key memory-system property the paper calls out (Section 5.1): every
recursion level hands the sub-problems *fresh contiguous temporaries*,
halving the leading dimension even when the inputs stay in canonical
layout.  That is why Strassen profits so little from recursive layouts
compared to the standard algorithm.
"""

from __future__ import annotations

from repro.algorithms.program import STRASSEN, recurse
# ``stream_add`` / ``combine`` stay importable from here for callers
# that patch the per-algorithm names.
from repro.algorithms.recursion import Context, combine, stream_add  # noqa: F401
from repro.matrix.tiledmatrix import MatrixView

__all__ = ["strassen_multiply"]


def strassen_multiply(
    c: MatrixView,
    a: MatrixView,
    b: MatrixView,
    ctx: Context | None = None,
    accumulate: bool = True,
) -> None:
    """``C (+)= A . B`` with Strassen's 7-product recursion."""
    recurse(STRASSEN, ctx or Context(), c, a, b, accumulate)

