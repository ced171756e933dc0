"""Winograd's variant of Strassen (paper Figure 1(c)): 7 products, 15 adds.

Winograd's variant attains the proven minimum operation count for
quadrant-based recursive multiplication (7 multiplications, 15
additions) by *reusing common subexpressions*: the S/T pre-addition
chains and the U post-addition chain of the level program
:data:`repro.algorithms.program.WINOGRAD`.  The paper highlights that
this sharing is precisely what worsens its algorithmic locality relative
to Strassen (Figure 1), which is why the two perform nearly identically
despite Winograd's lower operation count.

The dependence chains (S1->S2->S4, T1->T2->T4, U2->U3->C21) force three
sequential waves of pre-additions and of post-additions;
:func:`~repro.algorithms.program.run_level` spawns them that way, and
the critical-path recurrences in :mod:`repro.runtime.critical` follow
from the same waves.
"""

from __future__ import annotations

from repro.algorithms.program import WINOGRAD, recurse
# ``stream_add`` / ``combine`` stay importable from here for callers
# that patch the per-algorithm names.
from repro.algorithms.recursion import Context, combine, stream_add  # noqa: F401
from repro.matrix.tiledmatrix import MatrixView

__all__ = ["winograd_multiply"]


def winograd_multiply(
    c: MatrixView,
    a: MatrixView,
    b: MatrixView,
    ctx: Context | None = None,
    accumulate: bool = True,
) -> None:
    """``C (+)= A . B`` with Winograd's 7-product / 15-addition recursion."""
    recurse(WINOGRAD, ctx or Context(), c, a, b, accumulate)

