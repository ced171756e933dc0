"""Analytic work/span recurrences for the three algorithms.

The paper (Section 5, "General comments") reports, via Cilk's critical-
path tracking, that at n = 1000 the standard algorithm has enough
parallelism to keep about 40 processors busy and the fast algorithms
about 23.  These recurrences compute work ``T_1`` and span ``T_inf``
under the runtime :class:`~repro.runtime.cilk.CostModel` for any depth,
without materializing the (enormous) DAG:

standard (two accumulation phases of four parallel products each)::

    T_1(d)   = 8 T_1(d-1)
    T_inf(d) = 2 T_inf(d-1)

standard with temporaries (paper Figure 1(a): 8 parallel products into
temporaries, then 4 parallel quadrant additions)::

    T_1(d)   = 8 T_1(d-1) + 8 A(d-1)
    T_inf(d) = T_inf(d-1) + A(d-1)

Strassen (10 parallel pre-additions, 7 parallel products, post-additions
with a 2-long chain on C11/C22)::

    T_1(d)   = 7 T_1(d-1) + 18 A(d-1)
    T_inf(d) = T_inf(d-1) + 3 A(d-1)

Winograd (8 pre-additions with a 2-chain (S2 then S4 / T2 then T4),
7 parallel products, 15 post-additions with a 3-chain through the U
terms)::

    T_1(d)   = 7 T_1(d-1) + 15 A(d-1)
    T_inf(d) = T_inf(d-1) + 5 A(d-1)

where ``A(d)`` is the streaming cost of one quadrant-sized addition at
recursion level ``d``.  Parallelism is ``T_1 / T_inf``.
"""

from __future__ import annotations

import dataclasses

from repro.runtime.cilk import CostModel

__all__ = ["WorkSpan", "work_span", "ALGORITHM_RECURRENCES"]


@dataclasses.dataclass(frozen=True)
class WorkSpan:
    """Work/span pair with derived parallelism."""

    work: float
    span: float

    @property
    def parallelism(self) -> float:
        """Average parallelism ``T_1 / T_inf``."""
        return self.work / self.span if self.span else float("inf")

    def speedup(self, p: int) -> float:
        """Greedy-scheduler speedup bound ``T_1 / (T_1/P + T_inf)``."""
        return self.work / (self.work / p + self.span)


#: Per-level recurrence terms per algorithm: ``products`` recursive
#: sub-multiplies, ``adds`` quadrant additions (pre and post together),
#: ``chain`` the longest dependence chain among those additions in units
#: of one quadrant addition, and ``phases`` the sequential rounds of
#: sub-multiplies on the span (standard accumulates into C in two).
ALGORITHM_RECURRENCES = {
    "standard": dict(products=8, adds=0, chain=0, phases=2),
    "standard_temps": dict(products=8, adds=8, chain=1, phases=1),
    "strassen": dict(products=7, adds=18, chain=3, phases=1),
    "winograd": dict(products=7, adds=15, chain=5, phases=1),
}


def work_span(
    algorithm: str,
    n: int,
    tile: int,
    cost_model: CostModel | None = None,
) -> WorkSpan:
    """Work/span of multiplying two n x n matrices with leaf tile ``tile``.

    ``n`` must be ``tile * 2^d``; use padded sizes.  The recursion depth
    is ``d``; leaves are dense ``tile^3`` multiplies.
    """
    cm = cost_model or CostModel()
    try:
        spec = ALGORITHM_RECURRENCES[algorithm]
    except KeyError:
        raise KeyError(
            f"unknown algorithm {algorithm!r}; known: {sorted(ALGORITHM_RECURRENCES)}"
        ) from None
    if n % tile:
        raise ValueError(f"n={n} not a multiple of tile={tile}")
    side = n // tile
    if side & (side - 1):
        raise ValueError(f"n/tile = {side} must be a power of two")
    d = side.bit_length() - 1

    leaf_mul = cm.multiply(tile, tile, tile)
    work = leaf_mul
    span = leaf_mul + cm.spawn
    for level in range(1, d + 1):
        half = tile << (level - 1)  # quadrant side at this level
        add_cost = cm.streamed(half * half)
        p = spec["products"]
        spawn_overhead = cm.spawn * (p + spec["adds"])
        work = p * work + spec["adds"] * add_cost + spawn_overhead
        span = (
            spec["phases"] * span
            + spec["chain"] * (add_cost + cm.spawn)
            + cm.spawn
        )
    return WorkSpan(work=work, span=span)
