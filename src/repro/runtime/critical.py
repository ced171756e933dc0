"""Analytic work/span recurrences for the three algorithms.

The paper (Section 5, "General comments") reports, via Cilk's critical-
path tracking, that at n = 1000 the standard algorithm has enough
parallelism to keep about 40 processors busy and the fast algorithms
about 23.  These recurrences compute work ``T_1`` and span ``T_inf``
under the runtime :class:`~repro.runtime.cilk.CostModel` for any depth,
without materializing the (enormous) DAG.

One recursion level is a sequence of spawn...sync blocks
(:func:`repro.algorithms.program.level_blocks`, derived from the
algorithm's level program).  A block spawns ``p`` recursive products
and streamed tasks of ``m_1, m_2, ...`` quadrant passes; each spawned
task costs ``s`` (``CostModel.spawn``) before it runs.  Summing the
blocks::

    T_1(d)   = sum_blocks  p (s + T_1(d-1)) + sum_k (s + m_k A(d-1))
    T_inf(d) = sum_blocks  s + max(T_inf(d-1) if p, max_k m_k A(d-1))

with ``T_1(0) = T_inf(0)`` one leaf multiply and ``A(d)`` the streaming
cost of one quadrant-sized pass at recursion level ``d``.  For the four
algorithms this gives:

=================  ==================================  ===============================
algorithm          T_1(d)                              T_inf(d)
=================  ==================================  ===============================
standard           8 T_1 + 8 s                         2 T_inf + 2 s
standard_temps     8 T_1 + 4 A + 12 s                  T_inf + A + 2 s
strassen           7 T_1 + 18 A + 21 s                 T_inf + 4 A + 3 s
winograd           7 T_1 + 15 A + 22 s                 T_inf + 6 A + 7 s
=================  ==================================  ===============================

Strassen's chain is one pre-addition wave then the three passes of the
C11/C22 combines; Winograd's is three pre-addition waves (S1, S2, S4)
and three post-addition waves (U2, U3, C21).  The recurrences equal the
SP tree that :class:`~repro.runtime.cilk.TraceRuntime` records with C
overwritten (``accumulate=False``), exactly.  Parallelism is
``T_1 / T_inf``.
"""

from __future__ import annotations

import dataclasses

from repro.runtime.cilk import CostModel

__all__ = ["WorkSpan", "work_span"]


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
    # Imported here: the algorithms import the runtime package.
    from repro.algorithms.program import level_blocks

    cm = cost_model or CostModel()
    blocks = level_blocks(algorithm)
    if n % tile:
        raise ValueError(f"n={n} not a multiple of tile={tile}")
    side = n // tile
    if side & (side - 1):
        raise ValueError(f"n/tile = {side} must be a power of two")
    d = side.bit_length() - 1

    work = span = cm.multiply(tile, tile, tile)
    for level in range(1, d + 1):
        half = tile << (level - 1)  # quadrant side at this level
        add_cost = cm.streamed(half * half)
        level_work = level_span = 0.0
        for block in blocks:
            streams = [m * add_cost for m in block.passes]
            level_work += (
                block.products * (cm.spawn + work)
                + len(streams) * cm.spawn
                + sum(streams)
            )
            longest = max(streams, default=0.0)
            level_span += cm.spawn + (max(span, longest) if block.products else longest)
        work, span = level_work, level_span
    return WorkSpan(work=work, span=span)
