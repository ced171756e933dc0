"""Exact operation-count recurrences for the recursive algorithms.

Section 2 of the paper: Strassen performs 7 recursive products and 18
quadrant additions per level (O(n^{lg 7})), Winograd 7 products and 15
additions — the proven minimum for quadrant recursion.  The standard
algorithm performs 8 products; accumulating them straight into C
(``mode="accumulate"``) needs no additions, while the paper's Figure
1(a) form (``standard_temps``) adds 4 quadrant pairs per level.  Each
level's counts come from its spawn blocks
(:func:`repro.algorithms.program.level_blocks`): products, and
streamed quadrant passes.  These counters give exact totals for any
(padded) problem size and leaf tile, used by the experiment drivers to
convert measured times into achieved flop rates and to sanity-check the
instrumentation counters.
"""

from __future__ import annotations

import dataclasses

from repro.algorithms.program import Block, level_blocks

__all__ = ["OpCount", "op_count", "crossover_depth"]


def _counts(blocks: tuple[Block, ...]) -> tuple[int, int]:
    """(recursive products, streamed quadrant passes) of one level."""
    return sum(b.products for b in blocks), sum(sum(b.passes) for b in blocks)


@dataclasses.dataclass(frozen=True)
class OpCount:
    """Exact operation totals for one multiplication."""

    leaf_multiplies: int
    multiply_flops: int
    add_elements: int

    @property
    def total_flops(self) -> int:
        """Multiply-add flops plus streamed addition flops."""
        return self.multiply_flops + self.add_elements


def op_count(algorithm: str, n: int, tile: int, accumulate: bool = False) -> OpCount:
    """Exact counts for an ``n x n`` product recursing down to ``tile``.

    ``n`` must equal ``tile * 2^d`` (use padded sizes).  ``accumulate``
    selects dgemm beta=1 semantics at the *top level*: the four C
    quadrants are then read-modify-written instead of overwritten, which
    costs one extra streamed pass per post-addition chain (the per-level
    recurrences — the paper's 18/15/4 counts — assume overwrite).
    """
    products, adds = _counts(level_blocks(algorithm))
    top_adds = _counts(level_blocks(algorithm, accumulate))[1]
    if n % tile:
        raise ValueError(f"n={n} not a multiple of tile={tile}")
    side = n // tile
    if side & (side - 1):
        raise ValueError(f"n/tile = {side} must be a power of two")
    d = side.bit_length() - 1

    leaf_mults = 1
    add_elems = 0
    size = tile
    for level in range(d):
        # One level up: each current problem is a quadrant of size `size`.
        passes = top_adds if level == d - 1 else adds
        add_elems = products * add_elems + passes * size * size
        leaf_mults *= products
        size *= 2
    return OpCount(
        leaf_multiplies=leaf_mults,
        multiply_flops=leaf_mults * 2 * tile**3,
        add_elements=add_elems,
    )


def crossover_depth(tile: int) -> int:
    """Recursion depth beyond which Strassen does fewer flops than standard.

    Solves ``7^d (2 t^3) + adds < 8^d (2 t^3)`` numerically for the
    smallest d where Strassen's total flops dip below the standard
    algorithm's, for a given leaf tile size.
    """
    d = 1
    while d < 30:
        n = tile << d
        if op_count("strassen", n, tile).total_flops < op_count(
            "standard", n, tile
        ).total_flops:
            return d
        d += 1
    raise RuntimeError(f"no crossover found for tile={tile}")
