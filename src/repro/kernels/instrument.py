"""Lightweight global instrumentation counters.

The experiment drivers need honest accounting of work done: leaf-multiply
flops, streamed addition elements, copies, and leaf invocations.  The
kernels and quadrant ops report into a module-level :class:`Counters`
instance; measurement code brackets a region with :func:`collect`.

Counting is a few integer adds per *tile-level* operation (never per
element), so the overhead is negligible next to the numpy work.
"""

from __future__ import annotations

import contextlib
import dataclasses

__all__ = [
    "Counters",
    "counters",
    "reset",
    "collect",
    "count_leaf_multiply",
    "count_adds",
    "count_copies",
]


@dataclasses.dataclass
class Counters:
    """Accumulated operation counts for one measured region."""

    multiply_flops: int = 0
    leaf_multiplies: int = 0
    add_elements: int = 0
    copy_elements: int = 0

    def snapshot(self) -> "Counters":
        """A copy of the current totals."""
        return dataclasses.replace(self)

    def diff(self, earlier: "Counters") -> "Counters":
        """Counters accumulated since ``earlier``."""
        return Counters(
            multiply_flops=self.multiply_flops - earlier.multiply_flops,
            leaf_multiplies=self.leaf_multiplies - earlier.leaf_multiplies,
            add_elements=self.add_elements - earlier.add_elements,
            copy_elements=self.copy_elements - earlier.copy_elements,
        )

    @property
    def total_flops(self) -> int:
        """Multiply flops plus one flop per streamed addition element."""
        return self.multiply_flops + self.add_elements


#: The process-global counter instance.
counters = Counters()


def reset() -> None:
    """Zero the global counters."""
    counters.multiply_flops = 0
    counters.leaf_multiplies = 0
    counters.add_elements = 0
    counters.copy_elements = 0


@contextlib.contextmanager
def collect():
    """Context manager yielding the Counters accumulated inside the block."""
    before = counters.snapshot()
    result = Counters()
    yield result
    after = counters.snapshot().diff(before)
    result.multiply_flops = after.multiply_flops
    result.leaf_multiplies = after.leaf_multiplies
    result.add_elements = after.add_elements
    result.copy_elements = after.copy_elements


def count_leaf_multiply(m: int, k: int, n: int, count: int = 1) -> None:
    """Record ``count`` leaf tile multiplies of shape (m x k)(k x n)."""
    counters.multiply_flops += 2 * m * k * n * count
    counters.leaf_multiplies += count


def count_adds(elements: int) -> None:
    """Record a streamed addition/subtraction/scale over ``elements``."""
    counters.add_elements += elements


def count_copies(elements: int) -> None:
    """Record a copy of ``elements``."""
    counters.copy_elements += elements
