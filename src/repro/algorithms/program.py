"""Level programs: one recursion level of a quadrant algorithm, as data.

The paper defines Strassen and Winograd (Figure 1(b), 1(c)) as one
recursion level of pre-additions on the quadrants of A and B, seven
recursive products, and post-additions into the quadrants of C.  Each
algorithm is declared here once, as a :class:`LevelProgram`, together
with the standard algorithm's Figure 1(a) form (``mode="temps"``: eight
products into temporaries, then four two-term additions).  Everything
else derives from these tables:

* :func:`run_level` interprets a program as one depth-first level, the
  paper's Cilk program (:func:`recurse` runs it down to the leaves):
  the recursive algorithms, the hybrid, the executed tracer, the trace
  synthesizer and the static race verifier all run it;
* :func:`level_blocks` lists a level's spawn blocks, from which
  :mod:`repro.algorithms.opcount` counts operations and
  :mod:`repro.runtime.critical` solves the work/span recurrences;
* :mod:`repro.algorithms.levelsync` runs the seven-product programs
  breadth-first for wall-clock ``dgemm``.

Steps that depend on no earlier step of their phase are spawned
together; a step that reads a temporary another step writes waits for
the next spawn block (a *wave*).  Waves keep program order.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Callable, NamedTuple, Sequence, TypeVar

from repro.algorithms.recursion import Context, combine, leaf_multiply, stream_add
from repro.matrix.tiledmatrix import MatrixView

__all__ = [
    "Block",
    "FAST_PROGRAMS",
    "LevelProgram",
    "PROGRAMS",
    "STANDARD_TEMPS",
    "STRASSEN",
    "WINOGRAD",
    "level_blocks",
    "recurse",
    "run_level",
]

PreStep = tuple[str, str, str, bool]
PostStep = tuple[str, tuple[str, ...], tuple[int, ...]]
ProductRecursion = Callable[[Context, MatrixView, MatrixView, MatrixView, bool], None]
Step = TypeVar("Step", PreStep, PostStep)

_QUADRANTS = tuple(f"{m}{i}{j}" for m in "cab" for i in (1, 2) for j in (1, 2))


class Block(NamedTuple):
    """One spawn...sync block of a level: ``products`` recursive
    sub-products, plus one streamed task per entry of ``passes`` (its
    number of quadrant-sized streamed passes)."""

    products: int = 0
    passes: tuple[int, ...] = ()


def _waves(steps: tuple[Step, ...],
           reads: Callable[[Step], Sequence[str]]) -> tuple[tuple[Step, ...], ...]:
    """Group ``steps`` (each ``(dst, ...)``) by dependency depth, keeping
    program order within a wave."""
    depth: dict[str, int] = {}
    waves: list[list[Step]] = []
    for step in steps:
        k = max((depth[x] + 1 for x in reads(step) if x in depth), default=0)
        depth[step[0]] = k
        if k == len(waves):
            waves.append([])
        waves[k].append(step)
    return tuple(tuple(w) for w in waves)


def _post_passes(dst: str, terms: tuple[str, ...], accumulate: bool) -> int:
    """Streamed passes of one post step (see ``combine``)."""
    if not dst.startswith("c"):
        return 1
    return len(terms) if accumulate else max(1, len(terms) - 1)


@dataclasses.dataclass(frozen=True)
class LevelProgram:
    """One recursion level of a quadrant algorithm.

    ``pre`` steps ``(dst, x, y, subtract)`` stream ``dst = x ± y`` into
    a fresh quadrant temporary; ``products[p] = (x, y)`` is product
    ``p{p+1} = x . y``, computed into a fresh ``C``-quadrant temporary;
    ``post`` steps ``(dst, terms, signs)`` either combine into a C
    quadrant (``dst`` is ``c11``..``c22``, the semantics of
    :func:`repro.algorithms.recursion.combine`) or stream
    ``dst = terms[0] ± terms[1]`` into a fresh temporary.  Operand names
    are the quadrants ``a11``..``b22``, earlier temporaries (whose names
    must not start with ``a``, ``b`` or ``c``), and the products
    ``p1``..``pN``.
    """

    pre: tuple[PreStep, ...]
    products: tuple[tuple[str, str], ...]
    post: tuple[PostStep, ...]

    @functools.cached_property
    def pre_temporaries(self) -> tuple[tuple[str, str], ...]:
        """``(name, like)`` per pre-addition temporary, in name order:
        each is allocated like ``a11`` or ``b11``, the quadrant its
        first operand descends from."""
        like: dict[str, str] = {}
        for dst, x, _, _ in self.pre:
            like[dst] = like.get(x, f"{x[0]}11")
        return tuple(sorted(like.items()))

    @functools.cached_property
    def post_temporaries(self) -> tuple[str, ...]:
        """Post-addition temporaries (non-C destinations), in name order."""
        return tuple(sorted(dst for dst, _, _ in self.post if not dst.startswith("c")))

    @functools.cached_property
    def pre_waves(self) -> tuple[tuple[PreStep, ...], ...]:
        """Pre-addition spawn blocks."""
        return _waves(self.pre, lambda s: s[1:3])

    @functools.cached_property
    def post_waves(self) -> tuple[tuple[PostStep, ...], ...]:
        """Post-addition spawn blocks."""
        return _waves(self.post, lambda s: s[1])

    def blocks(self, accumulate: bool = False) -> tuple[Block, ...]:
        """Spawn blocks of one level; ``accumulate`` is the level's own
        flag (its products always overwrite)."""
        return (
            *(Block(passes=(1,) * len(w)) for w in self.pre_waves),
            Block(products=len(self.products)),
            *(
                Block(passes=tuple(_post_passes(d, t, accumulate) for d, t, _ in w))
                for w in self.post_waves
            ),
        )


# S3 is A11 + A12: the paper's Figure 1(b) prints A11 - A12, which
# leaves a spurious 2 A12 B22 term in C11; the tests check every
# program against dense numpy products.
STRASSEN = LevelProgram(
    pre=(
        ("s1", "a11", "a22", False),
        ("s2", "a21", "a22", False),
        ("s3", "a11", "a12", False),
        ("s4", "a21", "a11", True),
        ("s5", "a12", "a22", True),
        ("t1", "b11", "b22", False),
        ("t2", "b12", "b22", True),
        ("t3", "b21", "b11", True),
        ("t4", "b11", "b12", False),
        ("t5", "b21", "b22", False),
    ),
    products=(
        ("s1", "t1"),
        ("s2", "b11"),
        ("a11", "t2"),
        ("a22", "t3"),
        ("s3", "b22"),
        ("s4", "t4"),
        ("s5", "t5"),
    ),
    post=(
        ("c11", ("p1", "p4", "p5", "p7"), (1, 1, -1, 1)),
        ("c21", ("p2", "p4"), (1, 1)),
        ("c12", ("p3", "p5"), (1, 1)),
        ("c22", ("p1", "p3", "p2", "p6"), (1, 1, -1, 1)),
    ),
)

# The S/T chains (S1 -> S2 -> S4, T1 -> T2 -> T4) and the U chain
# (U2 -> U3 -> C21, C22) share subexpressions: three waves each side.
WINOGRAD = LevelProgram(
    pre=(
        ("s1", "a21", "a22", False),
        ("s3", "a11", "a21", True),
        ("t1", "b12", "b11", True),
        ("t3", "b22", "b12", True),
        ("s2", "s1", "a11", True),
        ("t2", "b22", "t1", True),
        ("s4", "a12", "s2", True),
        ("t4", "b21", "t2", True),
    ),
    products=(
        ("a11", "b11"),
        ("a12", "b21"),
        ("s1", "t1"),
        ("s2", "t2"),
        ("s3", "t3"),
        ("s4", "b22"),
        ("a22", "t4"),
    ),
    post=(
        ("c11", ("p1", "p2"), (1, 1)),
        ("u2", ("p1", "p4"), (1, 1)),
        ("u3", ("u2", "p5"), (1, 1)),
        ("u6", ("u2", "p3"), (1, 1)),
        ("c21", ("u3", "p7"), (1, 1)),
        ("c22", ("u3", "p3"), (1, 1)),
        ("c12", ("u6", "p6"), (1, 1)),
    ),
)

STANDARD_TEMPS = LevelProgram(
    pre=(),
    products=(
        ("a11", "b11"),
        ("a12", "b21"),
        ("a21", "b11"),
        ("a22", "b21"),
        ("a11", "b12"),
        ("a12", "b22"),
        ("a21", "b12"),
        ("a22", "b22"),
    ),
    post=(
        ("c11", ("p1", "p2"), (1, 1)),
        ("c21", ("p3", "p4"), (1, 1)),
        ("c12", ("p5", "p6"), (1, 1)),
        ("c22", ("p7", "p8"), (1, 1)),
    ),
)

#: The seven-product algorithms (``dgemm`` names, hybrid fast levels).
FAST_PROGRAMS = {"strassen": STRASSEN, "winograd": WINOGRAD}
#: Every level program; ``standard_temps`` is standard's ``mode="temps"``.
PROGRAMS = {**FAST_PROGRAMS, "standard_temps": STANDARD_TEMPS}


def level_blocks(algorithm: str, accumulate: bool = False) -> tuple[Block, ...]:
    """Spawn blocks of one level of ``algorithm``: a :data:`PROGRAMS`
    name, or ``standard`` (``mode="accumulate"``)."""
    if algorithm == "standard":
        # Two phases of four products straight into C, no additions.
        return (Block(products=4),) * 2
    try:
        return PROGRAMS[algorithm].blocks(accumulate)
    except KeyError:
        raise KeyError(
            f"unknown algorithm {algorithm!r}; known: {sorted(['standard', *PROGRAMS])}"
        ) from None


def _stream_task(ctx: Context, x: MatrixView, y: MatrixView, out: MatrixView,
              subtract: bool) -> Callable[[], object]:
    return lambda: stream_add(ctx, x, y, out, subtract=subtract)


def _product_task(recursion: ProductRecursion, ctx: Context, p: MatrixView,
                  x: MatrixView, y: MatrixView) -> Callable[[], None]:
    return lambda: recursion(ctx, p, x, y, False)


def _post_task(ctx: Context, env: dict[str, MatrixView], step: PostStep,
               accumulate: bool) -> Callable[[], object]:
    dst, terms, signs = step
    if dst.startswith("c"):
        views = [env[t] for t in terms]
        return lambda: combine(ctx, env[dst], views, signs, accumulate)
    return _stream_task(ctx, env[terms[0]], env[terms[1]], env[dst], signs[1] < 0)


def run_level(program: LevelProgram, ctx: Context, c: MatrixView, a: MatrixView,
              b: MatrixView, accumulate: bool, product_recursion: ProductRecursion) -> None:
    """One depth-first level of ``program``: ``C (+)= A . B`` with each
    product computed by ``product_recursion(ctx, p, x, y, False)`` into a
    fresh temporary (the hook the hybrid and the trace synthesizer use to
    choose the recursion below)."""
    env = dict(zip(_QUADRANTS, (*c.quadrants(), *a.quadrants(), *b.quadrants())))
    for name, like in program.pre_temporaries:
        env[name] = env[like].alloc_like()
    for wave in program.pre_waves:
        ctx.rt.spawn_all(
            [_stream_task(ctx, env[x], env[y], env[dst], sub) for dst, x, y, sub in wave]
        )
    ps = [env["c11"].alloc_like() for _ in program.products]
    ctx.rt.spawn_all(
        [
            _product_task(product_recursion, ctx, p, env[x], env[y])
            for p, (x, y) in zip(ps, program.products)
        ]
    )
    env.update((f"p{k + 1}", p) for k, p in enumerate(ps))
    for name in program.post_temporaries:
        env[name] = env["c11"].alloc_like()
    for wave in program.post_waves:
        ctx.rt.spawn_all([_post_task(ctx, env, step, accumulate) for step in wave])


def recurse(program: LevelProgram, ctx: Context, c: MatrixView, a: MatrixView,
            b: MatrixView, accumulate: bool) -> None:
    """``C (+)= A . B`` with every level run by ``program``."""
    if c.is_leaf:
        leaf_multiply(ctx, c, a, b, accumulate)
    else:
        run_level(program, ctx, c, a, b, accumulate, functools.partial(recurse, program))
