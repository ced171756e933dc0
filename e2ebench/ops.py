"""Seeded operation lists, one generator per workload.

Each generator is a pure function of ``(seed, seconds, smoke)``: the same
arguments give the same list, and the program under test only ever sees
the generated inputs.  The amount of work is fixed from ``seconds`` with
nominal per-operation costs measured at the commit that introduced the
benchmark (2-CPU x86-64 container), so a faster program finishes the
same work sooner and ``wall_s`` shows the gain.

The lists are stratified rather than drawn independently, so that runs
with different seeds do the same *kind* and amount of work and differ
only in which concrete shapes and configurations they touch.
"""

from __future__ import annotations

import random

ALGORITHMS = ("standard", "strassen", "winograd")
LAYOUTS = ("LC", "LU", "LX", "LZ", "LG", "LH")
RECURSIVE_LAYOUTS = LAYOUTS[1:]

# -- sim_cold ----------------------------------------------------------

#: Seconds one cold fig6sim point at n=250 took at the baseline.
COLD_POINT_S = 30.0
COLD_N, COLD_TILE = 250, 16
SMOKE_COLD_N, SMOKE_COLD_TILE = 32, 8
#: The sampled points all run one algorithm: a cold point's peak memory
#: differs by about a fifth between algorithms (winograd over standard),
#: which would make ``peak_rss_mb`` depend on the seed's draw.
COLD_ALGORITHM = "standard"


def cold_ops(seed: int, seconds: float, smoke: bool = False) -> dict:
    """The fig6sim points to run cold, plus the fig6ms grid parameters.

    The sample always holds the L_C point and at least one recursive
    layout; it has as many points as fit ``seconds`` at the baseline
    cost, and never fewer than two.
    """
    rng = random.Random(f"sim_cold:{seed}")
    size = min(len(LAYOUTS), max(2, round(seconds / COLD_POINT_S)))
    n, tile = (SMOKE_COLD_N, SMOKE_COLD_TILE) if smoke else (COLD_N, COLD_TILE)
    points = [
        {"algorithm": COLD_ALGORITHM, "layout": lay, "n": n, "tile": tile}
        for lay in ["LC", *rng.sample(RECURSIVE_LAYOUTS, size - 1)]
    ]
    # The default fig6ms grid (smoke: a smaller n, same grid shape).
    fig6ms = {"n": 16, "tile": 4} if smoke else {}
    return {"points": points, "fig6ms": fig6ms}


# -- sim_explore -------------------------------------------------------

#: Milliseconds one served fig6ms request took at the baseline.
EXPLORE_REQUEST_MS = 12.0
#: Share of requests that repeat an earlier request verbatim.
REPEAT_SHARE = 0.1
L1_ASSOCS = (1, 2, 4, 8)  # the profile's canonical associativities
L2_ASSOCS = (1, 2, 4, 8, 16)
TLB_ENTRIES = (4, 8, 16, 32, 64, 128)
#: Every (|l1|, |l2|, |tlb|) axis-length combination a fresh request can
#: have; each block of fresh requests uses each once, so the number of
#: machine configurations served is the same for every seed.  Full axes
#: are left out: they admit too few distinct subsets to stay fresh.
SIZE_COMBOS = [(a, b, c) for a in range(1, len(L1_ASSOCS))
               for b in range(1, len(L2_ASSOCS)) for c in range(1, len(TLB_ENTRIES))]


def explore_ops(seed: int, seconds: float, smoke: bool = False) -> list[dict]:
    """Machine-axis params of each fig6ms request, in send order.

    Exactly ``round(REPEAT_SHARE * count)`` requests repeat an earlier
    one verbatim (``repeat_of`` names it); every other request differs
    from all before it.
    """
    rng = random.Random(f"sim_explore:{seed}")
    count = 30 if smoke else max(150, round(seconds * 1000 / EXPLORE_REQUEST_MS))
    repeats = set(rng.sample(range(1, count), round(REPEAT_SHARE * count)))
    sizes: list[tuple[int, int, int]] = []
    while len(sizes) < count:
        block = list(SIZE_COMBOS)
        rng.shuffle(block)
        sizes.extend(block)
    seen: set[str] = set()
    ops: list[dict] = []
    for i in range(count):
        if i in repeats:
            src = rng.randrange(i)
            ops.append({"params": ops[src]["params"], "repeat_of": src})
            continue
        a, b, c = sizes.pop()
        while True:
            params = {
                "l1_assocs": sorted(rng.sample(L1_ASSOCS, a)),
                "l2_assocs": sorted(rng.sample(L2_ASSOCS, b)),
                "tlb_entries": sorted(rng.sample(TLB_ENTRIES, c)),
            }
            key = repr(sorted(params.items()))
            if key not in seen:
                break
        seen.add(key)
        ops.append({"params": params, "repeat_of": None})
    return ops


# -- multiply ----------------------------------------------------------

#: Milliseconds one dgemm call of the mix took at the baseline.
MULTIPLY_CALL_MS = 85.0
N_RANGE = (128, 512)
SMOKE_N_RANGE = (24, 64)
#: dgemm recurses three levels up to n=256 and four above it, and a call's
#: latency steps by about five times there.  Half the size strata lie on
#: each side, so the two cost clusters hold fixed shares of the calls and
#: no latency percentile sits on the step between them.
DEPTH_STEP_N = 256
#: The shapes of one size stratum, smallest first.  Each shape serves all
#: three algorithms in one layout, close together, so conversions run
#: first-touch once and then warm.  Wide/lean shapes take the partition
#: path (long side inside, or outside); transposed operands take the
#: fused-transpose conversion.
STRATUM_KINDS = ("square", "square", "lean_inner", "transposed", "square",
                 "lean_outer")
#: Long side over short side of the wide/lean shapes.  Fixed, because the
#: partition plan (and the cost) jumps with it.
LEAN_RATIO = 3


def _shape(rng: random.Random, kind: str, big: int) -> dict:
    op_a, op_b = ("N", "N")
    if kind == "transposed":
        op_a, op_b = rng.choice([("T", "N"), ("N", "T"), ("T", "T")])
    if kind.startswith("lean"):
        small = big // LEAN_RATIO
        m, k, n = (small, big, small) if kind == "lean_inner" else (big, small, big)
        return {"m": m, "k": k, "n": n, "op_a": op_a, "op_b": op_b}
    return {"m": big, "k": big, "n": big, "op_a": op_a, "op_b": op_b}


def multiply_ops(seed: int, seconds: float, smoke: bool = False) -> list[dict]:
    """dgemm calls over a fixed stratified set of shapes: ``rounds`` size
    strata of ``N_RANGE`` (equal-width on each side of ``DEPTH_STEP_N``),
    six shapes per stratum at evenly spaced sizes, the largest at the top
    of the range.  Every (algorithm, layout) pair gets one shape of each
    stratum, and every layout the same kind mix on each side of the step,
    so all seeds do the same work.  The seed decides which layout gets
    which shape, the transposed operands, and the order of the calls.
    """
    rng = random.Random(f"multiply:{seed}")
    per_round = len(ALGORITHMS) * len(LAYOUTS)
    rounds = 1 if smoke else max(6, round(seconds * 1000 / MULTIPLY_CALL_MS / per_round))
    lo, hi = SMOKE_N_RANGE if smoke else N_RANGE
    step = (lo + hi) // 2 if smoke else DEPTH_STEP_N
    below = rounds // 2
    slots = len(STRATUM_KINDS)
    strata = []
    for start, stop, count in ((lo, step, below), (step, hi, rounds - below)):
        if not count:
            continue
        layouts = list(LAYOUTS)
        rng.shuffle(layouts)
        width = (stop - start) / (count * slots)
        for index in range(count):
            sizes = [round(start + (index * slots + slot + 1) * width)
                     for slot in range(slots)]
            # Rotating the slots over the layouts gives every layout two
            # square-like and one lean shape per three strata.
            strata.append([(layout, STRATUM_KINDS[slot], sizes[slot])
                           for j, layout in enumerate(layouts)
                           for slot in [(j + 2 * index) % slots]])
    rng.shuffle(strata)
    calls = []
    for stratum in strata:
        block = []
        for layout, kind, big in stratum:
            shape = {**_shape(rng, kind, big), "shape_id": len(calls) + len(block)}
            block.extend({"algorithm": a, "layout": layout, **shape}
                         for a in ALGORITHMS)
        rng.shuffle(block)
        calls.extend(block)
    return calls
