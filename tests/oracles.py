"""Scalar reference oracles for the vectorized LRU engines.

These per-access Python walks used to be the engines' fallback for
adversarial traces; the engines now answer every trace with whole-array
passes, and the walks live here as independent ground truth.
"""

import numpy as np


def scalar_capped_hits(keys, idx, capacity):
    """Hit flags of a fully-associative LRU(capacity) at the accesses
    ``idx``, by one LRU-stack dict walk over the whole key stream."""
    keys = np.asarray(keys)
    flagged = np.zeros(keys.size, dtype=bool)
    flagged[idx] = True
    flags = flagged.tolist()
    out = np.zeros(keys.size, dtype=bool)
    stack: dict[int, None] = {}
    for k, key in enumerate(keys.tolist()):
        if key in stack:
            del stack[key]
            if flags[k]:
                out[k] = True
        elif len(stack) >= capacity:
            del stack[next(iter(stack))]
        stack[key] = None
    return out[idx]


def scalar_stack_distances(keys):
    """Exact per-access stack distances by one Fenwick-tree walk.

    A 1-bit marks the *latest* occurrence position of every key seen so
    far; the distinct count of the reuse window ``(p, i)`` is then the
    number of set bits in positions ``p+1 .. i-1``.  O(n log n).
    """
    keys = np.asarray(keys)
    n = keys.size
    sd = np.full(n, -1, dtype=np.int32)
    tree = [0] * (n + 1)
    last: dict[int, int] = {}

    def add(i: int, d: int) -> None:
        i += 1
        while i <= n:
            tree[i] += d
            i += i & -i

    def prefix(i: int) -> int:  # set bits at positions < i
        s = 0
        while i > 0:
            s += tree[i]
            i -= i & -i
        return s

    for i, key in enumerate(keys.tolist()):
        p = last.get(key, -1)
        if p >= 0:
            sd[i] = prefix(i) - prefix(p + 1)
            add(p, -1)
        add(i, 1)
        last[key] = i
    return sd


def scalar_set_stack_distances(lines, n_sets):
    """Within-set stack distances: one Fenwick walk per set."""
    lines = np.asarray(lines)
    sd = np.full(lines.size, -1, dtype=np.int32)
    sets = lines % n_sets
    for s in np.unique(sets):
        mask = sets == s
        sd[mask] = scalar_stack_distances(lines[mask])
    return sd


def exhaustive_plan_partition(m, k, n, trange=None):
    """Partition plan by trying every power-of-two block count in
    increasing total count through ``select_matmul_tiling``; the first
    candidate of least padded flop volume wins."""
    import itertools

    from repro.bits.util import ceil_div
    from repro.matrix.partition import PartitionPlan
    from repro.matrix.tile import InfeasibleTiling, TileRange, select_matmul_tiling

    trange = trange or TileRange()
    candidates = sorted(
        ((1 << em, 1 << ek, 1 << en)
         for em, ek, en in itertools.product(range(12), repeat=3)),
        key=lambda pkn: (pkn[0] * pkn[1] * pkn[2], pkn),
    )
    best = None
    best_cost = None
    for p_m, p_k, p_n in candidates:
        if p_m > m or p_k > k or p_n > n:
            continue
        bm, bk, bn = ceil_div(m, p_m), ceil_div(k, p_k), ceil_div(n, p_n)
        try:
            tiling = select_matmul_tiling(bm, bk, bn, trange)
        except InfeasibleTiling:
            continue
        pm, pk, pn = tiling.padded
        cost = (p_m * p_k * p_n) * 2 * pm * pk * pn
        if best is None or cost < best_cost:
            best = PartitionPlan(m, k, n, p_m, p_k, p_n, tiling)
            best_cost = cost
    if best is None:
        raise InfeasibleTiling(f"no partition of ({m}x{k})({k}x{n})")
    return best
