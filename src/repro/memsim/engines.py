"""Vectorized exact LRU engines (set-associative and fully-associative).

The scalar reference simulators (:class:`repro.memsim.cache.LRUCache`,
the ordered-dict LRU stacks previously inlined in ``hierarchy`` and
``classify``) cost 1-2 microseconds per access, which makes every
trace-driven sweep the bottleneck of the reproduction.  This module
provides one vectorized core that is *exact* — bit-identical miss masks
— and serves every associativity:

* **Fully-associative LRU of capacity C** (:func:`lru_hit_mask`): an
  access hits iff its LRU stack distance — the number of distinct keys
  touched since the previous access to the same key — is below C.
* **Set-associative LRU** (:func:`simulate_set_associative`): group the
  trace by set index with a stable counting sort; within the grouped
  stream every set's accesses are contiguous and in program order, a
  line's previous occurrence lies in its own set's segment, and the
  set-associative simulation *is* the fully-associative problem with
  capacity = assoc applied to the grouped stream.

The stack-distance decision is computed in four tiers, all exact:

1. **Sure hit.**  The window back to the previous occurrence of the key
   contains ``r = i - prev(i) - 1`` accesses; ``r`` bounds the distinct
   count from above, so ``r < C`` proves a hit.  O(1) per access.
2. **Lockstep chains.**  Loop-structured traces (tile sweeps, cyclic
   working sets — the streams matrix kernels emit) leave *runs* of
   consecutive undecided accesses whose windows slide in lockstep
   (``prev`` advances by one as the position does).  Along such a run
   the distinct count obeys the exact recurrence
   ``sd(i) = sd(i-1) + [prev(i-1) <= p] + [next(p) <= i-2] - 1``
   (``p = prev(i)``; the window gains access ``i-1``, loses the always
   -distinct access ``p``, and the unique access whose own previous
   occurrence is ``p`` becomes first-in-window if it lies inside), so
   one gather + prefix sum per run resolves every member from an exact
   count at the run's base.  This is what makes at-capacity thrashing
   patterns — the worst case for every bound — cheap.
3. **Bounds for isolated accesses.**  *Mid windows* (``w <= 8C``): any
   access ``j`` in the window with ``jump(j) = j - prev(j) >= 8C >=
   w-1`` first-touches its key inside the window and no two such share
   a key; one prefix sum of the indicator counts them; at least C ⇒
   miss.  *Long windows* (``w > 8C``): the distinct count is monotone
   under window extension, so the internal distinct count of any
   fully-contained block of a fixed time grid (length ``4C``) bounds it
   from below; per-block counts are one ``bincount`` pass.
4. **Exact residual.**  Whatever the bounds leave undecided (windows
   whose distinct count sits near C) is counted exactly.  The distinct
   count of window ``(p, i)`` is the number of its accesses whose key
   first appears inside it, i.e. ``#{p < j < i : prev(j) <= p}``.
   Small total window volumes gather the windows
   (:func:`_window_distinct` — padded two-dimensional gathers with
   reused buffers); large ones answer the same dominance counts for
   all windows at once with a wavelet matrix over ``prev``
   (:func:`_wavelet_distinct`), in a fixed number of whole-array
   passes whatever the window lengths.

Keys are grouped with a one- or two-pass 16-bit radix argsort
(:func:`stable_argsort_bounded`) because NumPy's stable sort is
radix — and therefore fast — only for 8/16-bit integers.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.memsim.machine import CacheGeometry

__all__ = [
    "stable_argsort_bounded",
    "prev_occurrence",
    "stack_distances",
    "set_stack_distances",
    "lru_hit_mask",
    "fully_associative_hits",
    "set_associative_miss_lines",
    "simulate_set_associative",
]

# Residual windows are resolved by gathering their contents; beyond this
# many gathered elements the wavelet dominance count is cheaper.
_RESIDUAL_BUDGET = 1 << 24

# Padded-window gathers process this many elements per chunk so buffers
# stay cache-warm and large allocations are reused, not re-faulted.
_CHUNK_VOLUME = 1 << 22



def stable_argsort_bounded(keys: np.ndarray) -> np.ndarray:
    """Stable argsort of non-negative integer keys.

    NumPy's ``kind="stable"`` argsort is a radix sort (fast) only for
    1/2-byte integers; for wider types it falls back to timsort, which
    costs ~10x more.  Keys within 16-bit range are cast down and sorted
    natively; wider bounded ranges get two stable 16-bit passes,
    composing to a stable order.
    """
    keys = np.asarray(keys)
    if keys.size == 0:
        return np.zeros(0, dtype=np.int64)
    hi = int(keys.max())
    if hi < 1 << 16:
        return np.argsort(keys.astype(np.uint16), kind="stable")
    if hi < 1 << 32:
        low = (keys & 0xFFFF).astype(np.uint16)
        order = np.argsort(low, kind="stable")
        high = (keys[order] >> 16).astype(np.uint16)
        return order[np.argsort(high, kind="stable")]
    return np.argsort(keys, kind="stable")


def prev_occurrence(keys: np.ndarray) -> np.ndarray:
    """Index of the previous access to the same key (-1 on first touch).

    ``keys`` may be any integer array; values are compressed to a
    non-negative range before the radix argsort.  The result is int32
    (traces are indexed well below 2**31).
    """
    keys = np.asarray(keys)
    n = keys.size
    if n == 0:
        return np.zeros(0, dtype=np.int32)
    lo = keys.min()
    if lo != 0:
        keys = keys - lo
    order = stable_argsort_bounded(keys)
    order32 = order.astype(np.int32)
    sorted_keys = keys[order]
    prev_sorted = np.empty(n, dtype=np.int32)
    prev_sorted[0] = -1
    same = sorted_keys[1:] == sorted_keys[:-1]
    prev_sorted[1:] = np.where(same, order32[:-1], -1)
    prev = np.empty(n, dtype=np.int32)
    prev[order] = prev_sorted
    return prev


def _window_distinct(prev: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Exact distinct-key counts of the reuse windows ``(prev[i], i)``.

    The stack distance of access ``i`` equals the number of ``j`` in
    the open interval ``(prev[i], i)`` with ``prev[j] <= prev[i]``
    (accesses whose key first appears inside the window).  Windows are
    grouped by length octave, padded to a rectangle, and counted with
    two-dimensional masked gathers into reused buffers — large fresh
    allocations fault pages at ~4x the cost of the arithmetic on this
    kind of box, so the buffers are allocated once per call.
    """
    n = prev.size
    m = idx.size
    out = np.zeros(m, dtype=np.int32)
    if m == 0:
        return out
    thr = prev[idx]
    starts = thr + np.int32(1)
    lens = (idx - starts).astype(np.int32)
    longest = int(lens.max())
    if longest <= 0:
        return out
    # Group windows of similar length (same octave) so padding wastes
    # at most 2x; octaves are tiny ints, so the argsort is radix.
    octave = np.frexp(np.maximum(lens, 1).astype(np.float64))[1].astype(np.int16)
    order = np.argsort(octave, kind="stable")
    volume = max(min(_CHUNK_VOLUME, m * longest), longest)
    buf_off = np.empty(volume, dtype=np.int32)
    buf_val = np.empty(volume, dtype=np.int32)
    buf_first = np.empty(volume, dtype=bool)
    buf_valid = np.empty(volume, dtype=bool)
    grouped_oct = octave[order]
    pos = 0
    while pos < m:
        end = pos + int(
            np.searchsorted(grouped_oct[pos:], grouped_oct[pos], side="right")
        )
        group = order[pos:end]
        pos = end
        width = int(lens[group].max())
        if width <= 0:
            continue  # zero-length windows: distinct count stays 0
        rows = max(1, volume // width)
        ar = np.arange(width, dtype=np.int32)
        for s in range(0, group.size, rows):
            g = group[s : s + rows]
            k = g.size
            off = buf_off[: k * width].reshape(k, width)
            val = buf_val[: k * width].reshape(k, width)
            first = buf_first[: k * width].reshape(k, width)
            valid = buf_valid[: k * width].reshape(k, width)
            np.add(starts[g][:, None], ar[None, :], out=off)
            np.minimum(off, np.int32(n - 1), out=off)
            np.take(prev, off, out=val)
            np.less_equal(val, thr[g][:, None], out=first)
            np.less(ar[None, :], lens[g][:, None], out=valid)
            np.logical_and(first, valid, out=first)
            out[g] = first.sum(axis=1, dtype=np.int32)
    return out


def _range_count_less(
    values: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    thresholds: np.ndarray,
) -> np.ndarray:
    """Offline range counts ``#{starts[q] <= j < ends[q] : values[j] <
    thresholds[q]}`` for every query ``q`` by one wavelet-matrix walk.

    A wavelet matrix (named for the 2015 Information Systems paper)
    stores one stable 0/1 partition of ``values`` per bit level, most
    significant first.  Every query descends the levels in lockstep: at each level
    its ``[s, e)`` range maps through the zero-rank to the zero or one
    half of the next level, following the threshold's bit, and a 1-bit
    adds the range's zero count (values that agree on the higher bits
    and are smaller here).  A level is one bit extract, one ``cumsum``
    rank, two gathers at the query endpoints and one stable partition —
    whole-array numpy passes, ``ceil(log2(max + 1))`` of them, and no
    per-element Python loop.  Empty ranges (``ends <= starts``) count 0.
    """
    values = np.asarray(values)
    starts = np.asarray(starts, dtype=np.intp)
    q = starts.size
    count = np.zeros(q, dtype=np.int64)
    n = values.size
    if q == 0 or n == 0:
        return count
    lo = int(values.min())
    top = int(values.max()) - lo
    x = np.clip(np.asarray(thresholds, dtype=np.int64) - lo, 0, top + 1)
    # Narrow dtypes halve the bytes every level's passes move.
    cur = (values - lo).astype(np.min_scalar_type(top + 1))
    s = starts.copy()
    e = np.maximum(np.asarray(ends, dtype=np.intp), s)
    buf = np.empty_like(cur)
    rank0 = np.zeros(n + 1, dtype=np.int32)
    for level in range((top + 1).bit_length() - 1, -1, -1):
        one = (cur & (1 << level)) != 0
        zero = ~one
        np.cumsum(zero, out=rank0[1:])
        n_zero = int(rank0[n])
        zs = rank0[s]
        ze = rank0[e]
        up = (x & (1 << level)) != 0
        count += np.where(up, ze - zs, 0)
        s = np.where(up, s - zs + n_zero, zs)
        e = np.where(up, e - ze + n_zero, ze)
        if level:
            np.compress(zero, cur, out=buf[:n_zero])
            np.compress(one, cur, out=buf[n_zero:])
            cur, buf = buf, cur
    return count


def _wavelet_distinct(prev: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Exact distinct-key counts of the reuse windows ``(prev[i], i)``
    as dominance counts, for any window volume.

    The window ``(p, i)`` holds one first-in-window access per distinct
    key: exactly the ``j`` in it with ``prev[j] <= p``.  That is a range
    "count values below a threshold" query answered for all windows at
    once by :func:`_range_count_less`.  The stream is first cut at every
    position no reuse window crosses (a suffix minimum of ``prev``);
    measured from its segment's start, a value needs only as many bits
    as the longest segment — a set-grouped stream's set segments — which
    shortens the level walk from ``log2(n)`` levels to ``log2`` of the
    segment length.
    """
    n = prev.size
    pos = np.arange(n, dtype=np.int32)
    reach = np.where(prev >= 0, prev, np.int32(n))
    uncrossed = np.minimum.accumulate(reach[::-1])[::-1] >= pos
    seg_start = np.maximum.accumulate(np.where(uncrossed, pos, 0))
    # First touches become 0, reuses 1 + their offset in the segment.
    local = np.maximum(prev - seg_start + 1, 0)
    thr = prev[idx]
    return _range_count_less(
        local, thr + 1, idx, thr - seg_start[idx] + 2
    ).astype(np.int32)


def _distinct_counts(prev: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Exact distinct-key counts of the reuse windows ending at ``idx``.

    Short total window volumes gather their windows
    (:func:`_window_distinct`, the faster path on small traces); past
    :data:`_RESIDUAL_BUDGET` gathered elements the wavelet dominance
    count (:func:`_wavelet_distinct`) answers them in a fixed number of
    whole-array passes.
    """
    volume = int((idx.astype(np.int64) - prev[idx] - 1).sum())
    if volume <= _RESIDUAL_BUDGET:
        return _window_distinct(prev, idx)
    obs.add("engines.wavelet_calls")
    obs.add("engines.wavelet_queries", int(idx.size))
    return _wavelet_distinct(prev, idx)


def stack_distances(keys: np.ndarray, prev: np.ndarray | None = None) -> np.ndarray:
    """Exact LRU stack distance of every access (-1 on first touch).

    The stack distance is the number of *distinct* keys accessed since
    the previous access to the same key; an access hits a
    fully-associative LRU of capacity ``C`` iff its distance is below
    ``C``, so one distance array answers every capacity at once
    (Mattson).  Reuses the engine's lockstep-chain machinery: only each
    chain's base pays a from-scratch :func:`_distinct_counts` count, and
    the members resolve by the exact sliding-window recurrence.
    """
    keys = np.asarray(keys)
    n = keys.size
    if n == 0:
        return np.zeros(0, dtype=np.int32)
    if prev is None:
        prev = prev_occurrence(keys)
    prev = prev.astype(np.int32, copy=False)
    sd = np.full(n, -1, dtype=np.int32)
    has_prev = prev >= 0
    und = np.flatnonzero(has_prev).astype(np.int32)
    if und.size == 0:
        return sd
    p_u = prev[und]
    chain = np.zeros(und.size, dtype=bool)
    if und.size > 1:
        chain[1:] = (np.diff(und) == 1) & (np.diff(p_u) == 1)
    bases = und[~chain]
    sd_bases = _distinct_counts(prev, bases)
    pos = np.arange(n, dtype=np.int32)
    nxt = np.full(n, np.iinfo(np.int32).max, dtype=np.int32)
    nxt[prev[has_prev]] = pos[has_prev]
    # sd(i) = sd(i-1) + [prev(i-1) <= p] + [next(p) <= i-2] - 1
    delta = (
        (prev[und - 1] <= p_u).astype(np.int32)
        + (nxt[p_u] <= und - 2).astype(np.int32)
        - 1
    )
    delta[~chain] = 0
    run_sums = np.cumsum(delta, dtype=np.int32)
    run_id = np.cumsum(~chain, dtype=np.int32)  # 1-based run number
    base_positions = np.flatnonzero(~chain)
    rel = run_sums - run_sums[base_positions][run_id - 1]
    sd[und] = sd_bases[run_id - 1] + rel
    return sd


def set_stack_distances(lines: np.ndarray, n_sets: int) -> np.ndarray:
    """Exact within-set stack distances of a line-id stream, in program
    order (-1 on first touch).

    The trace is grouped by set index with the stable counting sort
    (every set's accesses become contiguous and chronologically
    ordered, and a line's reuse window never leaves its own segment),
    so the grouped fully-associative distances *are* the per-set
    distances; an access misses a ``(n_sets, assoc)`` LRU cache iff
    ``sd < 0 or sd >= assoc`` — one array answers every associativity
    of the set family.
    """
    lines = np.asarray(lines)
    n = lines.size
    if n == 0:
        return np.zeros(0, dtype=np.int32)
    if n_sets == 1:
        return stack_distances(lines)
    sets = lines % n_sets
    order = stable_argsort_bounded(sets)
    grouped = lines[order]
    sd = np.empty(n, dtype=np.int32)
    sd[order] = stack_distances(grouped)
    return sd


def _lru_hit_core(prev: np.ndarray, capacity: int) -> np.ndarray:
    """Boolean hit mask of a fully-associative LRU(capacity) over a key
    stream, given its previous-occurrence chain."""
    n = prev.size
    if n == 0 or capacity <= 0:
        return np.zeros(n, dtype=bool)
    prev = prev.astype(np.int32, copy=False)
    pos = np.arange(n, dtype=np.int32)
    r = pos - prev - 1  # accesses inside the reuse window (junk for firsts)
    has_prev = prev >= 0
    # Tier 1: window shorter than the capacity -> certain hit.
    hits = has_prev & (r < capacity)
    und = np.flatnonzero(has_prev & (r >= capacity)).astype(np.int32)
    if und.size == 0:
        return hits
    p_u = prev[und]
    # Tier 2: lockstep chains.  Consecutive undecided accesses whose
    # windows slide in step admit an exact incremental recurrence; only
    # each run's base needs a from-scratch count.
    chain = np.zeros(und.size, dtype=bool)
    if und.size > 1:
        chain[1:] = (np.diff(und) == 1) & (np.diff(p_u) == 1)
    if int(np.count_nonzero(chain)) * 20 < und.size:
        # Chains are too sparse to pay for their prefix sums; treat the
        # whole undecided set as isolated.
        chain[:] = False
    if chain.any():
        run_id = np.cumsum(~chain, dtype=np.int32)  # 1-based run number
        run_len = np.bincount(run_id)
        in_run = run_len[run_id] >= 2
        base_mask = ~chain & in_run
        bases = und[base_mask]
        sd_bases = _distinct_counts(prev, bases)
        hits[bases] = sd_bases < capacity
        nxt = np.full(n, np.iinfo(np.int32).max, dtype=np.int32)
        nxt[prev[has_prev]] = pos[has_prev]
        # sd(i) = sd(i-1) + [prev(i-1) <= p] + [next(p) <= i-2] - 1
        delta = (
            (prev[und - 1] <= p_u).astype(np.int32)
            + (nxt[p_u] <= und - 2).astype(np.int32)
            - 1
        )
        delta[~chain] = 0
        run_sums = np.cumsum(delta, dtype=np.int32)
        base_positions = np.flatnonzero(~chain)
        sd_run_base = np.zeros(base_positions.size, dtype=np.int32)
        sd_run_base[run_len[1:] >= 2] = sd_bases
        rel = run_sums - run_sums[base_positions][run_id - 1]
        sd_members = sd_run_base[run_id - 1] + rel
        hits[und[chain]] = sd_members[chain] < capacity
        iso_mask = ~chain & ~in_run
        iso = und[iso_mask]
        p_i = p_u[iso_mask]
    else:
        iso = und
        p_i = p_u
    if iso.size == 0:
        return hits
    # Tier 3: cheap provable bounds for the isolated accesses.
    w_i = iso - p_i
    block = 4 * capacity
    mid = w_i <= 2 * block
    bound = np.zeros(iso.size, dtype=np.int32)
    if mid.any():
        # jump >= 8C >= w - 1: first-in-window, pairwise-distinct keys.
        jump = pos - prev
        jump[~has_prev] = np.iinfo(np.int32).max
        s = np.cumsum(jump >= 2 * block, dtype=np.int32)
        bound[mid] = s[iso[mid] - 1] - s[p_i[mid]]
    if not mid.all():
        # Fully-contained grid blocks bound long windows from below.
        blk = pos // block
        in_block_first = prev < blk * np.int32(block)
        blk_distinct = np.bincount(
            blk[in_block_first], minlength=int(blk[-1]) + 1
        ).astype(np.int32)
        sel = iso[~mid]
        p_l = p_i[~mid]
        b_first = p_l // block + 1
        b_last = sel // block - 1
        lower = blk_distinct[b_first]
        # The last block may touch p when i - p is an exact multiple of
        # the block length; only a block strictly past p is contained.
        ok_last = b_last * block > p_l
        lower = np.maximum(lower, np.where(ok_last, blk_distinct[b_last], 0))
        bound[~mid] = lower
    residual = iso[bound < capacity]
    if residual.size == 0:
        return hits
    # Tier 4: exact distinct counts for the undecided few.
    hits[residual] = _distinct_counts(prev, residual) < capacity
    return hits


def lru_hit_mask(keys: np.ndarray, capacity: int) -> np.ndarray:
    """Boolean hit mask of a fully-associative LRU cache over a key
    stream (keys may be line ids, page ids, ...)."""
    keys = np.asarray(keys)
    if keys.size == 0:
        return np.zeros(0, dtype=bool)
    return _lru_hit_core(prev_occurrence(keys), capacity)


def fully_associative_hits(keys: np.ndarray, capacity: int) -> np.ndarray:
    """Alias of :func:`lru_hit_mask` (name used by the 3C classifier)."""
    return lru_hit_mask(keys, capacity)


def set_associative_miss_lines(
    lines: np.ndarray, n_sets: int, assoc: int
) -> np.ndarray:
    """Boolean miss mask of an exact set-associative LRU cache over a
    *line-id* stream.

    Grouping the trace by set with a stable sort makes every set's
    accesses contiguous and chronologically ordered; a line's previous
    occurrence always falls in its own set's segment, so the grouped
    stream is simulated as one fully-associative LRU of capacity
    ``assoc`` and the mask is scattered back to program order.
    """
    lines = np.asarray(lines)
    n = lines.size
    if n == 0:
        return np.zeros(0, dtype=bool)
    if n_sets == 1:
        return ~lru_hit_mask(lines, assoc)
    sets = lines % n_sets
    order = stable_argsort_bounded(sets)
    grouped = lines[order]
    hits_grouped = lru_hit_mask(grouped, assoc)
    miss = np.empty(n, dtype=bool)
    miss[order] = ~hits_grouped
    return miss


def simulate_set_associative(addresses: np.ndarray, geom: CacheGeometry) -> np.ndarray:
    """Boolean miss mask of an exact set-associative LRU cache over a
    byte-address trace (see :func:`set_associative_miss_lines`)."""
    addresses = np.asarray(addresses, dtype=np.int64)
    if addresses.size == 0:
        return np.zeros(0, dtype=bool)
    return set_associative_miss_lines(addresses // geom.line, geom.n_sets, geom.assoc)
