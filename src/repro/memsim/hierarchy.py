"""Multi-level memory-hierarchy simulation with a cycle cost model.

Runs a line-granularity byte-address trace through L1 -> L2 (direct-
mapped on the modelled UltraSPARC, set-associative on the modern
profile — both served by exact vectorized engines) and a fully-
associative LRU TLB, then prices the run:

    cycles = accesses * l1_hit + l1_misses * l2_hit
             + l2_misses * mem + tlb_misses * tlb_miss

The absolute numbers are a model, but the *differences* across layouts
and matrix sizes — conflict-miss swings of canonical layouts, the tile-
size capacity cliff, the insensitivity of recursive layouts — are the
trace-determined phenomena the paper measures.

Two entry points:

* :func:`simulate_hierarchy` — one-shot, the whole trace in memory.
* :class:`HierarchySimulator` / :func:`simulate_hierarchy_chunked` —
  incremental feeding of trace chunks with *exact* state carry: at each
  chunk boundary every cache level's LRU state (the per-set stacks) is
  extracted vectorized and replayed as a warm-up prefix of the next
  chunk, so chunked results are bit-identical to one-shot while memory
  stays bounded by the chunk size.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro import obs
from repro.clock import raw_perf_counter
from repro.memsim.cache import simulate_direct_mapped
from repro.memsim.engines import (
    lru_hit_mask,
    prev_occurrence,
    set_associative_miss_lines,
    simulate_set_associative,
    stable_argsort_bounded,
)
from repro.memsim.machine import CacheGeometry, MachineModel

__all__ = [
    "MemoryStats",
    "simulate_hierarchy",
    "simulate_hierarchy_multi",
    "HierarchySimulator",
    "simulate_hierarchy_chunked",
]


@dataclasses.dataclass(frozen=True)
class MemoryStats:
    """Outcome of one trace simulation."""

    accesses: int
    l1_misses: int
    l2_misses: int
    tlb_misses: int
    cycles: float

    @property
    def l1_miss_rate(self) -> float:
        """L1 misses per access."""
        return self.l1_misses / self.accesses if self.accesses else 0.0

    @property
    def l2_miss_rate(self) -> float:
        """L2 misses per L1 miss."""
        return self.l2_misses / self.l1_misses if self.l1_misses else 0.0

    @property
    def cpa(self) -> float:
        """Cycles per access — the headline cost figure."""
        return self.cycles / self.accesses if self.accesses else 0.0

    def publish(self, prefix: str = "memsim") -> None:
        """Publish this simulation into the obs metrics registry (gated)."""
        obs.add(f"{prefix}.simulations")
        obs.add(f"{prefix}.accesses", self.accesses)
        obs.add(f"{prefix}.l1_misses", self.l1_misses)
        obs.add(f"{prefix}.l2_misses", self.l2_misses)
        obs.add(f"{prefix}.tlb_misses", self.tlb_misses)
        obs.observe(f"{prefix}.l1_miss_rate", self.l1_miss_rate)
        obs.observe(f"{prefix}.cycles_per_access", self.cpa)


def _dedup_consecutive(values: np.ndarray) -> np.ndarray:
    """Drop consecutive repeats (they can never miss an LRU cache and
    do not change its state)."""
    if values.size == 0:
        return values
    keep = np.empty(values.size, dtype=bool)
    keep[0] = True
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


def _tlb_misses(addresses: np.ndarray, machine: MachineModel) -> int:
    """Fully-associative LRU TLB misses over the page-id stream."""
    if addresses.size == 0 or machine.tlb_entries <= 0:
        return 0
    pages = _dedup_consecutive(addresses // machine.page)
    return int((~lru_hit_mask(pages, machine.tlb_entries)).sum())


def simulate_hierarchy(
    addresses: np.ndarray,
    machine: MachineModel,
    include_tlb: bool = True,
) -> MemoryStats:
    """Price a byte-address trace on the machine model."""
    addresses = np.asarray(addresses, dtype=np.int64)
    n = int(addresses.size)
    if n == 0:
        return MemoryStats(0, 0, 0, 0, 0.0)
    t0 = raw_perf_counter() if obs.enabled() else 0.0
    if machine.l1.assoc == 1:
        l1_miss_mask = simulate_direct_mapped(addresses, machine.l1)
    else:
        l1_miss_mask = simulate_set_associative(addresses, machine.l1)
    l1_misses = int(l1_miss_mask.sum())
    l2_stream = addresses[l1_miss_mask]
    if machine.l2.assoc == 1:
        l2_misses = int(simulate_direct_mapped(l2_stream, machine.l2).sum())
    else:
        l2_misses = int(simulate_set_associative(l2_stream, machine.l2).sum())
    tlb_misses = _tlb_misses(addresses, machine) if include_tlb else 0
    cycles = (
        n * machine.l1_hit
        + l1_misses * machine.l2_hit
        + l2_misses * machine.mem
        + tlb_misses * machine.tlb_miss
    )
    if obs.enabled():
        elapsed = raw_perf_counter() - t0
        if elapsed > 0:
            obs.gauge("memsim.events_per_sec", n / elapsed)
        obs.observe("memsim.simulate_seconds", elapsed)
    return MemoryStats(n, l1_misses, l2_misses, tlb_misses, cycles)


def simulate_hierarchy_multi(
    addresses: np.ndarray,
    machines: list[MachineModel],
    include_tlb: bool = True,
) -> list[MemoryStats]:
    """Price one trace on many machine models, amortizing the work.

    Machines are grouped by config family
    (:class:`~repro.memsim.multiconfig.ConfigFamily`) and each family
    pays one reuse-distance profile build; every member then answers by
    histogram suffix-sums — bit-identical to calling
    :func:`simulate_hierarchy` per machine.
    """
    # Late import: multiconfig builds on this module's MemoryStats.
    from repro.memsim import multiconfig

    profiles: dict[multiconfig.ConfigFamily, multiconfig.ReuseProfile] = {}
    for machine in machines:
        family = multiconfig.ConfigFamily.of(machine)
        prof = profiles.get(family)
        if prof is None or not prof.supports(machine):
            # One build serves the whole family: precompute L2 histograms
            # for every L1 associativity appearing in it.
            extra = {
                m.l1.assoc
                for m in machines
                if multiconfig.ConfigFamily.of(m) == family
            }
            profiles[family] = multiconfig.build_profile(
                addresses, machine, extra_assocs=extra
            )
    return [
        profiles[multiconfig.ConfigFamily.of(m)].query(m, include_tlb=include_tlb)
        for m in machines
    ]


def _lru_state_lines(lines: np.ndarray, n_sets: int, assoc: int) -> np.ndarray:
    """Extract an LRU cache's final state from the stream that produced
    it (cold start), as a line-id sequence whose replay into a cold
    cache reconstructs the state exactly.

    The state of each set is its ``assoc`` most recently used distinct
    lines; replaying them oldest-first re-creates both contents and
    recency order, and causes no evictions (at most ``assoc`` distinct
    lines land in each set).
    """
    if lines.size == 0:
        return lines[:0]
    # Last occurrence of each distinct line == first touch of the
    # reversed stream.
    prev_rev = prev_occurrence(lines[::-1])
    pos_last = (lines.size - 1 - np.flatnonzero(prev_rev == -1))[::-1]
    last_lines = lines[pos_last]  # distinct lines, ascending recency
    if n_sets == 1:
        return last_lines[-assoc:] if assoc < last_lines.size else last_lines
    sets = last_lines % n_sets
    # Stable sort by set keeps each set's lines in ascending recency;
    # interleaving across sets is irrelevant (sets are independent).
    order = stable_argsort_bounded(sets)
    s_sorted = sets[order]
    l_sorted = last_lines[order]
    counts = np.bincount(s_sorted.astype(np.int64), minlength=n_sets)
    ends = np.cumsum(counts)
    from_right = ends[s_sorted] - 1 - np.arange(l_sorted.size)
    return l_sorted[from_right < assoc]


class _CacheChunkSim:
    """One cache level fed line-id chunks, carrying exact LRU state."""

    def __init__(self, geom: CacheGeometry):
        self.geom = geom
        self._state = np.zeros(0, dtype=np.int64)

    def feed(self, lines: np.ndarray) -> np.ndarray:
        """Miss mask for this chunk, given all chunks fed before."""
        geom = self.geom
        full = np.concatenate([self._state, lines]) if self._state.size else lines
        if geom.assoc == 1:
            miss = simulate_direct_mapped(full * geom.line, geom)
        else:
            miss = set_associative_miss_lines(full, geom.n_sets, geom.assoc)
        self._state = _lru_state_lines(full, geom.n_sets, geom.assoc)
        return miss[full.size - lines.size :]


class _TlbChunkSim:
    """Fully-associative TLB fed address chunks, carrying exact state."""

    def __init__(self, machine: MachineModel):
        self.machine = machine
        self._state = np.zeros(0, dtype=np.int64)
        self._last_page: int | None = None

    def feed(self, addresses: np.ndarray) -> int:
        pages = _dedup_consecutive(addresses // self.machine.page)
        if pages.size and self._last_page is not None and pages[0] == self._last_page:
            pages = pages[1:]
        if pages.size == 0:
            return 0
        self._last_page = int(pages[-1])
        full = np.concatenate([self._state, pages]) if self._state.size else pages
        hits = lru_hit_mask(full, self.machine.tlb_entries)
        misses = int((~hits[full.size - pages.size :]).sum())
        self._state = _lru_state_lines(full, 1, self.machine.tlb_entries)
        return misses


class HierarchySimulator:
    """Incremental, exact hierarchy simulation over trace chunks.

    Feed byte-address chunks in trace order; results are bit-identical
    to :func:`simulate_hierarchy` on the concatenated trace, while peak
    memory is bounded by the largest chunk (plus cache-sized state).
    """

    def __init__(self, machine: MachineModel, include_tlb: bool = True):
        self.machine = machine
        self._l1 = _CacheChunkSim(machine.l1)
        self._l2 = _CacheChunkSim(machine.l2)
        self._tlb = (
            _TlbChunkSim(machine)
            if include_tlb and machine.tlb_entries > 0
            else None
        )
        self._accesses = 0
        self._l1_misses = 0
        self._l2_misses = 0
        self._tlb_misses = 0

    def feed(self, addresses: np.ndarray) -> None:
        """Consume the next chunk of the trace."""
        addresses = np.asarray(addresses, dtype=np.int64)
        if addresses.size == 0:
            return
        with obs.span("memsim.feed", chunk=int(addresses.size)):
            obs.add("memsim.chunks_fed")
            obs.add("memsim.chunk_accesses", int(addresses.size))
            self._accesses += int(addresses.size)
            l1_miss_mask = self._l1.feed(addresses // self.machine.l1.line)
            self._l1_misses += int(l1_miss_mask.sum())
            l2_stream = addresses[l1_miss_mask]
            if l2_stream.size:
                l2_miss_mask = self._l2.feed(l2_stream // self.machine.l2.line)
                self._l2_misses += int(l2_miss_mask.sum())
            if self._tlb is not None:
                self._tlb_misses += self._tlb.feed(addresses)

    def stats(self) -> MemoryStats:
        """Statistics over everything fed so far."""
        machine = self.machine
        cycles = (
            self._accesses * machine.l1_hit
            + self._l1_misses * machine.l2_hit
            + self._l2_misses * machine.mem
            + self._tlb_misses * machine.tlb_miss
        )
        return MemoryStats(
            self._accesses,
            self._l1_misses,
            self._l2_misses,
            self._tlb_misses,
            cycles,
        )


def simulate_hierarchy_chunked(
    chunks,
    machine: MachineModel,
    include_tlb: bool = True,
) -> MemoryStats:
    """Price a trace delivered as an iterable of byte-address chunks.

    Exactly equivalent to concatenating the chunks and calling
    :func:`simulate_hierarchy`, without ever materializing the full
    trace.
    """
    sim = HierarchySimulator(machine, include_tlb=include_tlb)
    for chunk in chunks:
        sim.feed(chunk)
    return sim.stats()
