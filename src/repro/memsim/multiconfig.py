"""One-pass multi-configuration cache simulation via reuse-distance profiles.

Every machine model in a sweep re-simulates the same machine-independent
address stream; Mattson's stack-distance observation collapses that work.
One vectorized pass (:func:`repro.memsim.engines.set_stack_distances`)
computes the exact per-access LRU stack distance of the stream, and an
access misses a set-associative LRU cache of associativity ``a`` iff its
within-set distance is cold (``-1``) or ``>= a`` — so one *histogram* of
distances answers every associativity of the same ``(line, n_sets)``
family by a suffix sum.  A :class:`ReuseProfile` holds:

* the **L1 histogram** over the stream's L1-line distances (per-set
  family ``(l1.line, l1.n_sets)``),
* one **L2 histogram per L1 associativity** — L2 sees only the L1-miss
  stream, and the miss mask of *any* L1 associativity is derivable from
  the same distance array (``sd < 0 or sd >= a``), so the build
  precomputes the canonical associativities plus any requested extras,
* the **TLB histogram** over the consecutive-deduped page stream (the
  TLB is fully associative, family ``n_sets = 1`` — any entry count
  queries from one histogram).

:meth:`ReuseProfile.query` then derives exact, bit-identical
:class:`~repro.memsim.hierarchy.MemoryStats` for any machine in the
family with O(histogram) work — no per-config replay.  Applicability
limit: configs that change a level's line size or set count (a different
*family*) need a fresh profile; only capacity/associativity sweeps
within the family share one.

Histograms are structure-of-arrays int64; profiles persist as ``.npz``
beside the traces in the :class:`~repro.memsim.store.TraceStore`, which
streams a (trace, family)'s first stats miss and builds its profile on
the second.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro import obs
from repro.memsim.hierarchy import MemoryStats, _dedup_consecutive
from repro.memsim.engines import set_stack_distances, stack_distances
from repro.memsim.machine import MachineModel

__all__ = [
    "CANONICAL_ASSOCS",
    "ConfigFamily",
    "ReuseProfile",
    "build_profile",
]

#: L1 associativities every profile precomputes L2 histograms for; sweep
#: grids rarely leave this set, so most queries never force a rebuild.
CANONICAL_ASSOCS = (1, 2, 4, 8)

#: Bump to invalidate persisted profile artifacts (npz schema).
_PROFILE_VERSION = 1


@dataclasses.dataclass(frozen=True)
class ConfigFamily:
    """The machine fields a reuse profile is valid for.

    Two machines share a profile iff they agree on every field here;
    capacities, associativities and cycle costs are free to differ
    (capacity enters only through ``n_sets = size / (line * assoc)``,
    which is pinned per family).
    """

    l1_line: int
    l1_sets: int
    l2_line: int
    l2_sets: int
    page: int

    @classmethod
    def of(cls, machine: MachineModel) -> "ConfigFamily":
        return cls(
            l1_line=machine.l1.line,
            l1_sets=machine.l1.n_sets,
            l2_line=machine.l2.line,
            l2_sets=machine.l2.n_sets,
            page=machine.page,
        )


def _suffix_misses(hist: np.ndarray, cold: int, capacity: int) -> int:
    """Misses of an LRU(capacity): cold misses plus every access whose
    stack distance reaches the capacity (histogram suffix sum)."""
    if capacity >= hist.size:
        return cold
    return cold + int(hist[capacity:].sum())


def _histogram(sd: np.ndarray) -> tuple[np.ndarray, int]:
    """(stack-distance histogram, cold-miss count) of a distance array."""
    warm = sd[sd >= 0]
    hist = np.bincount(warm).astype(np.int64)
    return hist, int(sd.size - warm.size)


@dataclasses.dataclass(frozen=True)
class ReuseProfile:
    """Stack-distance histograms answering every config of one family."""

    family: ConfigFamily
    accesses: int
    l1_hist: np.ndarray
    l1_cold: int
    tlb_hist: np.ndarray
    tlb_cold: int
    #: L1 associativity -> (L2 stack-distance histogram, L2 cold misses)
    #: over the L1-miss-filtered stream of that associativity.
    l2: dict[int, tuple[np.ndarray, int]]

    def supports(self, machine: MachineModel) -> bool:
        """Whether :meth:`query` can price this machine exactly."""
        return (
            ConfigFamily.of(machine) == self.family
            and machine.l1.assoc in self.l2
        )

    def query(self, machine: MachineModel, include_tlb: bool = True) -> MemoryStats:
        """Exact :class:`MemoryStats` of the profiled stream on
        ``machine`` — bit-identical to the streaming simulators."""
        if not self.supports(machine):
            raise ValueError(
                f"profile of family {self.family} cannot price {machine.name!r}"
            )
        n = self.accesses
        if n == 0:
            return MemoryStats(0, 0, 0, 0, 0.0)
        with obs.span("multiconfig.query", machine=machine.name):
            l1_misses = _suffix_misses(self.l1_hist, self.l1_cold, machine.l1.assoc)
            l2_hist, l2_cold = self.l2[machine.l1.assoc]
            l2_misses = _suffix_misses(l2_hist, l2_cold, machine.l2.assoc)
            tlb_misses = (
                _suffix_misses(self.tlb_hist, self.tlb_cold, machine.tlb_entries)
                if include_tlb and machine.tlb_entries > 0
                else 0
            )
            cycles = (
                n * machine.l1_hit
                + l1_misses * machine.l2_hit
                + l2_misses * machine.mem
                + tlb_misses * machine.tlb_miss
            )
            return MemoryStats(n, l1_misses, l2_misses, tlb_misses, cycles)

    # -- persistence (npz beside the trace artifacts) -------------------

    def save(self, fh) -> None:
        """Write the profile to an open binary file as ``.npz``."""
        arrays = {
            "meta": np.array(
                [_PROFILE_VERSION, self.accesses, self.l1_cold, self.tlb_cold],
                dtype=np.int64,
            ),
            "family": np.array(dataclasses.astuple(self.family), dtype=np.int64),
            "l1_hist": self.l1_hist,
            "tlb_hist": self.tlb_hist,
            "l2_assocs": np.array(sorted(self.l2), dtype=np.int64),
            "l2_cold": np.array(
                [self.l2[a][1] for a in sorted(self.l2)], dtype=np.int64
            ),
        }
        for assoc in sorted(self.l2):
            arrays[f"l2_hist_{assoc}"] = self.l2[assoc][0]
        np.savez(fh, **arrays)

    @classmethod
    def load(cls, fh) -> "ReuseProfile":
        """Read a profile written by :meth:`save`; raises ``ValueError``
        on a schema/version mismatch."""
        with np.load(fh) as data:
            meta = data["meta"]
            if int(meta[0]) != _PROFILE_VERSION:
                raise ValueError(f"profile version {int(meta[0])} unsupported")
            family = ConfigFamily(*(int(v) for v in data["family"]))
            assocs = [int(a) for a in data["l2_assocs"]]
            colds = [int(c) for c in data["l2_cold"]]
            l2 = {
                a: (data[f"l2_hist_{a}"], cold)
                for a, cold in zip(assocs, colds)
            }
            return cls(
                family=family,
                accesses=int(meta[1]),
                l1_hist=data["l1_hist"],
                l1_cold=int(meta[2]),
                tlb_hist=data["tlb_hist"],
                tlb_cold=int(meta[3]),
                l2=l2,
            )


def build_profile(
    addresses: np.ndarray,
    machine: MachineModel,
    extra_assocs: tuple[int, ...] | set[int] = (),
) -> ReuseProfile:
    """One vectorized pass over a byte-address trace producing the
    reuse-distance profile of ``machine``'s config family.

    L2 histograms are built for :data:`CANONICAL_ASSOCS` plus the
    machine's own L1 associativity plus ``extra_assocs`` — the L1 miss
    mask of any associativity falls out of the same distance array
    (``sd < 0 or sd >= a``), so extra associativities cost only their
    (shorter, miss-filtered) L2 passes.
    """
    addresses = np.asarray(addresses, dtype=np.int64)
    family = ConfigFamily.of(machine)
    n = int(addresses.size)
    empty = np.zeros(0, dtype=np.int64)
    assocs = sorted({*CANONICAL_ASSOCS, machine.l1.assoc, *extra_assocs})
    with obs.span("multiconfig.build", accesses=n, assocs=len(assocs)):
        obs.add("multiconfig.profile_builds")
        if n == 0:
            return ReuseProfile(
                family, 0, empty, 0, empty, 0, {a: (empty, 0) for a in assocs}
            )
        sd_l1 = set_stack_distances(addresses // family.l1_line, family.l1_sets)
        l1_hist, l1_cold = _histogram(sd_l1)
        pages = _dedup_consecutive(addresses // family.page)
        tlb_hist, tlb_cold = _histogram(stack_distances(pages))
        l2_lines = addresses // family.l2_line
        l2: dict[int, tuple[np.ndarray, int]] = {}
        for assoc in assocs:
            miss_mask = (sd_l1 < 0) | (sd_l1 >= assoc)
            sd_l2 = set_stack_distances(l2_lines[miss_mask], family.l2_sets)
            l2[assoc] = _histogram(sd_l2)
        return ReuseProfile(
            family, n, l1_hist, l1_cold, tlb_hist, tlb_cold, l2
        )
