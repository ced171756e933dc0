"""Multi-config reuse-distance profiles vs. the streaming simulators.

The whole point of :mod:`repro.memsim.multiconfig` is that one profile
answers *every* LRU configuration of a set family with the exact same
numbers the per-config streaming engines produce.  Every test here
asserts full equality of :class:`MemoryStats` (integers and the float
cycle total), not summary statistics, across random traces and
(associativity, set count, block size, capacity) grids — plus the
chunk-boundary, single-set and degenerate edge cases, and the forced
wavelet branch of the stack-distance kernel.
"""

import io
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.memsim import engines
from repro.memsim.engines import set_stack_distances, stack_distances
from repro.memsim.hierarchy import (
    simulate_hierarchy,
    simulate_hierarchy_chunked,
    simulate_hierarchy_multi,
)
from repro.memsim.machine import (
    CacheGeometry,
    MachineModel,
    assoc_scaled,
    modern_like,
    scaled,
    ultrasparc_like,
)
from repro.memsim.multiconfig import (
    CANONICAL_ASSOCS,
    ConfigFamily,
    ReuseProfile,
    build_profile,
)
from tests.oracles import scalar_stack_distances


def oracle_stack_distances(keys):
    """Brute-force per-access distinct-count oracle (ground truth)."""
    out = np.full(len(keys), -1, dtype=np.int32)
    last = {}
    for i, k in enumerate(keys):
        if k in last:
            out[i] = len(set(keys[last[k] + 1 : i]))
        last[k] = i
    return out


key_lists = st.lists(st.integers(0, 40), min_size=0, max_size=300)


def family_machine(l1_assoc=1, l2_assoc=1, tlb_entries=16):
    """One member of a fixed (line, n_sets) family: 8-set L1 (16B
    lines), 16-set L2 (32B lines), 256B pages — small enough that tiny
    random traces exercise every level."""
    return MachineModel(
        name=f"tiny-l1w{l1_assoc}-l2w{l2_assoc}-tlb{tlb_entries}",
        l1=CacheGeometry(8 * 16 * l1_assoc, 16, l1_assoc),
        l2=CacheGeometry(16 * 32 * l2_assoc, 32, l2_assoc),
        tlb_entries=tlb_entries,
        page=256,
    )


class TestStackDistances:
    @given(key_lists)
    @settings(max_examples=80, deadline=None)
    def test_matches_oracle(self, keys):
        arr = np.array(keys, dtype=np.int64)
        assert np.array_equal(stack_distances(arr), oracle_stack_distances(keys))

    @given(key_lists)
    @settings(max_examples=40, deadline=None)
    def test_scalar_fallback_matches_oracle(self, keys):
        arr = np.array(keys, dtype=np.int64)
        assert np.array_equal(
            scalar_stack_distances(arr), oracle_stack_distances(keys)
        )

    @given(key_lists, st.integers(1, 64))
    @settings(max_examples=60, deadline=None)
    def test_capacity_sweep_matches_lru_mask(self, keys, capacity):
        # One distance array answers every capacity: sd < C iff LRU(C) hit.
        arr = np.array(keys, dtype=np.int64)
        sd = stack_distances(arr)
        hits = (sd >= 0) & (sd < capacity)
        assert np.array_equal(hits, engines.lru_hit_mask(arr, capacity))

    @given(st.integers(2, 30), st.integers(1, 35), st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_cyclic_thrash_chains(self, capacity, period, reps):
        # Lockstep-chain tier: loop streams straddling capacity.
        keys = np.tile(np.arange(period, dtype=np.int64), reps * 4)
        sd = stack_distances(keys)
        assert np.array_equal(sd, oracle_stack_distances(keys.tolist()))
        hits = (sd >= 0) & (sd < capacity)
        assert np.array_equal(hits, engines.lru_hit_mask(keys, capacity))

    def test_forced_scalar_fallback_path(self, monkeypatch):
        rng = np.random.default_rng(7)
        keys = rng.integers(0, 500, 4000)
        want = stack_distances(keys)
        # A tiny budget sends every chain base to the wavelet count.
        monkeypatch.setattr(engines, "_RESIDUAL_BUDGET", 1)
        assert np.array_equal(stack_distances(keys), want)
        assert np.array_equal(want, scalar_stack_distances(keys))

    def test_empty_and_degenerate(self):
        assert stack_distances(np.zeros(0, dtype=np.int64)).size == 0
        same = np.zeros(50, dtype=np.int64)
        sd = stack_distances(same)
        assert sd[0] == -1 and (sd[1:] == 0).all()


class TestSetStackDistances:
    @given(key_lists, st.sampled_from([1, 2, 4, 8]), st.sampled_from([1, 2, 3, 8]))
    @settings(max_examples=60, deadline=None)
    def test_any_assoc_matches_streaming_engine(self, lines, n_sets, assoc):
        arr = np.array(lines, dtype=np.int64)
        sd = set_stack_distances(arr, n_sets)
        miss = (sd < 0) | (sd >= assoc)
        assert np.array_equal(
            miss, engines.set_associative_miss_lines(arr, n_sets, assoc)
        )

    def test_single_set_is_fully_associative(self):
        rng = np.random.default_rng(3)
        lines = rng.integers(0, 30, 500)
        assert np.array_equal(
            set_stack_distances(lines, 1), stack_distances(lines)
        )


class TestProfileVsStreaming:
    @given(
        st.lists(st.integers(0, 1 << 12), min_size=0, max_size=250),
        st.sampled_from([1, 2, 4, 8]),
        st.sampled_from([1, 2, 4]),
        st.sampled_from([0, 3, 16]),
    )
    @settings(max_examples=50, deadline=None)
    def test_random_traces_any_config(self, words, l1a, l2a, tlb):
        addresses = np.array(words, dtype=np.int64) * 8
        base = family_machine()
        prof = build_profile(addresses, base, extra_assocs=(1, 2, 4, 8))
        machine = family_machine(l1a, l2a, tlb)
        for include_tlb in (True, False):
            assert prof.query(machine, include_tlb=include_tlb) == (
                simulate_hierarchy(addresses, machine, include_tlb=include_tlb)
            )

    def test_full_family_grid_from_one_build(self):
        rng = np.random.default_rng(11)
        addresses = (rng.integers(0, 1 << 13, 6000) * 8).astype(np.int64)
        prof = build_profile(
            addresses, family_machine(), extra_assocs=(2, 4, 8)
        )
        for l1a, l2a, tlb in itertools.product(
            (1, 2, 4, 8), (1, 2, 4), (0, 4, 16)
        ):
            machine = family_machine(l1a, l2a, tlb)
            assert prof.supports(machine)
            assert prof.query(machine) == simulate_hierarchy(addresses, machine)

    @pytest.mark.parametrize(
        "factory", [ultrasparc_like, modern_like, scaled, assoc_scaled]
    )
    def test_real_machines(self, factory):
        rng = np.random.default_rng(13)
        addresses = (rng.integers(0, 1 << 17, 20000) * 8).astype(np.int64)
        machine = factory()
        prof = build_profile(addresses, machine)
        assert prof.query(machine) == simulate_hierarchy(addresses, machine)

    def test_matches_chunked_simulation(self):
        # Chunk boundaries are the streaming path's hardest invariant;
        # the profile must agree with the chunked simulator too.
        rng = np.random.default_rng(17)
        addresses = (rng.integers(0, 1 << 12, 5000) * 8).astype(np.int64)
        machine = family_machine(2, 2, 8)
        prof = build_profile(addresses, machine)
        chunks = np.array_split(addresses, 7)
        assert prof.query(machine) == simulate_hierarchy_chunked(chunks, machine)

    def test_multi_entrypoint(self):
        rng = np.random.default_rng(19)
        addresses = (rng.integers(0, 1 << 12, 3000) * 8).astype(np.int64)
        machines = [family_machine(a, b, 8) for a in (1, 4) for b in (1, 2)]
        want = [simulate_hierarchy(addresses, m) for m in machines]
        assert simulate_hierarchy_multi(addresses, machines) == want

    def test_empty_trace(self):
        machine = family_machine()
        prof = build_profile(np.zeros(0, dtype=np.int64), machine)
        assert prof.query(machine) == simulate_hierarchy(
            np.zeros(0, dtype=np.int64), machine
        )

    def test_single_address_and_same_address(self):
        machine = family_machine()
        for addresses in (
            np.array([64], dtype=np.int64),
            np.full(100, 4096, dtype=np.int64),
        ):
            prof = build_profile(addresses, machine)
            assert prof.query(machine) == simulate_hierarchy(addresses, machine)

    def test_assoc_above_distinct_lines_never_misses_warm(self):
        addresses = np.tile(np.arange(4, dtype=np.int64) * 16, 50)
        machine = family_machine(8, 4, 16)  # 8-way: 4 lines always fit
        prof = build_profile(addresses, machine)
        st_ = prof.query(machine)
        assert st_ == simulate_hierarchy(addresses, machine)
        assert st_.l1_misses == 4  # cold misses only


class TestProfileObject:
    def test_supports_rejects_other_family(self):
        machine = family_machine()
        prof = build_profile(np.arange(100, dtype=np.int64) * 8, machine)
        other = ultrasparc_like()
        assert ConfigFamily.of(other) != prof.family
        assert not prof.supports(other)
        with pytest.raises(ValueError):
            prof.query(other)

    def test_supports_rejects_missing_assoc(self):
        machine = family_machine()
        prof = build_profile(np.arange(100, dtype=np.int64) * 8, machine)
        odd = family_machine(l1_assoc=3)
        assert 3 not in prof.l2 and not prof.supports(odd)

    def test_npz_roundtrip(self):
        rng = np.random.default_rng(23)
        addresses = (rng.integers(0, 1 << 12, 2000) * 8).astype(np.int64)
        machine = family_machine(2, 2, 8)
        prof = build_profile(addresses, machine, extra_assocs=(1, 8))
        buf = io.BytesIO()
        prof.save(buf)
        buf.seek(0)
        loaded = ReuseProfile.load(buf)
        assert loaded.family == prof.family
        assert loaded.accesses == prof.accesses
        assert sorted(loaded.l2) == sorted(prof.l2)
        for a in (1, 2, 4, 8):
            m = family_machine(a, 2, 8)
            assert loaded.query(m) == prof.query(m)

    def test_canonical_assocs_precomputed(self):
        machine = family_machine()
        prof = build_profile(np.arange(64, dtype=np.int64) * 8, machine)
        assert set(CANONICAL_ASSOCS) <= set(prof.l2)
