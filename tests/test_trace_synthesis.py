"""Symbolic trace synthesis vs the executed tracer: byte identity.

The synthesizer's whole contract is that its structure-of-arrays event
tables expand to the *same bytes* the executed path produces — same
addresses, same order, same per-event chunk boundaries.  The property
tests here sweep every traceable algorithm x layout pair over mixed
sizes (pow-2 grids where templates repeat exactly, padded sizes where
the tiling rounds up) and compare streams literally.
"""

import numpy as np
import pytest

from repro.layouts.registry import PAPER_LAYOUTS
from repro.memsim.machine import scaled, ultrasparc_like
from repro.memsim.synthesis import (
    EventTable,
    SynthesisContext,
    UnsupportedSynthesis,
    expand_table,
    expand_table_chunks,
    synthesize_multiply,
)
from repro.memsim.trace import (
    expand_trace,
    expand_trace_chunks,
    trace_multiply,
)

MACH = scaled(4)

#: The figure-grid algorithms; hybrid/strassen_space covered separately.
ALGORITHMS = ("standard", "strassen", "winograd")

#: pow-2 (exact tile grids) and padded (tiling rounds n up) sizes.
SIZES = (16, 24)


def _executed(algorithm, layout, n, tile=8, **kw):
    events, sizes = trace_multiply(algorithm, layout, n, tile, **kw)
    return events, sizes


def _synthesized(algorithm, layout, n, tile=8, **kw):
    return synthesize_multiply(algorithm, layout, n, tile, **kw)


class TestByteIdentity:
    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("layout", PAPER_LAYOUTS)
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_stream_identical(self, algorithm, layout, n):
        events, sizes = _executed(algorithm, layout, n)
        table, ssizes = _synthesized(algorithm, layout, n)
        ref = expand_trace(events, MACH, sizes)
        got = expand_table(table, MACH, ssizes)
        assert ref.dtype == got.dtype == np.int64
        assert np.array_equal(ref, got)

    @pytest.mark.parametrize("layout", ("LC", "LZ", "LH"))
    @pytest.mark.parametrize("algorithm", ("hybrid", "strassen_space"))
    def test_stream_identical_extra_algorithms(self, algorithm, layout):
        events, sizes = _executed(algorithm, layout, 24)
        table, ssizes = _synthesized(algorithm, layout, 24)
        assert np.array_equal(
            expand_trace(events, MACH, sizes), expand_table(table, MACH, ssizes)
        )

    @pytest.mark.parametrize("layout", ("LC", "LG", "LH"))
    def test_standard_temps_mode(self, layout):
        events, sizes = _executed("standard", layout, 16, mode="temps")
        table, ssizes = _synthesized("standard", layout, 16, mode="temps")
        assert np.array_equal(
            expand_trace(events, MACH, sizes), expand_table(table, MACH, ssizes)
        )

    @pytest.mark.parametrize("depth", (1, 2))
    def test_depth_pinned(self, depth):
        events, sizes = _executed("strassen", "LZ", 20, tile=4, depth=depth)
        table, ssizes = _synthesized("strassen", "LZ", 20, tile=4, depth=depth)
        assert np.array_equal(
            expand_trace(events, MACH, sizes), expand_table(table, MACH, ssizes)
        )

    def test_full_size_machine_geometry(self):
        # Different line/page sizes change alignment and base placement.
        mach = ultrasparc_like()
        events, sizes = _executed("winograd", "LH", 24)
        table, ssizes = _synthesized("winograd", "LH", 24)
        assert np.array_equal(
            expand_trace(events, mach, sizes), expand_table(table, mach, ssizes)
        )


class TestChunkBoundaries:
    @pytest.mark.parametrize("max_elements", (1, 777, 4096))
    @pytest.mark.parametrize("algorithm", ("standard", "strassen"))
    def test_chunks_identical(self, algorithm, max_elements):
        events, sizes = _executed(algorithm, "LZ", 24)
        table, ssizes = _synthesized(algorithm, "LZ", 24)
        ref = list(expand_trace_chunks(events, MACH, sizes, max_elements=max_elements))
        got = list(
            expand_table_chunks(table, MACH, ssizes, max_elements=max_elements)
        )
        assert [c.size for c in ref] == [c.size for c in got]
        for r, g in zip(ref, got):
            assert np.array_equal(r, g)

    def test_expand_trace_chunks_dispatches_tables(self):
        """The executed-path entry point accepts EventTable directly."""
        events, sizes = _executed("standard", "LU", 16)
        table, ssizes = _synthesized("standard", "LU", 16)
        via_dispatch = list(
            expand_trace_chunks(table, MACH, ssizes, max_elements=512)
        )
        ref = list(expand_trace_chunks(events, MACH, sizes, max_elements=512))
        assert [c.size for c in via_dispatch] == [c.size for c in ref]
        for r, g in zip(ref, via_dispatch):
            assert np.array_equal(r, g)


class TestEventTable:
    def test_from_events_round_trip(self):
        events, sizes = _executed("strassen", "LG", 16)
        table = EventTable.from_events(events)
        assert table.n_events == len(events)
        back = table.to_events()
        assert [(e.kind, e.write, e.reads) for e in back] == [
            (e.kind, e.write, e.reads) for e in events
        ]
        assert table.space_sizes() == sizes

    def test_from_events_expansion_matches(self):
        events, sizes = _executed("winograd", "LX", 24)
        table = EventTable.from_events(events)
        assert np.array_equal(
            expand_trace(events, MACH, sizes),
            expand_table(table, MACH, table.space_sizes()),
        )

    def test_synthesized_sizes_match_executed(self):
        _, sizes = _executed("standard", "LZ", 24)
        _, ssizes = _synthesized("standard", "LZ", 24)
        # Space ids differ (id() vs sequential) but the size multiset —
        # what address placement consumes — must agree exactly.
        assert sorted(sizes.values()) == sorted(ssizes.values())

    def test_empty_table(self):
        t = EventTable.empty()
        assert t.n_events == 0
        assert t.space_sizes() == {}
        assert expand_table(t, MACH).size == 0


def _template_count(layout: str, d: int) -> tuple[int, int]:
    """(distinct templates, recorded events) for a standard multiply on
    an exact pow-2 tile grid of order ``d``."""
    from repro.layouts.registry import get_recursive_layout
    from repro.memsim.synthesis import SPEC_BUILDERS, SymQuadView, _descend

    ctx = SynthesisContext()
    curve = get_recursive_layout(layout)

    def root():
        return SymQuadView(ctx.alloc, curve, 8, 8, ctx.alloc.new(), 0, d, 0)

    _descend(ctx, SPEC_BUILDERS["standard"]("accumulate"),
             root(), root(), root(), True)
    return len(ctx.templates), ctx.build().n_events


class TestTemplateMemoization:
    def test_pow2_morton_builds_one_template_per_depth(self):
        """A pow-2 Morton grid needs one template per depth, not one
        recursion per leaf: every sibling is a base-offset copy."""
        templates, events = _template_count("LZ", 3)
        assert events == 512  # 8^3 leaf multiplies
        assert templates == 3

    def test_orientations_key_the_cache(self):
        """Gray-Morton's 2 and Hilbert's 4 orientations fan the key
        space out, but it stays bounded by orientation combinations per
        depth — nowhere near the 8^d recursion count."""
        lz, _ = _template_count("LZ", 4)
        lg, _ = _template_count("LG", 4)
        lh, events = _template_count("LH", 4)
        assert events == 4096
        assert lz < lg < lh
        # Orientation triples per depth cap the cache (minus the top
        # level, whose operands all start at orientation 0).
        assert lh <= 3 + 4**3 * 3
        assert lg <= 3 + 2**3 * 3


class TestUnsupportedFallback:
    def test_unknown_algorithm_raises(self):
        with pytest.raises(UnsupportedSynthesis):
            synthesize_multiply("nosuch", "LZ", 16, 8)

    def test_every_algorithm_has_a_spec(self):
        """Synthesis is the only production trace source, so a dgemm
        algorithm without a spec must fail here, not at sweep time."""
        from repro.algorithms.dgemm import ALGORITHMS
        from repro.memsim.synthesis import SPEC_BUILDERS

        assert set(SPEC_BUILDERS) == set(ALGORITHMS)
