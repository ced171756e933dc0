"""Analytic work/span recurrences vs. the traced implementation."""

import pytest

from repro.runtime.cilk import CostModel, TraceRuntime
from repro.algorithms.program import PROGRAMS
from repro.runtime.critical import WorkSpan, work_span
from repro.runtime.task import span as tree_span
from repro.runtime.task import work as tree_work


class TestWorkSpan:
    def test_parallelism(self):
        ws = WorkSpan(work=100.0, span=10.0)
        assert ws.parallelism == 10.0

    def test_speedup_bound(self):
        ws = WorkSpan(work=100.0, span=10.0)
        assert ws.speedup(4) == pytest.approx(100 / (25 + 10))
        assert ws.speedup(10**9) <= ws.parallelism + 1e-9

    def test_zero_span(self):
        assert WorkSpan(1.0, 0.0).parallelism == float("inf")


class TestRecurrences:
    def test_depth_zero_is_leaf(self):
        cm = CostModel(spawn=0.0)
        ws = work_span("standard", 16, 16, cm)
        assert ws.work == cm.multiply(16, 16, 16)

    def test_standard_work_is_2n3(self):
        cm = CostModel(flop=1.0, spawn=0.0)
        for n, t in [(64, 8), (256, 16)]:
            ws = work_span("standard", n, t, cm)
            assert ws.work == pytest.approx(2.0 * n**3)

    def test_standard_span_doubles_per_level(self):
        cm = CostModel(spawn=0.0)
        leaf = cm.multiply(16, 16, 16)
        ws = work_span("standard", 128, 16, cm)
        assert ws.span == pytest.approx(leaf * 2**3)

    def test_paper_parallelism_ordering(self):
        # Paper Section 5: standard has ~40-processor parallelism at
        # n=1000, fast algorithms ~23 — standard must rank highest and
        # the fast ones comparable to each other.
        out = {
            a: work_span(a, 1024, 32).parallelism
            for a in ("standard", "strassen", "winograd")
        }
        assert out["standard"] > out["strassen"] > 1
        assert out["standard"] > out["winograd"] > 1
        assert out["strassen"] / out["winograd"] < 4

    def test_all_have_ample_parallelism_for_4(self):
        for algo in ("standard", *PROGRAMS):
            ws = work_span(algo, 1024, 32)
            assert ws.speedup(4) > 3.5, algo

    def test_validation(self):
        with pytest.raises(KeyError):
            work_span("bogus", 64, 8)
        with pytest.raises(ValueError):
            work_span("standard", 100, 16)
        with pytest.raises(ValueError):
            work_span("standard", 48, 16)


class TestAgainstTrace:
    """The closed-form recurrences must equal the traced SP tree."""

    @pytest.mark.parametrize(
        "algo", ["standard", "standard_temps", "strassen", "winograd"]
    )
    def test_work_matches_trace(self, algo):
        from repro.algorithms.dgemm import ALGORITHMS
        from repro.algorithms.recursion import Context
        from repro.matrix.tiledmatrix import TiledMatrix

        name, kw = (("standard", {"mode": "temps"}) if algo == "standard_temps"
                    else (algo, {}))
        t = 8
        for spawn in (0.0, 50.0):
            cm = CostModel(flop=1.0, stream=4.0, spawn=spawn)
            for d in range(4):
                rt = TraceRuntime(cm)
                c, a, b = (TiledMatrix.zeros("LZ", d, t, t) for _ in range(3))
                ALGORITHMS[name](c.root_view(), a.root_view(), b.root_view(),
                                 Context(rt), accumulate=False, **kw)
                analytic = work_span(algo, t << d, t, cm)
                where = (algo, spawn, d)
                assert tree_work(rt.root) == pytest.approx(analytic.work, rel=1e-12), where
                assert tree_span(rt.root) == pytest.approx(analytic.span, rel=1e-12), where

    def test_critical_rows(self):
        # E7 at n=1024, t=32 under the default cost model.
        got = {
            a: round(work_span(a, 1024, 32).parallelism)
            for a in ("standard", "standard_temps", "strassen", "winograd")
        }
        assert got == {"standard": 1023, "standard_temps": 1559,
                       "strassen": 264, "winograd": 169}

    def test_standard_span_matches_trace_exactly(self):
        from repro.algorithms.standard import standard_multiply
        from repro.algorithms.recursion import Context
        from repro.matrix.tiledmatrix import TiledMatrix

        cm = CostModel(flop=1.0, stream=4.0, spawn=0.0)
        rt = TraceRuntime(cm)
        c = TiledMatrix.zeros("LZ", 2, 8, 8)
        a = TiledMatrix.zeros("LZ", 2, 8, 8)
        b = TiledMatrix.zeros("LZ", 2, 8, 8)
        standard_multiply(c.root_view(), a.root_view(), b.root_view(), Context(rt))
        assert tree_span(rt.root) == pytest.approx(
            work_span("standard", 32, 8, cm).span
        )
