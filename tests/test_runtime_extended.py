"""Deeper runtime coverage: DAG-vs-analytic agreement, scheduler scale,
cost-model knobs, trace-tree structure of real algorithms."""

import pytest

from repro.algorithms.dgemm import ALGORITHMS
from repro.algorithms.recursion import Context
from repro.matrix.tiledmatrix import TiledMatrix
from repro.runtime.cilk import CostModel, TraceRuntime
from repro.runtime.critical import work_span
from repro.runtime.scheduler import greedy_makespan, work_stealing_makespan
from repro.runtime.task import span, to_dag, work


def _traced(algorithm, d=2, tile=8, cost_model=None, accumulate=False):
    rt = TraceRuntime(cost_model or CostModel(spawn=0.0))
    mats = [TiledMatrix.zeros("LZ", d, tile, tile) for _ in range(3)]
    c, a, b = mats
    ALGORITHMS[algorithm](c.root_view(), a.root_view(), b.root_view(),
                          Context(rt), accumulate=accumulate)
    return rt.root


class TestDagVsAnalytic:
    @pytest.mark.parametrize("algorithm", ["strassen", "winograd"])
    def test_span_close_to_recurrence(self, algorithm):
        cm = CostModel(spawn=0.0)
        tree = _traced(algorithm, d=3, tile=8, cost_model=cm)
        analytic = work_span(algorithm, 64, 8, cm)
        assert work(tree) == pytest.approx(analytic.work, rel=1e-12)
        # The recurrences follow the level program's spawn blocks, so
        # the span agrees with the traced tree exactly too.
        assert span(tree) == pytest.approx(analytic.span, rel=1e-12)

    def test_dag_makespan_bounded_by_tree_span(self):
        tree = _traced("strassen", d=2)
        dag = to_dag(tree)
        res = greedy_makespan(dag, 10**6)  # unlimited workers
        assert res.makespan == pytest.approx(span(tree))


class TestSchedulerScale:
    def test_large_dag(self):
        # A full depth-3 Winograd trace: hundreds of tasks, still fast.
        tree = _traced("winograd", d=3)
        dag = to_dag(tree)
        assert len(dag) > 500
        res = work_stealing_makespan(dag, 4, seed=7)
        assert res.busy_time == pytest.approx(work(tree))

    def test_speedup_saturates_at_parallelism(self):
        tree = _traced("strassen", d=2)
        dag = to_dag(tree)
        t1, tinf = work(tree), span(tree)
        res = greedy_makespan(dag, 4096)
        assert res.makespan >= tinf - 1e-9
        assert t1 / res.makespan <= t1 / tinf + 1e-9

    def test_hybrid_dag_runs(self):
        tree = _traced("hybrid", d=2)
        res = work_stealing_makespan(to_dag(tree), 4)
        assert res.makespan > 0

    def test_space_saving_has_no_parallel_slack(self):
        tree = _traced("strassen_space", d=2)
        # Purely sequential: span == work.
        assert span(tree) == pytest.approx(work(tree))


class TestCostModelKnobs:
    def test_expensive_streams_lower_fast_algorithm_parallelism(self):
        cheap = work_span("strassen", 512, 16, CostModel(stream=1.0))
        dear = work_span("strassen", 512, 16, CostModel(stream=50.0))
        assert dear.parallelism < cheap.parallelism

    def test_spawn_cost_lowers_parallelism(self):
        free = work_span("standard", 512, 16, CostModel(spawn=0.0))
        taxed = work_span("standard", 512, 16, CostModel(spawn=10000.0))
        assert taxed.parallelism < free.parallelism

    def test_standard_parallelism_grows_with_n(self):
        p1 = work_span("standard", 256, 16).parallelism
        p2 = work_span("standard", 1024, 16).parallelism
        assert p2 > p1


class TestTraceTreeStructure:
    def test_standard_two_phases(self):
        tree = _traced("standard", d=1)
        phases = [ch for ch in tree.children if ch.kind == "parallel"]
        assert len(phases) == 2
        assert all(len(p.children) == 4 for p in phases)

    def test_strassen_three_groups(self):
        tree = _traced("strassen", d=1)
        groups = [ch for ch in tree.children if ch.kind == "parallel"]
        # pre-adds, products, post-adds
        assert len(groups) == 3
        assert len(groups[0].children) == 10
        assert len(groups[1].children) == 7
        assert len(groups[2].children) == 4

    def test_winograd_wave_structure(self):
        tree = _traced("winograd", d=1)
        groups = [ch for ch in tree.children if ch.kind == "parallel"]
        # 3 pre-add waves + products + 3 post-add waves.
        assert len(groups) == 7
        assert len(groups[3].children) == 7  # the products

    def test_leaf_costs_positive(self):
        tree = _traced("standard", d=1)
        assert all(leaf.cost > 0 for leaf in tree.iter_leaves())
