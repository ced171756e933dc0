"""Tests of the benchmark itself (not collected by the repo's suite).

Run from the repository root::

    python3 -m pytest e2ebench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import threading
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import ops  # noqa: E402
from tracer import Tracer  # noqa: E402


# -- generators --------------------------------------------------------

@pytest.mark.parametrize("gen", [ops.cold_ops, ops.explore_ops, ops.multiply_ops])
def test_one_seed_yields_one_op_list(gen):
    assert gen(7, 15) == gen(7, 15)
    assert gen(7, 15) != gen(8, 15)


def test_explore_repeat_share_is_the_intended_share():
    for seed in range(5):
        plan = ops.explore_ops(seed, 15)
        seen, repeats = set(), 0
        for op in plan:
            key = json.dumps(op["params"], sort_keys=True)
            repeats += key in seen
            seen.add(key)
        assert repeats == round(ops.REPEAT_SHARE * len(plan))
        assert all(op["params"] == plan[op["repeat_of"]]["params"]
                   for op in plan if op["repeat_of"] is not None)
        assert all(set(op["params"]["l1_assocs"]) <= set(ops.L1_ASSOCS)
                   for op in plan)


def test_explore_leaves_ten_samples_beyond_p90():
    assert len(ops.explore_ops(0, 1)) >= 100


def test_multiply_mix_covers_every_path():
    plan = ops.multiply_ops(3, 15)
    assert len(plan) >= 100  # ten calls beyond p90
    pairs = {(op["algorithm"], op["layout"]) for op in plan}
    assert pairs == {(a, lay) for a in ops.ALGORITHMS for lay in ops.LAYOUTS}
    counts = [sum(op["shape_id"] == s for op in plan)
              for s in {op["shape_id"] for op in plan}]
    assert min(counts) >= 2  # shapes recur: first-touch and warm calls
    dims = [d for op in plan for d in (op["m"], op["k"], op["n"])]
    assert max(dims) <= ops.N_RANGE[1]
    squares = [op["m"] for op in plan if op["m"] == op["k"] == op["n"]]
    assert min(squares) >= ops.N_RANGE[0]
    assert any(n & (n - 1) for n in squares)  # padding
    assert any(max(op["m"], op["k"], op["n"]) >= 2.5 * min(op["m"], op["k"], op["n"])
               for op in plan)  # wide/lean: partition
    assert {(op["op_a"], op["op_b"]) for op in plan} >= {("N", "N"), ("T", "N"),
                                                         ("N", "T"), ("T", "T")}


def test_cold_sample_holds_lc_and_a_recursive_layout():
    for seed in range(20):
        points = ops.cold_ops(seed, 15)["points"]
        layouts = [p["layout"] for p in points]
        assert len(points) >= 2 and "LC" in layouts
        assert set(layouts) & set(ops.RECURSIVE_LAYOUTS)
        assert all((p["n"], p["tile"]) == (250, 16) for p in points)


# -- tracer ------------------------------------------------------------

def test_tracer_self_time_excludes_children():
    def inner():
        time.sleep(0.01)

    def outer():
        owner.inner()
        return "done"

    owner = types.SimpleNamespace(inner=inner, outer=outer)
    tracer = Tracer()
    tracer.wrap(owner, "outer", "outer", lambda a, k, r: {"outer.calls": 1})
    tracer.wrap(owner, "inner", "inner")
    assert owner.outer() == "done"
    other = threading.Thread(target=owner.inner)
    other.start()
    other.join(timeout=10)
    assert not other.is_alive()
    tracer.restore()
    assert owner.outer is outer and owner.inner is inner
    summary = tracer.summary()
    assert tracer.counts["outer.calls"] == 1
    assert summary["outer"]["calls"] == 1 and summary["inner"]["calls"] == 2
    main, other_thread = tracer.spans()
    (_, _, _, o_start, o_end), = [s for s in main if s[2] == "outer"]
    (inner_id, inner_parent, _, i_start, i_end), = [s for s in main if s[2] == "inner"]
    outer_id = [s[0] for s in main if s[2] == "outer"][0]
    assert inner_parent == outer_id and inner_id != outer_id
    # Parents are per thread: the other thread's call is a root span.
    assert [s[1] for s in other_thread] == [-1]
    assert summary["outer"]["self_s"] == pytest.approx(
        (o_end - o_start) - (i_end - i_start))
    assert summary["outer"]["self_s"] < 0.01 <= i_end - i_start


def test_tracer_restore_puts_originals_back():
    import os.path as owner
    original = owner.join
    tracer = Tracer()
    tracer.wrap(owner, "join", "join")
    table = {"a": len}
    tracer.wrap_dict(table, "len")
    assert owner.join is not original and table["a"] is not len
    tracer.restore()
    assert owner.join is original and table["a"] is len


# -- BENCHMARK.json ----------------------------------------------------

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_matches_the_declarations():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == metrics.benchmark_json()
    names = [m["name"] for m in (*committed["end_to_end"], *committed["per_layer"])]
    names += [w["name"] for w in committed["workloads"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in (*committed["end_to_end"],
                                               *committed["per_layer"]))
    bounds = {m["name"]: m["bound"] for m in committed["end_to_end"]}
    assert max(bounds.values()) <= 0.25
    assert bounds["setup_s"] == max(bounds.values())
    moves = {m.name: m.moves for m in metrics.PER_LAYER}
    e2e = set(bounds) | {"slowdown_vs_numpy", "store_write_mb"}
    workloads = {w["name"] for w in committed["workloads"]}
    for targets in moves.values():
        for target in targets:
            metric, workload = target.split("@")
            assert metric in e2e and workload in workloads


# -- end to end --------------------------------------------------------

def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "e2ebench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w.name for w in metrics.WORKLOADS])
def test_smoke_run_passes_its_gate_and_emits_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m.name: m.unit for m in declared}
    provenance = json.loads(lines[-2].split(": ", 1)[1])
    assert provenance["knobs"]["REPRO_JOBS"] == 1
    assert provenance["knobs"]["REPRO_OBS"] is False
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_without_a_source_tree_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "multiply", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _sabotaged_checkout(tmp_path: Path, module: str, old: str, new: str) -> Path:
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    shutil.copytree(HERE, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "src" / "repro" / module
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))
    return tmp_path


@pytest.mark.parametrize("workload,module,old,new", [
    ("multiply", "algorithms/dgemm.py", "    if alpha != 1.0:",
     "    out[0, 0] += 1e-6\n    if alpha != 1.0:"),
    ("sim_cold", "memsim/multiconfig.py", "    if capacity >= hist.size:",
     "    cold += 1\n    if capacity >= hist.size:"),
])
def test_a_wrong_output_fails_the_run(tmp_path, workload, module, old, new):
    root = _sabotaged_checkout(tmp_path, module, old, new)
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", "0", "--smoke", cwd=root)
    assert proc.returncode != 0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1
