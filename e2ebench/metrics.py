"""Metric declarations: the single source of truth for BENCHMARK.json.

Every metric the benchmark prints is declared here once, with its unit
and direction.  End-to-end metrics carry the bound by which they may
worsen before a change counts as a regression; per-layer metrics carry
the end-to-end metric and workload they are expected to move (``moves``),
so a later change can name its prediction before it is measured.

``python3 e2ebench/metrics.py`` prints the ``BENCHMARK.json`` these
declarations imply; the benchmark's tests check the committed file
against it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

COMMAND = ["python3", "e2ebench/run.py"]
PATHS = ["e2ebench"]
RUN_SECONDS = 20


@dataclass(frozen=True)
class Workload:
    name: str
    why: str


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    layer: str
    #: The end-to-end metric and workload this layer metric should move,
    #: as ``"metric@workload"`` entries (empty: it must stay flat/small).
    moves: tuple[str, ...]


WORKLOADS = (
    Workload(
        "sim_cold",
        "cold-store fig6sim points at n=250 plus the default fig6ms grid: "
        "every point runs synthesis, expansion, profile build and store "
        "write, as on a user's first run",
    ),
    Workload(
        "sim_explore",
        "closed-loop client sending seeded fig6ms machine sweeps to repro "
        "serve over warm profiles: profile reads and queries, service and "
        "sweep dispatch, no trace or profile builds",
    ),
    Workload(
        "multiply",
        "seeded dgemm calls over 3 algorithms x 6 layouts, n 128-512 with "
        "padded, wide/lean and transposed shapes: conversion, partition, "
        "recursion and leaf kernels, no memsim",
    ),
)

END_TO_END = (
    EndToEnd("setup_s", "s", "lower", 0.25),
    EndToEnd("wall_s", "s", "lower", 0.25),
    EndToEnd("op_p50_ms", "ms", "lower", 0.25),
    EndToEnd("op_p90_ms", "ms", "lower", 0.25),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.2),
)

_COLD = "wall_s@sim_cold"
_EXPLORE = ("op_p50_ms@sim_explore", "op_p90_ms@sim_explore")
_MUL = ("wall_s@multiply", "op_p50_ms@multiply")

PER_LAYER = (
    PerLayer("synthesis.synthesize.self_s", "s", "lower", "memsim.synthesis", (_COLD,)),
    PerLayer("synthesis.expand.self_s", "s", "lower", "memsim.synthesis", (_COLD,)),
    PerLayer("synthesis.expand.maccesses", "Maccesses", "lower", "memsim.synthesis", (_COLD,)),
    PerLayer("multiconfig.build.calls", "count", "lower", "memsim.multiconfig",
             (_COLD, "peak_rss_mb@sim_cold")),
    PerLayer("multiconfig.build.self_s", "s", "lower", "memsim.multiconfig",
             (_COLD, "peak_rss_mb@sim_cold")),
    PerLayer("multiconfig.build.ns_per_access", "ns", "lower", "memsim.multiconfig",
             (_COLD,)),
    PerLayer("engines.stack_distances.self_s", "s", "lower", "memsim.engines",
             (_COLD, "peak_rss_mb@sim_cold")),
    PerLayer("multiconfig.build_over_stream", "ratio", "lower", "memsim.multiconfig",
             (_COLD,)),
    PerLayer("multiconfig.stream_base_s", "s", "lower", "memsim.hierarchy", ()),
    PerLayer("multiconfig.query.calls", "count", "lower", "memsim.multiconfig",
             (_EXPLORE[0],)),
    PerLayer("multiconfig.query.self_s", "s", "lower", "memsim.multiconfig",
             (_EXPLORE[0],)),
    PerLayer("hierarchy.simulate.calls", "count", "lower", "memsim.hierarchy", (_COLD,)),
    PerLayer("hierarchy.simulate.self_s", "s", "lower", "memsim.hierarchy", (_COLD,)),
    PerLayer("store.stats.calls", "count", "lower", "memsim.store", (_COLD, *_EXPLORE)),
    PerLayer("store.stats.self_s", "s", "lower", "memsim.store", (_COLD, *_EXPLORE)),
    PerLayer("store.stats_hit_ratio", "ratio", "higher", "memsim.store", _EXPLORE),
    PerLayer("store.profile_hit_ratio", "ratio", "higher", "memsim.store", _EXPLORE),
    PerLayer("store.trace_hit_ratio", "ratio", "higher", "memsim.store", (_COLD,)),
    PerLayer("store.trace_mb", "MB", "lower", "memsim.store", (_COLD,)),
    PerLayer("store.profile_mb", "MB", "lower", "memsim.store", (_COLD,)),
    PerLayer("store.stats_mb", "MB", "lower", "memsim.store", _EXPLORE),
    PerLayer("store_write_mb", "MB", "lower", "memsim.store", (_COLD, *_EXPLORE)),
    PerLayer("sweep.points", "count", "lower", "analysis.parallel", (_EXPLORE[0],)),
    PerLayer("sweep.dispatch.self_s", "s", "lower", "analysis.parallel", (_EXPLORE[0],)),
    PerLayer("experiments.merge.self_s", "s", "lower", "analysis.experiments",
             (_EXPLORE[0],)),
    PerLayer("serve.parse.self_s", "s", "lower", "serve", _EXPLORE),
    PerLayer("serve.build_sweep.self_s", "s", "lower", "serve", _EXPLORE),
    PerLayer("serve.http.self_ms", "ms", "lower", "serve", _EXPLORE),
    PerLayer("serve.coalesced_ratio", "ratio", "higher", "serve", _EXPLORE),
    PerLayer("serve.jobs_retried", "count", "lower", "serve", _EXPLORE),
    PerLayer("dgemm.calls", "count", "lower", "algorithms.dgemm", (_MUL[1],)),
    PerLayer("dgemm.plan.self_s", "s", "lower", "algorithms.dgemm", (_MUL[1],)),
    PerLayer("convert.to_tiled.self_s", "s", "lower", "matrix.convert", (_MUL[0],)),
    PerLayer("convert.from_tiled.self_s", "s", "lower", "matrix.convert", (_MUL[0],)),
    PerLayer("convert.mb", "MB", "lower", "matrix.convert", (_MUL[0],)),
    PerLayer("recursion.self_s", "s", "lower", "algorithms",
             (_MUL[0], "slowdown_vs_numpy@multiply")),
    PerLayer("recursion.add.self_s", "s", "lower", "algorithms",
             (_MUL[0], "slowdown_vs_numpy@multiply")),
    PerLayer("recursion.add.melements", "Melements", "lower", "algorithms",
             (_MUL[0], "slowdown_vs_numpy@multiply")),
    PerLayer("leaf.calls", "count", "lower", "kernels",
             (_MUL[0], "slowdown_vs_numpy@multiply")),
    PerLayer("leaf.self_s", "s", "lower", "kernels",
             (_MUL[0], "slowdown_vs_numpy@multiply")),
    PerLayer("leaf.gflops", "GFLOP/s", "higher", "kernels",
             (_MUL[0], "slowdown_vs_numpy@multiply")),
    PerLayer("dgemm.gflop", "GFLOP", "lower", "kernels",
             (_MUL[0], "slowdown_vs_numpy@multiply")),
    PerLayer("slowdown_vs_numpy", "ratio", "lower", "algorithms.dgemm", (_MUL[0],)),
    PerLayer("trace.overhead_frac", "ratio", "lower", "tracing", ()),
)

UNITS = {m.name: m.unit for m in (*END_TO_END, *PER_LAYER)}


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document these declarations imply."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
