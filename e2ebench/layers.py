"""Where the traced run wraps the program, and the per-layer metrics it
derives from the spans.

Each wrapper is installed on the name the *caller* binds: the store
imports ``build_profile``, ``synthesize_multiply``, ``expand_table`` and
``simulate_hierarchy`` into :mod:`repro.memsim.store`; ``dgemm`` imports
its conversions into :mod:`repro.algorithms.dgemm` and indexes its
``ALGORITHMS`` registry at call time; the fast algorithms import
``stream_add``/``combine`` into their own modules; and so on.  Nothing
in ``src/`` changes.  The metric names and what each should move are
declared in :mod:`metrics`.
"""

from __future__ import annotations

from tracer import Tracer

#: Span names whose total time the service spends outside HTTP handling.
_SERVER_SIDE = ("serve.parse", "serve.build_sweep", "sweep.dispatch",
                "experiments.merge")


def install(tracer: Tracer) -> list:
    """Wrap every layer boundary; returns the list that collects
    ``(addresses, machine)`` of each profile build, for the
    build-over-stream comparison."""
    import importlib

    import repro.algorithms.recursion as recursion
    import repro.algorithms.standard as standard
    import repro.algorithms.strassen as strassen
    import repro.algorithms.winograd as winograd
    import repro.analysis.experiments as experiments
    import repro.analysis.parallel as parallel
    import repro.memsim.engines as engines
    import repro.memsim.multiconfig as multiconfig
    import repro.memsim.store as store
    import repro.serve.jobs as jobs
    import repro.serve.protocol as protocol
    import repro.serve.server as server

    # ``repro.algorithms`` re-exports the dgemm *function* under the
    # module's name, so fetch the module itself.
    dgemm = importlib.import_module("repro.algorithms.dgemm")
    builds: list = []

    def build_measure(args, kwargs, result):
        builds.append((args[0], args[1]))
        return {"build.accesses": int(args[0].size)}

    wrap = tracer.wrap
    wrap(store, "synthesize_multiply", "synthesis.synthesize")
    wrap(store, "expand_table", "synthesis.expand",
         lambda a, k, r: {"expand.accesses": int(r.size)})
    wrap(store, "build_profile", "multiconfig.build", build_measure)
    for owner in (multiconfig, engines):
        wrap(owner, "stack_distances", "engines.stack_distances")
    wrap(multiconfig, "set_stack_distances", "engines.stack_distances")
    wrap(multiconfig.ReuseProfile, "query", "multiconfig.query")
    wrap(store, "simulate_hierarchy", "hierarchy.simulate")
    wrap(store.TraceStore, "stats", "store.stats")
    for owner in (experiments, parallel):
        wrap(owner, "run_sweep", "sweep.dispatch",
             lambda a, k, r: {"sweep.points": len(a[0])})
    for owner in (experiments, protocol):
        wrap(owner, "fig6sim_merge", "experiments.merge")
        wrap(owner, "fig6ms_merge", "experiments.merge")
    wrap(server, "parse_request", "serve.parse")
    wrap(jobs, "build_sweep", "serve.build_sweep")

    wrap(dgemm, "dgemm", "dgemm")
    wrap(dgemm, "to_tiled", "convert.to_tiled")
    wrap(dgemm, "to_dense_padded", "convert.to_tiled")
    wrap(dgemm, "from_tiled", "convert.from_tiled")
    tracer.wrap_dict(dgemm.ALGORITHMS, "recursion")
    for owner in (strassen, winograd):
        wrap(owner, "stream_add", "recursion.add")
    for owner in (standard, strassen, winograd):
        wrap(owner, "combine", "recursion.add")
    get_kernel = recursion.get_kernel
    tracer.patch(recursion, "get_kernel",
                 lambda kernel: tracer.traced(get_kernel(kernel), "leaf"))
    return builds


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def derive(summary: dict, counts: dict, extra: dict) -> dict[str, float]:
    """Per-layer metrics from span aggregates, wrapper counts and the
    workload's own measurements (``extra``; absent keys count as 0)."""
    def self_s(name: str) -> float:
        return summary.get(name, {}).get("self_s", 0.0)

    def total_s(name: str) -> float:
        return summary.get(name, {}).get("total_s", 0.0)

    def calls(name: str) -> int:
        return int(summary.get(name, {}).get("calls", 0))

    def x(key: str) -> float:
        return float(extra.get(key, 0.0))

    store = {k: x(f"store.{k}") for k in (
        "stats_hits", "stats_misses", "profile_hits", "profile_misses",
        "trace_hits", "trace_misses")}
    build_s = total_s("multiconfig.build")
    requests = x("serve.requests")
    server_side = sum(total_s(name) for name in _SERVER_SIDE)
    mb = 1e-6
    return {
        "synthesis.synthesize.self_s": self_s("synthesis.synthesize"),
        "synthesis.expand.self_s": self_s("synthesis.expand"),
        "synthesis.expand.maccesses": counts.get("expand.accesses", 0) * 1e-6,
        "multiconfig.build.calls": calls("multiconfig.build"),
        "multiconfig.build.self_s": self_s("multiconfig.build"),
        "multiconfig.build.ns_per_access":
            _ratio(build_s * 1e9, counts.get("build.accesses", 0)),
        "engines.stack_distances.self_s": self_s("engines.stack_distances"),
        "multiconfig.build_over_stream": _ratio(build_s, x("stream_base_s")),
        "multiconfig.stream_base_s": x("stream_base_s"),
        "multiconfig.query.calls": calls("multiconfig.query"),
        "multiconfig.query.self_s": self_s("multiconfig.query"),
        "hierarchy.simulate.calls": calls("hierarchy.simulate"),
        "hierarchy.simulate.self_s": self_s("hierarchy.simulate"),
        "store.stats.calls": calls("store.stats"),
        "store.stats.self_s": self_s("store.stats"),
        "store.stats_hit_ratio": _ratio(
            store["stats_hits"], store["stats_hits"] + store["stats_misses"]),
        "store.profile_hit_ratio": _ratio(
            store["profile_hits"], store["profile_hits"] + store["profile_misses"]),
        "store.trace_hit_ratio": _ratio(
            store["trace_hits"], store["trace_hits"] + store["trace_misses"]),
        "store.trace_mb": x("store.trace_bytes") * mb,
        "store.profile_mb": x("store.profile_bytes") * mb,
        "store.stats_mb": x("store.stats_bytes") * mb,
        "store_write_mb": x("store_write_bytes") * mb,
        "sweep.points": counts.get("sweep.points", 0),
        "sweep.dispatch.self_s": self_s("sweep.dispatch"),
        "experiments.merge.self_s": self_s("experiments.merge"),
        "serve.parse.self_s": self_s("serve.parse"),
        "serve.build_sweep.self_s": self_s("serve.build_sweep"),
        "serve.http.self_ms":
            _ratio((x("serve.request_s") - server_side) * 1e3, requests),
        "serve.coalesced_ratio": _ratio(x("serve.coalesced"), requests),
        "serve.jobs_retried": x("serve.jobs_retried"),
        "dgemm.calls": calls("dgemm"),
        "dgemm.plan.self_s": self_s("dgemm"),
        "convert.to_tiled.self_s": self_s("convert.to_tiled"),
        "convert.from_tiled.self_s": self_s("convert.from_tiled"),
        "convert.mb": x("convert.bytes") * mb,
        "recursion.self_s": self_s("recursion"),
        "recursion.add.self_s": self_s("recursion.add"),
        "recursion.add.melements": x("add.elements") * 1e-6,
        "leaf.calls": calls("leaf"),
        "leaf.self_s": self_s("leaf"),
        "leaf.gflops": _ratio(x("leaf.flops") * 1e-9, self_s("leaf")),
        "dgemm.gflop": x("dgemm.flops") * 1e-9,
        "slowdown_vs_numpy": x("slowdown_vs_numpy"),
        "trace.overhead_frac": x("trace.overhead_frac"),
    }
