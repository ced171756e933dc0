"""One phase of one workload, run in a child process of ``run.py``.

Phases: ``setup`` (boot, import, warm, then exit), ``run`` (set up, run
the timed phase untraced, check the outputs) and ``traced`` (the same
with every layer boundary wrapped by :mod:`layers`).  The process talks
to the launcher through ``E2E <json>`` lines on stdout: ``ready`` when
set-up ends, ``result`` at the end.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import json
import math
import os
import random
import resource
import subprocess
import sys
import threading
import time
from pathlib import Path

import layers
import ops
from tracer import Tracer

#: Largest relative error (max-norm, against ``a @ b``) each algorithm
#: may show; fast algorithms lose a few digits to their extra additions.
TOLERANCE = {"standard": 1e-12, "strassen": 1e-10, "winograd": 1e-10}
#: Sampled outputs checked against an independent path.
GATE_SAMPLES = 6


def emit(event: str, **fields) -> None:
    print("E2E " + json.dumps({"event": event, **fields}), flush=True)


def percentile(values: list[float], q: float) -> float:
    """Percentile with linear interpolation between closest ranks (as
    numpy's default): with sim_cold's two points, p50 is their mean."""
    ordered = sorted(values)
    pos = q / 100 * (len(ordered) - 1)
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss * 1024 / 1e6


def store_bytes(root: Path) -> dict[str, int]:
    """Bytes in the trace store by artifact kind."""
    out = {"trace_bytes": 0, "profile_bytes": 0, "stats_bytes": 0}
    kinds = {".npy": "trace_bytes", ".npz": "profile_bytes", ".json": "stats_bytes"}
    if root.is_dir():
        for path in root.rglob("*"):
            kind = kinds.get(path.suffix)
            if kind and not path.name.startswith(".tmp"):
                out[kind] += path.stat().st_size
    return out


def store_extra(before_bytes: dict, after_bytes: dict,
                before_counts: dict, after_counts: dict) -> dict:
    extra = {f"store.{k}": after_bytes[k] - before_bytes[k] for k in after_bytes}
    extra["store_write_bytes"] = sum(after_bytes.values()) - sum(before_bytes.values())
    for key, value in after_counts.items():
        extra[f"store.{key}"] = value - before_counts.get(key, 0)
    return extra


class Workload:
    """Set-up, timed phase and correctness gate of one workload."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.store_dir = Path(os.environ["REPRO_TRACE_CACHE_DIR"])
        self.latencies_ms: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.extra: dict = {}

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        if len(self.errors) < 10:
            self.errors.append(message)

    def setup(self) -> None: ...

    def run(self) -> float: ...

    def gate(self) -> None: ...

    def close(self) -> None: ...


class SimCold(Workload):
    def setup(self) -> None:
        import repro.analysis.experiments  # noqa: F401  (boot cost is set-up)
        self.plan = ops.cold_ops(self.args.seed, self.args.seconds, self.args.smoke)

    def run(self) -> float:
        from repro.analysis import experiments
        from repro.memsim import store
        before = store_bytes(self.store_dir), store.default_store().counters()
        self.rows: list[list[dict]] = []
        t_start = time.perf_counter()
        for p in self.plan["points"]:
            t0 = time.perf_counter()
            try:
                rows = experiments.fig6_simulated(
                    n=p["n"], tile=p["tile"], algorithms=[p["algorithm"]],
                    layouts=[p["layout"]], jobs=1,
                )
            except Exception as exc:  # a failed op, counted and reported
                rows = []
                self.fail(1, f"fig6sim {p}: {type(exc).__name__}: {exc}")
            self.latencies_ms.append((time.perf_counter() - t0) * 1e3)
            self.rows.append(rows)
            self.attempted += 1
        try:
            self.ms_rows = experiments.fig6_machine_scaling(**self.plan["fig6ms"], jobs=1)
        except Exception as exc:
            self.ms_rows = []
            self.fail(1, f"fig6ms: {type(exc).__name__}: {exc}")
        self.attempted += max(1, len(self.ms_rows))
        wall = time.perf_counter() - t_start
        self.peak_rss_mb = peak_rss_mb()
        self.extra.update(store_extra(before[0], store_bytes(self.store_dir),
                                      before[1], store.default_store().counters()))
        return wall

    def _check(self, label: str, algorithm: str, layout: str, n: int, tile: int,
               mach, row_value: float) -> None:
        from repro.memsim import hierarchy, store
        st = store.cached_multiply_stats(algorithm, layout, n, tile, mach)
        ref = hierarchy.simulate_hierarchy(
            store.cached_multiply_trace(algorithm, layout, n, tile, mach), mach)
        if st != ref or row_value != st.cycles / (2.0 * n**3):
            self.fail(1, f"{label} {algorithm}/{layout}: {st} != streamed {ref}")

    def gate(self) -> None:
        from repro.analysis import experiments
        from repro.memsim import machine
        for p, rows in zip(self.plan["points"], self.rows):
            if rows:
                self._check("fig6sim", p["algorithm"], p["layout"], p["n"],
                            p["tile"], machine.ultrasparc_like(),
                            rows[0]["sim_cycles_per_flop"])
        rng = random.Random(f"gate:{self.args.seed}")
        grid = inspect.signature(experiments.fig6_machine_scaling).parameters
        n = self.plan["fig6ms"].get("n", grid["n"].default)
        tile = self.plan["fig6ms"].get("tile", grid["tile"].default)
        for row in rng.sample(self.ms_rows, min(GATE_SAMPLES, len(self.ms_rows))):
            mach = machine.assoc_scaled(row["l1_assoc"], row["l2_assoc"],
                                        row["tlb_entries"])
            self._check("fig6ms", row["algorithm"], row["layout"], n, tile, mach,
                        row["cycles_per_flop"])

    def stream_base(self, builds: list) -> None:
        """Time the streaming simulator on the traces the profiles were
        built from: the base of ``multiconfig.build_over_stream``."""
        from repro.memsim import hierarchy
        total = 0.0
        for addresses, mach in builds:
            t0 = time.perf_counter()
            hierarchy.simulate_hierarchy(addresses, mach)
            total += time.perf_counter() - t0
        self.extra["stream_base_s"] = total


class SimExplore(Workload):
    def setup(self) -> None:
        from repro.serve.client import ServeClient
        self.plan = ops.explore_ops(self.args.seed, self.args.seconds, self.args.smoke)
        self.proc = self.server = self.client = None
        if self.args.hosting == "subprocess":
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
                 "--port", "0", "--jobs", "1"],
                stdout=subprocess.PIPE, text=True,
            )
            line = self.proc.stdout.readline()
            if "listening on " not in line:
                raise RuntimeError(f"server did not start: {line!r}")
            url = line.split("listening on ", 1)[1].split()[0]
            threading.Thread(target=self.proc.stdout.read, daemon=True).start()
        else:
            # In-process hosting for the traced pair, so the wrappers see
            # the service's store, sweep and query calls.  Obs is on, as
            # in ``repro serve`` itself.
            from repro import obs
            from repro.serve.server import make_server
            obs.set_enabled(True)
            self.server = make_server("127.0.0.1", 0, pool_jobs=1)
            self.thread = threading.Thread(target=self.server.serve_forever,
                                           daemon=True)
            self.thread.start()
            url = f"http://127.0.0.1:{self.server.server_address[1]}"
        self.client = ServeClient(url)
        code, payload = self.client.sweep("fig6ms", {}, jobs=1)
        if code != 200 or payload.get("status") != "done":
            raise RuntimeError(f"warm-up request failed: {code} {payload}")

    def _snapshot(self) -> tuple[dict, dict]:
        code, payload = self.client.metrics()
        if code != 200:
            raise RuntimeError(f"/metrics answered {code}")
        return payload["metrics"]["counters"], payload["store"]

    def run(self) -> float:
        rng = random.Random(f"gate:{self.args.seed}")
        fresh = [i for i, op in enumerate(self.plan) if op["repeat_of"] is None]
        repeated = [i for i, op in enumerate(self.plan) if op["repeat_of"] is not None]
        self.gate_ids = set(rng.sample(fresh, min(GATE_SAMPLES - 1, len(fresh))))
        self.gate_ids.update(rng.sample(repeated, min(1, len(repeated))))
        self.served: dict[int, list] = {}
        counters0, store0 = self._snapshot()
        bytes0 = store_bytes(self.store_dir)
        t_start = time.perf_counter()
        for i, op in enumerate(self.plan):
            t0 = time.perf_counter()
            try:
                code, payload = self.client.sweep("fig6ms", op["params"], jobs=1)
            except OSError as exc:
                code, payload = None, {"error": str(exc)}
            self.latencies_ms.append((time.perf_counter() - t0) * 1e3)
            self.attempted += 1
            if code != 200 or payload.get("status") != "done":
                self.fail(1, f"request {i}: {code} {payload.get('error')}")
            elif i in self.gate_ids:
                self.served[i] = payload["rows"]
        wall = time.perf_counter() - t_start
        counters1, store1 = self._snapshot()
        self.extra.update(store_extra(bytes0, store_bytes(self.store_dir), store0, store1))
        self.extra["serve.requests"] = len(self.plan)
        self.extra["serve.request_s"] = sum(self.latencies_ms) / 1e3
        for name, key in (("serve.coalesced", "serve.coalesced"),
                          ("serve.jobs_retried", "serve.jobs.retried")):
            self.extra[name] = counters1.get(key, 0) - counters0.get(key, 0)
        if self.server is not None:
            self.peak_rss_mb = peak_rss_mb()  # service and client share it
        return wall

    def close(self) -> None:
        if self.proc is not None:
            try:
                if self.client is None:
                    raise OSError("no client")
                self.client.shutdown()
                self.proc.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
            # The service is the program: its peak, not the client's.
            self.peak_rss_mb = peak_rss_mb(resource.RUSAGE_CHILDREN)
            self.proc = None
        if self.server is not None:
            self.server.shutdown()
            self.server.app.shutdown_manager()
            self.server.server_close()
            self.thread.join(timeout=10)
            self.server = None

    def gate(self) -> None:
        if self.proc is not None:
            self.close()
            # Recompute in this process against a store of its own.
            os.environ["REPRO_TRACE_CACHE_DIR"] = str(self.store_dir) + "-gate"
        from repro.analysis.experiments import fig6_machine_scaling
        for i in sorted(self.served):
            local = fig6_machine_scaling(**self.plan[i]["params"], jobs=1)
            if json.dumps(local, sort_keys=True) != json.dumps(self.served[i],
                                                               sort_keys=True):
                self.fail(1, f"request {i}: served rows differ from in-process rows")


class Multiply(Workload):
    def setup(self) -> None:
        import numpy as np
        # The module, not the function ``repro.algorithms`` re-exports
        # under the same name: the traced run wraps the module attribute.
        self.dgemm = importlib.import_module("repro.algorithms.dgemm")
        self.plan = ops.multiply_ops(self.args.seed, self.args.seconds, self.args.smoke)
        warm = np.ones((64, 64))
        self.dgemm.dgemm(warm, warm)
        warm @ warm

    def run(self) -> float:
        import numpy as np
        dgemm = self.dgemm
        numpy_s = 0.0
        conv_bytes = add_elements = leaf_flops = flops = 0
        for i, op in enumerate(self.plan):
            rng = np.random.default_rng([self.args.seed, i])
            a = rng.standard_normal((op["m"], op["k"]) if op["op_a"] == "N"
                                    else (op["k"], op["m"]))
            b = rng.standard_normal((op["k"], op["n"]) if op["op_b"] == "N"
                                    else (op["n"], op["k"]))
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                res = dgemm.dgemm(a, b, op_a=op["op_a"], op_b=op["op_b"],
                                  algorithm=op["algorithm"], layout=op["layout"])
            except Exception as exc:
                self.latencies_ms.append((time.perf_counter() - t0) * 1e3)
                self.fail(1, f"dgemm {op}: {type(exc).__name__}: {exc}")
                continue
            self.latencies_ms.append((time.perf_counter() - t0) * 1e3)
            # Outside the timed calls (wall_s sums the dgemm calls only):
            # the numpy reference and the check.
            t0 = time.perf_counter()
            ref = (a.T if op["op_a"] == "T" else a) @ (b.T if op["op_b"] == "T" else b)
            numpy_s += time.perf_counter() - t0
            err = np.max(np.abs(res.c - ref)) / max(np.max(np.abs(ref)), 1e-300)
            if not err <= TOLERANCE[op["algorithm"]]:
                self.fail(1, f"dgemm {op}: relative error {err:.3g}")
            conv_bytes += res.conversion.bytes
            add_elements += res.counters.add_elements
            leaf_flops += res.counters.multiply_flops
            flops += res.counters.total_flops
        self.peak_rss_mb = peak_rss_mb()
        wall = sum(self.latencies_ms) / 1e3
        self.extra.update({
            "slowdown_vs_numpy": wall / numpy_s if numpy_s else 0.0,
            "convert.bytes": conv_bytes, "add.elements": add_elements,
            "leaf.flops": leaf_flops, "dgemm.flops": flops,
        })
        return wall


WORKLOADS = {"sim_cold": SimCold, "sim_explore": SimExplore, "multiply": Multiply}


def provenance() -> dict:
    from repro import knobs
    from repro.obs.manifest import git_revision
    import numpy
    return {
        "git": git_revision(),
        "knobs": {name: info["value"] for name, info in knobs.effective().items()},
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--phase", required=True, choices=("setup", "run", "traced"))
    p.add_argument("--hosting", default="subprocess",
                   choices=("subprocess", "inprocess"))
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)

    import repro
    src = Path(os.environ["E2EBENCH_SRC"]).resolve()
    if Path(repro.__file__).resolve().parent.parent != src:
        raise RuntimeError(f"imported repro from {repro.__file__}, not {src}")
    wl = WORKLOADS[args.workload](args)
    try:
        wl.setup()
        emit("ready", t=time.monotonic())
        if args.phase == "setup":
            return 0
        tracer = Tracer() if args.phase == "traced" else None
        builds = layers.install(tracer) if tracer else []
        try:
            wall = wl.run()
        finally:
            if tracer:
                tracer.restore()
        if isinstance(wl, SimCold) and tracer:
            wl.stream_base(builds)
        del builds
        origin = provenance()
        try:
            wl.gate()
        except Exception as exc:  # the gate itself broke: every check fails
            wl.fail(max(1, GATE_SAMPLES), f"gate: {type(exc).__name__}: {exc}")
    finally:
        wl.close()
    emit(
        "result",
        wall_s=wall,
        op_p50_ms=percentile(wl.latencies_ms, 50),
        op_p90_ms=percentile(wl.latencies_ms, 90),
        samples=len(wl.latencies_ms),
        peak_rss_mb=wl.peak_rss_mb,
        attempted=wl.attempted,
        failed=wl.failed,
        errors=wl.errors,
        extra=wl.extra,
        spans=tracer.summary() if tracer else None,
        counts=dict(tracer.counts) if tracer else None,
        provenance=origin,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
