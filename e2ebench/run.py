"""End-to-end benchmark of the repro pipeline.

Run from the root of a source checkout::

    python3 e2ebench/run.py --workload sim_cold --seed 1 --seconds 20 --trace 0

Workloads (``metrics.WORKLOADS`` says why each exists):

* ``sim_cold``    cold-store ``fig6_simulated`` points at n=250/tile=16
  plus the default ``fig6_machine_scaling`` grid, in process;
* ``sim_explore`` a closed-loop client sending seeded ``fig6ms``
  requests to ``python -m repro serve``;
* ``multiply``    seeded ``dgemm`` calls over 3 algorithms x 6 layouts.

Each run splits ``--seconds`` over ``PASSES`` passes of the same seeded
work, each in a fresh child process (``worker.py``) with a fresh trace
store, and reports the median over passes.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs each untraced pass beside a pass
that wraps every layer boundary, and prints the per-layer metrics
(``layers.py``).  The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the effective knobs and git revision.  ``failed`` counts
operations that raised or whose output failed its check (the error
rate is ``failed / attempted``); any failure makes the exit code 1.

Set-up time runs from spawning a child to its ready signal (boot,
imports, warm-up; for sim_explore, server start and profile warm-up),
sampled at least three times per run.  Latency percentiles interpolate
between ranks; sim_cold's are over its n=250 points, two per run at the
default run length, so its p50 is their mean.

Every run is isolated: its own trace-store root under ``.e2ebench/``,
``REPRO_JOBS=1``, obs and deterministic timing off, BLAS on one thread,
and no other ``REPRO_*`` setting inherited.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import metrics  # noqa: E402

#: Each run repeats its timed phase this many times, each in a fresh
#: child with a fresh store, and reports the median of each metric: the
#: host's speed drifts by a third for seconds at a time, and the median
#: of three passes sets one slow stretch aside.  A cold n=250 point is
#: too expensive to repeat, so sim_cold runs once.
PASSES = {"sim_cold": 1, "sim_explore": 3, "multiply": 3}
#: Set-up is measured at least this many times per end-to-end run.
SETUP_SAMPLES = 3
#: Whole-run budget; children still running at the deadline are killed.
DEADLINE_S = 170.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "NUMEXPR_NUM_THREADS")


class ChildFailed(RuntimeError):
    pass


def kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def child_env(root: Path, store: Path) -> dict[str, str]:
    """The isolated environment of one child: nothing ``REPRO_*``
    inherited, the knobs that matter pinned."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    run_dir = store.parent
    env.update({
        "PYTHONPATH": os.pathsep.join(
            [str(root / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]),
        "PYTHONHASHSEED": "0",
        "TMPDIR": str(run_dir),
        "E2EBENCH_SRC": str(root / "src"),
        "REPRO_TRACE_CACHE_DIR": str(store),
        "REPRO_JOBS": "1",
        "REPRO_SERVE_JOBS": "1",
        "REPRO_OBS": "0",
        "REPRO_OBS_DIR": str(run_dir / "obs"),
        "REPRO_DETERMINISTIC_TIMING": "0",
        "REPRO_PERF_HISTORY": "0",
        "REPRO_PERF_HISTORY_DIR": str(run_dir / "history"),
    })
    return env


def run_child(args: argparse.Namespace, root: Path, store: Path, phase: str,
              seconds: float, deadline: float, hosting: str = "subprocess") -> dict:
    """Run one worker phase; its ``result`` event plus ``setup_s``."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds),
           "--phase", phase, "--hosting", hosting]
    if args.smoke:
        cmd.append("--smoke")
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=root, env=child_env(root, store),
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    # Kill the whole process group (the worker may run a server) at the
    # deadline; the read loop below then sees end-of-file.
    timer = threading.Timer(max(0.0, deadline - time.monotonic()),
                            kill_group, (proc.pid,))
    timer.start()
    events: dict[str, dict] = {}
    try:
        for line in proc.stdout:
            if line.startswith("E2E "):
                event = json.loads(line[4:])
                events[event["event"]] = event
            else:
                sys.stderr.write(line)
        proc.wait()
    finally:
        timer.cancel()
        kill_group(proc.pid)  # a worker that died early, or its server
        proc.wait()
    want = "ready" if phase == "setup" else "result"
    if proc.returncode != 0 or want not in events or "ready" not in events:
        raise ChildFailed(f"{phase} child exited {proc.returncode} "
                          f"without a {want} event")
    result = events.get("result", {})
    result["setup_s"] = events["ready"]["t"] - started
    return result


def measure(args: argparse.Namespace, root: Path, run_dir: Path) -> tuple[dict, list]:
    deadline = time.monotonic() + DEADLINE_S
    passes = PASSES[args.workload]

    def one(phase: str, tag: str, hosting: str = "subprocess") -> dict:
        return run_child(args, root, run_dir / tag, phase, args.seconds / passes,
                         deadline, hosting)

    if not args.trace:
        results = [one("run", f"pass{i}") for i in range(passes)]
        setups = [r["setup_s"] for r in results]
        setups += [one("setup", f"setup{i}")["setup_s"]
                   for i in range(SETUP_SAMPLES - len(setups))]
        values = {"setup_s": statistics.median(setups)}
        for name in ("wall_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb"):
            values[name] = statistics.median(r[name] for r in results)
        return values, results
    # Each untraced pass runs beside its traced twin, one per CPU, so both
    # see the same host speed; both host the service the same way (in
    # process), so their wall-time ratio is the tracing overhead.
    base, traced, per_pass = [], [], []
    with ThreadPoolExecutor(max_workers=2) as pool:
        for i in range(passes):
            twins = [pool.submit(one, phase, f"{phase}{i}", "inprocess")
                     for phase in ("run", "traced")]
            base.append(twins[0].result())
            traced.append(twins[1].result())
            extra = dict(traced[-1]["extra"])
            extra["slowdown_vs_numpy"] = base[-1]["extra"].get("slowdown_vs_numpy", 0.0)
            per_pass.append(layers.derive(traced[-1]["spans"], traced[-1]["counts"],
                                          extra))
    values = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    values["trace.overhead_frac"] = statistics.median(
        t["wall_s"] / b["wall_s"] for b, t in zip(base, traced)) - 1.0
    return values, base + traced


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=[w.name for w in metrics.WORKLOADS])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=metrics.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes, for the benchmark's own tests")
    args = p.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no repro source tree under {root}/src", file=sys.stderr)
        return 2
    runs = root / ".e2ebench"
    runs.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=runs))
    try:
        values, results = measure(args, root, run_dir)
    except ChildFailed as exc:
        print(f"e2ebench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    for r in results:
        for message in r["errors"]:
            print(f"e2ebench: FAILED {message}", file=sys.stderr)
    print("provenance: " + json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": PASSES[args.workload],
        "samples_per_pass": results[-1]["samples"],
        **results[-1]["provenance"],
    }, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": metrics.UNITS[name]}
                    for name, value in values.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
