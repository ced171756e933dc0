"""Golden-figure regression tests: the sweep drivers are deterministic.

Small-grid outputs of every sweep figure in the registry
(:data:`repro.analysis.figures.FIGURES`) are committed as JSON under
``tests/golden/``.  Each test regenerates its grid with
``REPRO_DETERMINISTIC_TIMING=1`` (wall-clock fields collapse to 0.0 —
everything else is exact simulation) and asserts the serialized rows are
*byte-identical* to the golden file — first serially, then under
``REPRO_JOBS=2`` and ``REPRO_JOBS=4`` process pools, which proves the
parallel executor's determinism contract end to end: same rows, same
order, same bytes, regardless of worker count or completion order.

Regenerate after an intentional modeling change with::

    python -m pytest tests/test_golden_figures.py --update-golden
"""

import functools
import json
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from repro.analysis import parallel as parallel_mod
from repro.analysis.figures import FIGURES, SWEEP_FIGURES
from repro.matrix.tile import TileRange
from repro.memsim import store as store_mod
from repro.memsim.hierarchy import simulate_hierarchy
from repro.memsim.machine import assoc_scaled, scaled
from repro.memsim.store import TraceStore, cached_multiply_stats
from repro.memsim.trace import expand_trace, trace_multiply

GOLDEN_DIR = Path(__file__).parent / "golden"

MACH = scaled(4)

#: Small golden-grid params of every sweep figure in the registry; a
#: sweep figure without an entry here (or without a golden file) fails.
PARAMS = {
    "fig4": dict(n=32, tiles=(4, 8), repeats=1, machine=MACH,
                 include_memsim=True),
    "fig5": dict(n_values=(56, 60, 64), tile=8, machine=MACH),
    "fig6": dict(n=32, algorithms=("strassen",), layouts=("LZ", "LH"),
                 procs=(1, 2), trange=TileRange(8, 16), repeats=1),
    "fig6sim": dict(n=48, tile=8, algorithms=("standard", "strassen"),
                    layouts=("LC", "LZ"), machine=MACH),
    "fig6ms": dict(n=32, tile=8, algorithms=("standard", "strassen"),
                   layouts=("LC", "LZ"), l1_assocs=(1, 2), l2_assocs=(1, 2),
                   tlb_entries=(8,)),
}

#: name -> driver thunk; every thunk takes only ``jobs`` so the serial
#: and parallel tests run the exact same grid.
CASES = {
    name: (lambda jobs, name=name: FIGURES[name].driver(**PARAMS[name], jobs=jobs))
    for name in SWEEP_FIGURES
}


def _serialize(rows) -> bytes:
    return (json.dumps(rows, indent=2, sort_keys=True) + "\n").encode()


@pytest.fixture(autouse=True)
def _deterministic_timing(monkeypatch):
    # Workers inherit os.environ, so the flag reaches the pool too.
    monkeypatch.setenv("REPRO_DETERMINISTIC_TIMING", "1")


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_serial(name, request):
    """Serial driver output matches the committed golden bytes."""
    blob = _serialize(CASES[name](1))
    path = GOLDEN_DIR / f"{name}.json"
    if request.config.getoption("--update-golden"):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(blob)
        pytest.skip(f"updated {path}")
    assert path.exists(), (
        f"missing golden file {path}; run with --update-golden to create it"
    )
    assert path.read_bytes() == blob, (
        f"{name} driver output drifted from {path}; if the change is "
        f"intentional, rerun with --update-golden"
    )


@pytest.mark.parametrize("jobs", [2, 4])
@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_parallel(name, jobs, request):
    """Process-pool output is byte-identical to the golden (serial) bytes."""
    if request.config.getoption("--update-golden"):
        pytest.skip("golden files update from the serial run only")
    path = GOLDEN_DIR / f"{name}.json"
    assert path.exists(), f"missing golden file {path}"
    assert path.read_bytes() == _serialize(CASES[name](jobs))


#: The memsim-backed figures: their stats go through the trace store.
SIM_CASES = ("fig4", "fig5", "fig6sim", "fig6ms")


def test_every_sweep_figure_has_a_golden_file():
    """A new sweep figure must bring its golden grid along."""
    assert set(PARAMS) == set(SWEEP_FIGURES)
    assert set(SIM_CASES) <= set(SWEEP_FIGURES)
    for name in SWEEP_FIGURES:
        assert (GOLDEN_DIR / f"{name}.json").exists(), name


@pytest.fixture
def fresh_store(tmp_path, monkeypatch):
    """Route the process-wide store (and pool workers') at an empty,
    enabled root, so every point really simulates."""
    monkeypatch.setenv("REPRO_TRACE_CACHE", "1")
    monkeypatch.setenv("REPRO_TRACE_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setattr(store_mod, "_DEFAULT", None)
    return store_mod.default_store()


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("name", SIM_CASES)
def test_golden_fresh_store(name, jobs, fresh_store, request):
    """Goldens hold byte-identical through a cold store, serially and
    under a 2-worker pool.  Each trace's first configuration streams;
    fig6ms's later group members build and query the reuse profile, so
    both engines fill rows."""
    if request.config.getoption("--update-golden"):
        pytest.skip("golden files update from the serial run only")
    path = GOLDEN_DIR / f"{name}.json"
    assert path.exists(), f"missing golden file {path}"
    assert path.read_bytes() == _serialize(CASES[name](jobs))
    counters = fresh_store.counters()  # pool workers' deltas merged in
    assert counters["stats_misses"] > 0
    # Only fig6ms prices one trace on several machines of one family.
    assert (counters["profile_misses"] > 0) == (name == "fig6ms")


@pytest.fixture
def forked_pool(monkeypatch):
    """Start sweep pools with ``fork``, so module patches made by a test
    reach the workers whatever the platform's default start method."""
    monkeypatch.setattr(
        parallel_mod,
        "ProcessPoolExecutor",
        functools.partial(
            ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork")
        ),
    )


def _refuse(what):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{what} ran on a leg that must not take it")

    return refuse


def _executed_multiply_builder(algorithm, layout, n, tile, machine, mode, depth):
    def build():
        events, sizes = trace_multiply(
            algorithm, layout, n, tile, mode=mode, depth=depth
        )
        return expand_trace(events, machine, sizes)

    return build


def _executed_synthetic_builder(source, machine, params):
    def build():
        return expand_trace(store_mod._SYNTHETIC_SOURCES[source](**params), machine)

    return build


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("synthesis", ["1", "0"])
@pytest.mark.parametrize("name", SIM_CASES)
def test_golden_synthesis_toggle(
    name, synthesis, jobs, forked_pool, monkeypatch, request
):
    """Goldens hold byte-identical with the store's traces built by
    symbolic synthesis ("1", production) and by the executed tracer
    expanded event by event ("0", the oracle), serially and under a
    2-worker pool.

    The trace cache is disabled so each leg really computes its traces
    through the selected path instead of reading the other leg's bytes;
    on the executed leg the synthesis entry points raise if called.
    """
    if request.config.getoption("--update-golden"):
        pytest.skip("golden files update from the serial run only")
    monkeypatch.setenv("REPRO_TRACE_CACHE", "0")
    monkeypatch.setattr(store_mod, "_DEFAULT", None)
    if synthesis == "0":
        monkeypatch.setattr(store_mod, "_multiply_builder", _executed_multiply_builder)
        monkeypatch.setattr(
            store_mod, "_synthetic_builder", _executed_synthetic_builder
        )
        monkeypatch.setattr(store_mod, "synthesize_multiply", _refuse("synthesis"))
        monkeypatch.setattr(store_mod, "expand_table", _refuse("table expansion"))
    path = GOLDEN_DIR / f"{name}.json"
    assert path.exists(), f"missing golden file {path}"
    assert path.read_bytes() == _serialize(CASES[name](jobs))


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("multiconfig", ["1", "0"])
@pytest.mark.parametrize("name", SIM_CASES)
def test_golden_multiconfig_toggle(
    name, multiconfig, jobs, fresh_store, forked_pool, monkeypatch, request
):
    """Goldens hold byte-identical with every stats miss answered from
    the shared reuse-distance profile ("1") and with every miss streamed
    through ``simulate_hierarchy`` ("0", the oracle), serially and under
    a 2-worker pool.

    Each leg starts from an empty store and pins the store's engine
    choice, so every point simulates through the selected engine; the
    other engine raises if called.
    """
    if request.config.getoption("--update-golden"):
        pytest.skip("golden files update from the serial run only")
    profiled = multiconfig == "1"
    monkeypatch.setattr(TraceStore, "_use_profile", lambda self, key: profiled)
    if profiled:
        monkeypatch.setattr(store_mod, "simulate_hierarchy", _refuse("streaming"))
    else:
        monkeypatch.setattr(store_mod, "build_profile", _refuse("a profile build"))
    path = GOLDEN_DIR / f"{name}.json"
    assert path.exists(), f"missing golden file {path}"
    assert path.read_bytes() == _serialize(CASES[name](jobs))
    counters = fresh_store.counters()  # pool workers' deltas merged in
    assert counters["stats_misses"] > 0
    assert (counters["profile_misses"] > 0) == profiled


@pytest.mark.parametrize("name", ["fig6sim", "fig6ms"])
def test_golden_points_match_executed_oracle(name, tmp_path):
    """Every golden fig6sim and fig6ms point, priced through a cold store
    (symbolic synthesis; streaming, then the reuse profile), equals the
    executed tracer's expanded trace streamed through
    ``simulate_hierarchy``."""
    spec = FIGURES[name]
    store = TraceStore(root=tmp_path, enabled=True)
    for point in spec.sweep(spec.resolve(PARAMS[name])):
        kw = point.kwargs()
        machine = kw.get("machine") or assoc_scaled(
            kw["l1_assoc"], kw["l2_assoc"], kw["tlb_entries"]
        )
        trace = (kw["algorithm"], kw["layout"], kw["n"], kw["tile"])
        events, sizes = trace_multiply(*trace)
        want = simulate_hierarchy(expand_trace(events, machine, sizes), machine)
        assert cached_multiply_stats(*trace, machine, store=store) == want, kw
    assert (store.profile_misses > 0) == (name == "fig6ms")


def test_seconds_fields_zeroed_under_deterministic_timing():
    """The flag really does zero every wall-clock-derived field."""
    rows = CASES["fig4"](1)
    assert all(r["seconds"] == 0.0 for r in rows)
    assert all(r["conversion_fraction"] == 0.0 for r in rows)
