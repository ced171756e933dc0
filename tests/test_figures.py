"""The figure registry (:mod:`repro.analysis.figures`): each figure's
parameters and defaults are declared once, by its driver signature, and
the CLI and the simulation service derive theirs from it."""

import inspect
import subprocess
import sys

import pytest

from repro.__main__ import build_parser
from repro.analysis.figures import FIGURES, SWEEP_FIGURES
from repro.serve import protocol


def _signature_defaults(spec):
    return {
        name: p.default
        for name, p in inspect.signature(spec.driver).parameters.items()
        if name != "jobs"
    }


@pytest.mark.parametrize("figure", sorted(FIGURES))
def test_cli_defaults_are_the_driver_defaults(figure):
    """Every parsed CLI default equals the driver's signature default."""
    args = vars(build_parser().parse_args([figure]))
    defaults = _signature_defaults(FIGURES[figure])
    on_cli = {name: args[name] for name in defaults if name in args}
    assert on_cli == {name: defaults[name] for name in on_cli}
    # Only parameters the command line cannot spell are left off it.
    for name in set(defaults) - set(on_cli):
        assert FIGURES[figure].params[name].kind not in (
            "int", "str", "bool", "Sequence[int]", "Sequence[str]"
        )


@pytest.mark.parametrize("figure", SWEEP_FIGURES)
def test_served_defaults_are_the_driver_defaults(figure):
    """``{"figure": f, "params": {}}`` canonicalizes to the driver
    defaults, every one of a kind the protocol checks."""
    spec = FIGURES[figure]
    assert all(p.kind in protocol._KINDS for p in spec.params.values())
    request = protocol.parse_request({"figure": figure, "params": {}})
    assert request.params == {
        name: protocol._encode(value)
        for name, value in _signature_defaults(spec).items()
    }


def test_cli_flags_keep_their_short_spellings():
    args = build_parser().parse_args(["sharing", "--n", "61", "100"])
    assert args.n_values == [61, 100]
    args = build_parser().parse_args(["fig5", "--n-values", "60", "64"])
    assert args.n_values == [60, 64]
    args = build_parser().parse_args(["fig4", "--no-include-memsim", "-j", "2"])
    assert args.include_memsim is False and args.jobs == 2


def test_fig4_grid_skips_tiles_above_n():
    spec = FIGURES["fig4"]
    points = spec.sweep(spec.resolve({"n": 16, "tiles": (4, 8, 16, 32)}))
    assert [p.kwargs()["tile"] for p in points] == [4, 8, 16]
    assert [p.index for p in points] == [0, 1, 2]


def test_resolve_rejects_unknown_and_missing_params():
    with pytest.raises(ValueError, match="unknown param"):
        FIGURES["fig1"].resolve({"bogus": 1})
    with pytest.raises(ValueError, match="required"):
        protocol._FAULT.resolve({})


def test_render_prints_title_columns_and_missing_cells():
    out = FIGURES["fig6sim"].render(
        {"n": 8}, [{"algorithm": "standard", "layout": "LZ", "vs_LC": 0.5}]
    ).splitlines()
    assert out[0] == "Figure 6 (simulated memory cost, n=8)"
    assert out[1].split() == ["algorithm", "layout", "sim", "cycles/flop",
                              "vs", "LC"]
    assert out[3].split() == ["standard", "LZ", "-", "0.5"]


def test_importing_the_drivers_stays_lean():
    """The drivers import neither the service nor the CLI machinery."""
    code = (
        "import sys, repro.analysis.experiments; "
        "print(sorted(m for m in ('repro.serve', 'http.server', 'argparse') "
        "if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_fault_grid_marks_one_kill_point(monkeypatch):
    monkeypatch.setenv("REPRO_SERVE_TEST_HOOKS", "1")
    request = protocol.parse_request({
        "figure": "fault", "params": {"sentinel_dir": "/x", "points": 3},
    })
    points, merge = protocol.build_sweep(request)
    assert [p.kwargs()["kill"] for p in points] == [True, False, False]
    assert [p.kwargs()["index"] for p in points] == [0, 1, 2]
    assert merge([{"index": 0}]) == [{"index": 0}]
