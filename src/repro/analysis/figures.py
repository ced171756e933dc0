"""The figure registry: one :class:`FigureSpec` per paper figure/table.

A figure's parameters, their types and their defaults are declared once,
as its driver's signature in :mod:`repro.analysis.experiments`.  The
spec adds only what the front ends need around the driver: the point
grid and merge step of a sweep figure, and the table a run prints.
``python -m repro <figure>``, the simulation service's request schema
(:mod:`repro.serve.protocol`) and the golden and sweep tests all derive
from :data:`FIGURES`, so a new figure is its driver plus one entry here.

A parameter's *kind* is its driver annotation as written (the driver
modules postpone annotation evaluation): ``"int"``, ``"Sequence[str]"``,
``"MachineModel"`` and so on.  Each front end maps the kinds it can
express and leaves any other parameter at the driver default.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import itertools
from typing import Any, Callable, Mapping

from repro.analysis import experiments
from repro.analysis.parallel import SweepPoint, make_point
from repro.analysis.report import ascii_plot, format_table
from repro.layouts import render_order_grid
from repro.memsim.machine import assoc_scaled
from repro.memsim.store import trace_address

__all__ = ["FIGURES", "SWEEP_FIGURES", "FigureSpec", "Grid", "Param"]

Row = dict[str, Any]
Params = dict[str, Any]
#: A table column: a row key, or a ``(header, key)`` pair.
Column = str | tuple[str, str]


@dataclasses.dataclass(frozen=True)
class Param:
    """One figure parameter, read off the driver signature."""

    name: str
    kind: str
    default: Any

    @property
    def required(self) -> bool:
        """True when the driver gives the parameter no default."""
        return self.default is inspect.Parameter.empty


@dataclasses.dataclass(frozen=True)
class Grid:
    """A sweep figure's point grid: the product of its list parameters.

    ``axes`` maps each iterated list parameter to the point-function
    keyword its elements bind, outermost loop first.  Every other
    parameter passes through to each point (lists as tuples, so points
    stay hashable).  ``extra`` adds keywords derived from the whole
    parameter set, ``keep`` drops points that do not apply, and
    ``group`` names the trace a point shares with its siblings (see
    :attr:`~repro.analysis.parallel.SweepPoint.group`).  When
    ``group_by`` names the keywords the group depends on, ``group`` runs
    once per distinct value of them instead of once per point.
    """

    point: str
    axes: Mapping[str, str]
    group: Callable[[Params], str | None] | None = None
    group_by: tuple[str, ...] = ()
    keep: Callable[[Params], bool] | None = None
    extra: Callable[[Params], Params] | None = None

    def __call__(self, figure: str, params: Params) -> list[SweepPoint]:
        fixed = {
            k: tuple(v) if isinstance(v, list) else v
            for k, v in params.items()
            if k not in self.axes
        }
        if self.extra is not None:
            fixed.update(self.extra(params))
        names = tuple(self.axes.values())
        groups: dict[tuple[Any, ...], str | None] = {}
        points: list[SweepPoint] = []
        for values in itertools.product(*(params[a] for a in self.axes)):
            kwargs = fixed.copy()
            kwargs.update(zip(names, values))
            if self.keep is not None and not self.keep(kwargs):
                continue
            group = None
            if self.group is not None:
                key = (tuple(kwargs[k] for k in self.group_by)
                       if self.group_by else values)
                if key not in groups:
                    groups[key] = self.group(kwargs)
                group = groups[key]
            points.append(
                make_point(figure, len(points), self.point, group=group, **kwargs)
            )
        return points


@dataclasses.dataclass(frozen=True)
class FigureSpec:
    """One figure: its driver plus what the front ends need around it.

    ``points`` and ``merge`` make a sweep figure, which the simulation
    service serves: ``points(name, params)`` builds the grid the driver
    runs and ``merge(raw, params)`` turns the gathered point rows into
    figure rows (identity when None).  ``title`` is a format string over
    the parameters; ``columns`` and ``title`` make the printed table,
    with ``preface`` and ``notes`` printed before and after it.
    ``flags`` adds CLI spellings of a parameter beyond ``--name``.
    """

    name: str
    driver: Callable[..., list[Row]]
    help: str
    title: str
    columns: tuple[Column, ...]
    points: Callable[[str, Params], list[SweepPoint]] | None = None
    merge: Callable[[list[Row], Params], list[Row]] | None = None
    flags: Mapping[str, tuple[str, ...]] = dataclasses.field(default_factory=dict)
    preface: Callable[[Params], str] | None = None
    notes: Callable[[Params, list[Row]], str] | None = None

    @functools.cached_property
    def params(self) -> dict[str, Param]:
        """The driver's parameters, except the ``jobs`` execution width."""
        return {
            p.name: Param(p.name, str(p.annotation), p.default)
            for p in inspect.signature(self.driver).parameters.values()
            if p.name != "jobs"
        }

    def resolve(self, given: Mapping[str, Any]) -> Params:
        """Every parameter's value: ``given`` where set, else the default."""
        unknown = sorted(set(given) - set(self.params))
        if unknown:
            raise ValueError(f"{self.name}: unknown param(s) {unknown}")
        out: Params = {}
        for p in self.params.values():
            if p.name not in given and p.required:
                raise ValueError(f"{self.name}: param {p.name!r} is required")
            out[p.name] = given.get(p.name, p.default)
        return out

    def sweep(self, params: Params) -> list[SweepPoint]:
        """The point grid for fully resolved ``params``."""
        if self.points is None:
            raise ValueError(f"{self.name} is not a sweep figure")
        return self.points(self.name, params)

    def render(self, params: Params, rows: list[Row]) -> str:
        """The figure's printed form: preface, table, notes."""
        pairs = [(c, c) if isinstance(c, str) else c for c in self.columns]
        table = format_table(
            [head for head, _ in pairs],
            [[row.get(key, "-") for _, key in pairs] for row in rows],
            self.title.format(**params),
        )
        parts = [table]
        if self.preface is not None:
            parts.insert(0, self.preface(params))
        if self.notes is not None:
            parts.append(self.notes(params, rows))
        return "\n\n".join(parts)


# -- per-figure hooks ---------------------------------------------------


def _multiply_trace(kw: Params, machine: Any) -> str:
    """Sharing group of a multiply point: its trace's content address."""
    address: str = trace_address(
        kw["algorithm"], kw["layout"], kw["n"], kw["tile"], machine
    )
    return address


def _order_grids(params: Params) -> str:
    return "\n\n".join(
        f"--- {name} ---\n{render_order_grid(name, params['order'])}"
        for name in ("LR", "LC", "LU", "LX", "LZ", "LG", "LH")
    )


def _slowdown_note(params: Params, rows: list[Row]) -> str:
    out = experiments.slowdown_vs_native(
        n=params["n"], tile=32, repeats=params["repeats"]
    )
    return f"slowdown vs native BLAS at t=32: {out['slowdown']:.2f}x"


_FIG5_SERIES = ("standard_LC", "standard_LZ", "strassen_LC", "strassen_LZ")


def _fig5_plot(params: Params, rows: list[Row]) -> str:
    plot: str = ascii_plot(
        {k: [r[k] for r in rows] for k in _FIG5_SERIES}, x=[r["n"] for r in rows]
    )
    return plot


# -- the registry ------------------------------------------------------

#: Figure name (the CLI subcommand and the served ``figure``) -> spec.
FIGURES: dict[str, FigureSpec] = {
    spec.name: spec
    for spec in (
        FigureSpec(
            "fig1", experiments.fig1_locality, "locality footprints (Figure 1)",
            "Figure 1: locality footprints ({n}x{n})",
            ("algorithm", "input", "min", "mean", "max", "argmax",
             ("diag mean", "diag_mean")),
        ),
        FigureSpec(
            "fig2", experiments.fig2_layouts, "layout gallery (Figure 2)",
            "Dilation statistics",
            ("layout", ("mean jump", "mean"), ("max jump", "max"),
             ("unit fraction", "unit_fraction")),
            preface=_order_grids,
        ),
        FigureSpec(
            "fig4", experiments.fig4_tile_size_sweep,
            "tile-size sweep (Figure 4)", "Figure 4: tile-size sweep (n={n})",
            ("tile", "seconds", ("sim cycles/flop", "sim_cycles_per_flop"),
             ("L1 miss rate", "l1_miss_rate")),
            points=Grid(
                "fig4.point", {"tiles": "tile"},
                group=lambda kw: (
                    _multiply_trace(kw, kw["machine"])
                    if kw["include_memsim"] else None
                ),
                keep=lambda kw: bool(kw["tile"] <= kw["n"]),
            ),
            notes=_slowdown_note,
        ),
        FigureSpec(
            "fig5", experiments.fig5_robustness, "robustness scan (Figure 5)",
            "Figure 5: simulated memory cycles per flop",
            ("n", *_FIG5_SERIES),
            points=Grid(
                "fig5.point", {"n_values": "n"},
                # One tile-grid depth for the whole sweep: the one the
                # smallest n implies.
                extra=lambda p: {
                    "depth": max(0, (min(p["n_values"]) // p["tile"]).bit_length() - 1)
                },
            ),
            notes=_fig5_plot,
        ),
        FigureSpec(
            "fig6", experiments.fig6_layout_comparison,
            "layout comparison, wall-clock (Figure 6)",
            "Figure 6: wall-clock + simulated scaling (n={n})",
            ("algorithm", "layout", ("p=1 (s)", "p1_seconds"),
             ("p=2 (s)", "p2_seconds"), ("p=4 (s)", "p4_seconds")),
            points=Grid(
                "fig6.point", {"algorithms": "algorithm", "layouts": "layout"}
            ),
        ),
        FigureSpec(
            "fig6sim", experiments.fig6_simulated,
            "layout comparison, simulated memory",
            "Figure 6 (simulated memory cost, n={n})",
            ("algorithm", "layout", ("sim cycles/flop", "sim_cycles_per_flop"),
             ("vs LC", "vs_LC")),
            points=Grid(
                "fig6sim.point", {"algorithms": "algorithm", "layouts": "layout"},
                group=lambda kw: _multiply_trace(kw, kw["machine"]),
            ),
            merge=lambda raw, p: experiments.fig6sim_merge(
                raw, n=p["n"], algorithms=p["algorithms"], layouts=p["layouts"]
            ),
        ),
        FigureSpec(
            "fig6ms", experiments.fig6_machine_scaling,
            "layout comparison across machine models "
            "(associativity/TLB grid, one shared trace per pair)",
            "Figure 6 (machine scaling: associativity/TLB grid, n={n})",
            ("algorithm", "layout", ("L1 ways", "l1_assoc"),
             ("L2 ways", "l2_assoc"), ("TLB", "tlb_entries"),
             ("L1 miss rate", "l1_miss_rate"), ("cycles/flop", "cycles_per_flop"),
             ("vs LC", "vs_LC")),
            points=Grid(
                "fig6ms.point",
                {"algorithms": "algorithm", "layouts": "layout",
                 "l1_assocs": "l1_assoc", "l2_assocs": "l2_assoc",
                 "tlb_entries": "tlb_entries"},
                # The machine axes never change the trace, so each
                # (algorithm, layout) row group shares one profile.
                group=lambda kw: _multiply_trace(
                    kw, assoc_scaled(kw["l1_assoc"], kw["l2_assoc"],
                                     kw["tlb_entries"])
                ),
                group_by=("algorithm", "layout"),
            ),
            merge=lambda raw, p: experiments.fig6ms_merge(
                raw, n=p["n"], layouts=p["layouts"]
            ),
        ),
        FigureSpec(
            "fig7", experiments.fig7_kernel_tiers, "kernel tiers (Figure 7)",
            "Figure 7: leaf-kernel tiers (n={n})",
            ("kernel", "seconds", ("factor vs blas", "factor_vs_blas")),
        ),
        FigureSpec(
            "critical", experiments.critical_path_table, "work/span table (E7)",
            "Critical path (n={n}, t={tile})",
            ("algorithm", "work", "span", "parallelism",
             ("speedup@4", "speedup_at_4")),
        ),
        FigureSpec(
            "scaling", experiments.scaling_table, "work-stealing scaling (E10)",
            "Work-stealing scaling: {algorithm}, n={n}",
            ("procs", ("greedy speedup", "greedy_speedup"),
             ("ws speedup", "ws_speedup"), "utilization", "steals"),
        ),
        FigureSpec(
            "sharing", experiments.false_sharing_table,
            "false-sharing table (Section 3)",
            "False sharing under {procs} processors",
            ("n", ("LC shared", "LC_shared_lines"), ("LC false", "LC_false_shared"),
             ("LC invalidations", "LC_invalidations"),
             ("LZ shared", "LZ_shared_lines")),
            flags={"n_values": ("--n",)},
        ),
        FigureSpec(
            "conversion", experiments.conversion_accounting,
            "conversion accounting (E9)", "Conversion cost accounting",
            ("n", ("total (s)", "total_seconds"),
             ("conversion (s)", "conversion_seconds"),
             ("fraction", "conversion_fraction")),
            flags={"n_values": ("--n",)},
        ),
    )
}

#: The sweep figures, in registry order: the ones ``repro serve`` serves.
SWEEP_FIGURES = tuple(name for name, spec in FIGURES.items() if spec.points)
