"""Wire protocol of the simulation service: request validation and the
request -> :class:`~repro.analysis.parallel.SweepPoint` decomposition.

A sweep request is a small JSON document::

    {"figure": "fig6sim",
     "params": {"n": 48, "tile": 8,
                "algorithms": ["standard", "strassen"],
                "layouts": ["LC", "LZ"],
                "machine": {"scaled": 4}},
     "jobs": 2}

:func:`parse_request` validates it against the figure's parameters —
read off its driver signature through the registry in
:mod:`repro.analysis.figures` — and normalizes it into a
:class:`SweepRequest` whose ``params`` are in *canonical JSON form*
(every default filled in, the machine spec expanded to the full
:class:`~repro.memsim.machine.MachineModel` field dict).
Canonicalization is what makes coalescing work: the request key
(:meth:`SweepRequest.key`) is a sha256 over the canonical payload, so
two clients asking for the same sweep in different spellings
(``"machine": "ultrasparc"`` vs. the explicit field dict, params in
any order, defaults implicit or spelled out) land on the same key and
share one execution.

:func:`build_sweep` turns a validated request into the exact point
grid and merge step the in-process figure driver runs — the same
registry entry — which is what makes served results byte-identical to
the driver path (the black-box golden tests in ``tests/test_serve.py``
pin this).  Defaults are the driver's, so an empty ``params`` serves
the grid ``python -m repro <figure>`` prints.

The ``fault`` figure exists only for the fault-injection test suite
and is hidden unless ``REPRO_SERVE_TEST_HOOKS`` is set: its first
point SIGKILLs the worker that runs it (once, guarded by a sentinel
file), so the tests can prove the service retries broken jobs and that
the shared trace store survives a worker dying mid-sweep.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import signal
from typing import Any, Callable

from repro import knobs
# Re-exported: the merge steps served sweeps run (through the registry).
from repro.analysis.experiments import fig6ms_merge, fig6sim_merge
from repro.analysis.figures import FIGURES, SWEEP_FIGURES, FigureSpec
from repro.analysis.parallel import SweepPoint, point_function
from repro.matrix.tile import TileRange
from repro.memsim.machine import (
    CacheGeometry,
    MachineModel,
    modern_like,
    scaled,
    ultrasparc_like,
)

__all__ = [
    "PROTOCOL_VERSION",
    "ProtocolError",
    "SweepRequest",
    "build_sweep",
    "fig6ms_merge",
    "fig6sim_merge",
    "known_figures",
    "machine_from_dict",
    "machine_to_dict",
    "parse_request",
    "resolve_machine",
    "served_figure",
]

#: Bump when the request canonicalization changes incompatibly; part of
#: the request key, so old and new servers never coalesce across it.
PROTOCOL_VERSION = 1


class ProtocolError(ValueError):
    """A malformed or unserviceable sweep request (HTTP 400)."""


# -- machine specs -----------------------------------------------------

#: Named machine models a request may ask for.
_MACHINES: dict[str, Callable[[], MachineModel]] = {
    "ultrasparc": ultrasparc_like,
    "modern": modern_like,
}


def resolve_machine(spec: Any) -> MachineModel:
    """A :class:`MachineModel` from a request's machine spec.

    Accepts a registered name (``"ultrasparc"``, ``"modern"``), a
    ``{"scaled": k}`` shrink spec, or a full field dict as produced by
    :func:`machine_to_dict`.
    """
    if isinstance(spec, str):
        if spec not in _MACHINES:
            raise ProtocolError(
                f"unknown machine {spec!r}; known: {sorted(_MACHINES)} "
                f"or {{'scaled': k}}"
            )
        return _MACHINES[spec]()
    if isinstance(spec, dict) and set(spec) == {"scaled"}:
        factor = spec["scaled"]
        if not isinstance(factor, int) or isinstance(factor, bool) or factor < 1:
            raise ProtocolError(
                f"machine 'scaled' factor must be a positive integer, "
                f"got {factor!r}"
            )
        return scaled(factor)
    if isinstance(spec, dict):
        try:
            return machine_from_dict(spec)
        except (TypeError, KeyError, ValueError) as exc:
            raise ProtocolError(f"bad machine field dict: {exc}") from None
    raise ProtocolError(
        f"machine spec must be a name, {{'scaled': k}}, or a field dict; "
        f"got {type(spec).__name__}"
    )


def machine_to_dict(machine: MachineModel) -> dict:
    """Canonical JSON form of a machine model (the request-key form)."""
    return dataclasses.asdict(machine)


def machine_from_dict(fields: dict) -> MachineModel:
    """Rebuild a :class:`MachineModel` from its canonical field dict."""
    payload = dict(fields)
    payload["l1"] = CacheGeometry(**payload["l1"])
    payload["l2"] = CacheGeometry(**payload["l2"])
    return MachineModel(**payload)


# -- parameter kinds ---------------------------------------------------


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


#: Annotation of a non-negative integer parameter (``int`` ones must be
#: positive).
Index = int

#: Parameter kind (the driver annotation, see :mod:`repro.analysis.figures`)
#: -> (what a valid JSON value is, its check).  ``MachineModel`` values
#: are checked by :func:`resolve_machine`.
_KINDS: dict[str, tuple[str, Callable[[Any], bool]]] = {
    "int": ("a positive integer", lambda v: _is_int(v) and v >= 1),
    "Index": ("a non-negative integer", lambda v: _is_int(v) and v >= 0),
    "bool": ("a boolean", lambda v: isinstance(v, bool)),
    "str": ("a non-empty string", lambda v: isinstance(v, str) and bool(v)),
    "Sequence[int]": (
        "a non-empty list of positive integers",
        lambda v: isinstance(v, list) and bool(v)
        and all(_is_int(x) and x >= 1 for x in v),
    ),
    "Sequence[str]": (
        "a non-empty list of strings",
        lambda v: isinstance(v, list) and bool(v)
        and all(isinstance(x, str) for x in v),
    ),
    "TileRange": (
        "[t_min, t_max]",
        lambda v: isinstance(v, list) and len(v) == 2 and all(map(_is_int, v)),
    ),
    "MachineModel": ("a machine spec", lambda v: True),
}


def _decode(kind: str, value: Any) -> Any:
    """A checked JSON value as the driver takes it."""
    if kind == "MachineModel":
        return resolve_machine(value)
    if kind == "TileRange":
        try:
            return TileRange(*value)
        except ValueError as exc:
            raise ProtocolError(str(exc)) from None
    return value


def _encode(value: Any) -> Any:
    """A driver value in canonical JSON form (the request-key form)."""
    if isinstance(value, MachineModel):
        return machine_to_dict(value)
    if isinstance(value, TileRange):
        return [value.t_min, value.t_max]
    if isinstance(value, (list, tuple)):
        return list(value)
    return value


def _canonical(spec: FigureSpec, params: dict) -> dict:
    """Checked ``params`` with every default filled in, in JSON form."""
    unknown = sorted(set(params) - set(spec.params))
    if unknown:
        raise ProtocolError(
            f"unknown param(s) {unknown}; accepted: {sorted(spec.params)}"
        )
    out = {}
    for name, p in spec.params.items():
        if name not in params:
            if p.required:
                raise ProtocolError(f"param {name!r} is required")
            out[name] = _encode(p.default)
            continue
        what, check = _KINDS[p.kind]
        if not check(params[name]):
            raise ProtocolError(f"param {name!r} must be {what}")
        out[name] = _encode(_decode(p.kind, params[name]))
    return out


def _fault(
    sentinel_dir: str,
    points: int = 2,
    kill_index: Index = 0,
    n: int = 16,
    tile: int = 8,
) -> list[dict]:
    """Parameters of the hidden ``fault`` figure: served, never driven."""
    raise NotImplementedError("the fault figure only runs as a served sweep")


def _fault_points(figure: str, p: dict) -> list[SweepPoint]:
    return [
        SweepPoint(figure, i, "serve.fault.point", tuple(sorted({
            "index": i, "sentinel_dir": p["sentinel_dir"],
            "kill": i == p["kill_index"], "n": p["n"], "tile": p["tile"],
        }.items())))
        for i in range(p["points"])
    ]


#: The fault-injection figure, served only under the test-hooks knob.
_FAULT = FigureSpec(
    "fault", _fault, "fault injection (tests only)", "", (),
    points=_fault_points,
)


def served_figure(name: Any) -> FigureSpec:
    """The spec of a figure clients may request, else ProtocolError."""
    if name in SWEEP_FIGURES:
        return FIGURES[name]
    if name == "fault" and knobs.flag("REPRO_SERVE_TEST_HOOKS"):
        return _FAULT
    raise ProtocolError(f"unknown figure {name!r}; known: {known_figures()}")


def known_figures() -> list[str]:
    """Figure names a client may request (test hooks included when on)."""
    out = list(SWEEP_FIGURES)
    if knobs.flag("REPRO_SERVE_TEST_HOOKS"):
        out.append("fault")
    return out


# -- requests ----------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class SweepRequest:
    """One validated, canonicalized sweep request.

    ``params`` is the canonical JSON form (defaults filled, machine
    expanded); ``jobs`` is the requested execution width (1 = the exact
    serial in-process path; >1 = the service's shared worker pool).
    """

    figure: str
    params: dict
    jobs: int

    def key(self) -> str:
        """Content address of the request: the coalescing identity."""
        blob = json.dumps(
            {
                "v": PROTOCOL_VERSION,
                "figure": self.figure,
                "params": self.params,
                "jobs": self.jobs,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(blob.encode()).hexdigest()

    def job_id(self) -> str:
        """Short job identifier (request-key prefix) used in URLs."""
        return self.key()[:16]


def parse_request(body: Any) -> SweepRequest:
    """Validate and canonicalize one ``POST /v1/sweep`` body."""
    if not isinstance(body, dict):
        raise ProtocolError("request body must be a JSON object")
    figure = body.get("figure")
    spec = served_figure(figure)
    params = body.get("params", {})
    if not isinstance(params, dict):
        raise ProtocolError("'params' must be a JSON object")
    jobs = body.get("jobs", 1)
    if not _is_int(jobs) or jobs < 1:
        raise ProtocolError("'jobs' must be a positive integer")
    extras = sorted(set(body) - {"figure", "params", "jobs", "wait", "timeout_s"})
    if extras:
        raise ProtocolError(f"unknown request field(s) {extras}")
    return SweepRequest(spec.name, _canonical(spec, params), jobs)


# -- decomposition -----------------------------------------------------


def build_sweep(
    request: SweepRequest,
) -> tuple[list[SweepPoint], Callable[[list[dict]], list[dict]]]:
    """The request's point grid plus its row-merge step.

    Uses the registry entry the in-process driver uses, so a served
    sweep is the driver's sweep: same points, same canonical
    order, same merge — byte-identical rows.
    """
    spec = served_figure(request.figure)
    params = {
        name: _decode(spec.params[name].kind, value)
        for name, value in request.params.items()
    }
    points = spec.sweep(params)
    if spec.merge is None:
        return points, lambda rows: rows
    merge = spec.merge
    return points, lambda rows: merge(rows, params)


@point_function("serve.fault.point")
def fault_point(
    *, index: int, sentinel_dir: str, kill: bool, n: int, tile: int
) -> dict:
    """Fault-injection point: SIGKILL this worker once, then compute.

    The first execution of the kill point writes a sentinel file and
    SIGKILLs its own process — from inside a pool worker that breaks
    the pool mid-sweep, exactly like an OOM kill would.  On retry the
    sentinel exists, so the point computes its (deterministic) row
    through the shared trace store like any real figure point.
    """
    if kill:
        sentinel = os.path.join(sentinel_dir, "killed")
        if not os.path.exists(sentinel):
            try:
                os.makedirs(sentinel_dir, exist_ok=True)
                with open(sentinel, "w") as fh:
                    fh.write(str(os.getpid()))
                    fh.flush()
                    os.fsync(fh.fileno())
            except OSError:
                pass  # unwritable sentinel: die on *every* attempt, so
                #       the retry-exhaustion test can drain the budget
            os.kill(os.getpid(), signal.SIGKILL)
    from repro.memsim.store import cached_multiply_stats

    stats = cached_multiply_stats("standard", "LZ", n, tile, scaled(8))
    return {"index": index, "cycles": stats.cycles,
            "l1_miss_rate": stats.l1_miss_rate}
