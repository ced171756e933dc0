"""Long-lived simulation service: a batch/async sweep API over the
figure engines and one shared warm trace store.

``python -m repro serve`` boots a zero-dependency HTTP service
(stdlib ``http.server`` only) that accepts batched sweep requests,
decomposes them into the exact :class:`~repro.analysis.parallel`
point grids the in-process drivers use, and executes them against a
single long-lived worker pool and one shared on-disk
:class:`~repro.memsim.store.TraceStore` — so sweeps from many clients
share warm traces and synthesis templates instead of each paying the
cold-start cost.

Identical requests from concurrent clients *coalesce*: the request's
canonical content address (:meth:`~repro.serve.protocol.SweepRequest.key`)
is the job identity, so one execution serves every requester.

Layering:

* :mod:`repro.serve.protocol` — request validation, canonicalization,
  and the request -> sweep-point decomposition (pure; no sockets).
* :mod:`repro.serve.jobs` — the job table, coalescing, the single
  dispatcher thread (the store/obs single-writer), and the persistent
  worker pool with broken-pool retry.
* :mod:`repro.serve.server` — the HTTP surface (``POST /v1/sweep``,
  ``GET /v1/jobs/<id>``, ``/healthz``, ``/metrics``) and the
  session-level perf-history record written on shutdown.
* :mod:`repro.serve.client` — a stdlib ``urllib`` client used by the
  black-box test suite and the CI smoke job.

Everything observable is deterministic under
``REPRO_DETERMINISTIC_TIMING``: served rows are byte-identical to the
driver path (pinned against ``tests/golden/``), and the structural
``serve.sweep.rows`` budget gates exactly in CI.
"""

from repro.serve.client import ServeClient
from repro.serve.jobs import Job, JobManager
from repro.serve.protocol import (
    ProtocolError,
    SweepRequest,
    build_sweep,
    parse_request,
)
from repro.serve.server import ServeApp, make_server, run_server

__all__ = [
    "Job",
    "JobManager",
    "ProtocolError",
    "ServeApp",
    "ServeClient",
    "SweepRequest",
    "build_sweep",
    "make_server",
    "parse_request",
    "run_server",
]
