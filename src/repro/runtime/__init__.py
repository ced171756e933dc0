"""Cilk-like parallel runtime substrate (trace, simulate, real threads)."""

from repro.runtime.cilk import (
    CostModel,
    Runtime,
    SerialRuntime,
    ThreadRuntime,
    TraceRuntime,
)
from repro.runtime.critical import WorkSpan, work_span
from repro.runtime.scheduler import (
    ScheduleResult,
    greedy_makespan,
    work_stealing_makespan,
)
from repro.runtime.task import (
    DagNode,
    SPNode,
    leaf,
    parallel,
    series,
    span,
    to_dag,
    work,
)

__all__ = [
    "CostModel",
    "Runtime",
    "SerialRuntime",
    "ThreadRuntime",
    "TraceRuntime",
    "WorkSpan",
    "work_span",
    "ScheduleResult",
    "greedy_makespan",
    "work_stealing_makespan",
    "DagNode",
    "SPNode",
    "leaf",
    "parallel",
    "series",
    "span",
    "to_dag",
    "work",
]
