"""Span recorder that sees the program from outside.

:meth:`Tracer.wrap` replaces one attribute — a module-level name or a
class method — with a wrapper that records a span (name, start, end,
parent) around every call.  The wrapper goes where the *caller* looks
the name up: ``from x import f`` binds ``f`` in the importing module, so
tracing that call means patching the importer's attribute, not ``x.f``.
Spans are kept in memory as flat tuples ``(id, parent_id, name, start,
end)``, one list per thread (the service runs sweeps on a dispatcher
thread and parses on handler threads); ids and parents are per thread.
Tuples of numbers and strings drop out of the garbage collector's
tracking, so a few hundred thousand leaf spans do not slow the program's
own collections.  :meth:`Tracer.restore` puts every original back.

A layer's self time is its spans' durations minus the time their child
spans cover; :meth:`Tracer.summary` aggregates calls, total and self
seconds per span name, plus any per-call counts a wrapper measured.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from typing import Any, Callable

#: ``measure(args, kwargs, result) -> {count_name: amount}``.
Measure = Callable[[tuple, dict, Any], dict]


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[list[tuple]] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self.counts: dict[str, float] = defaultdict(float)

    def _state(self) -> tuple[list, list, itertools.count]:
        state = getattr(self._local, "state", None)
        if state is None:
            # (ids of the open spans, finished spans, id source)
            state = ([], [], itertools.count())
            self._local.state = state
            with self._lock:
                self._threads.append(state[1])
        return state

    def traced(self, fn: Callable, name: str,
               measure: Measure | None = None) -> Callable:
        """``fn`` with a span called ``name`` around every call."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, spans, ids = tracer._state()
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((span_id, parent, name, start, end))
            if measure is not None:
                counted = measure(args, kwargs, result)
                with tracer._lock:
                    for key, amount in counted.items():
                        tracer.counts[key] += amount
            return result

        return traced

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        """Set ``owner.attr``, remembering the original for :meth:`restore`."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap(self, owner: Any, attr: str, name: str,
             measure: Measure | None = None) -> None:
        """Trace every call of ``owner.attr`` as a span called ``name``."""
        self.patch(owner, attr, self.traced(getattr(owner, attr), name, measure))

    def wrap_dict(self, table: dict, name: str) -> None:
        """Trace every callable value of ``table`` (a registry dict the
        caller indexes at call time)."""
        for key in list(table):
            self.wrap(_Entry(table, key), "value", name)

    def restore(self) -> None:
        """Undo every wrap, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def spans(self) -> list[list[tuple]]:
        """Finished spans per thread, as ``(id, parent_id, name, start,
        end)`` tuples; a parent id of -1 marks a root span."""
        with self._lock:
            return [list(spans) for spans in self._threads]

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``total_s`` and ``self_s``."""
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for spans in self.spans():
            child_time: dict[int, float] = defaultdict(float)
            for _, parent, _, start, end in spans:
                child_time[parent] += end - start
            for span_id, _, name, start, end in spans:
                agg = out[name]
                agg["calls"] += 1
                agg["total_s"] += end - start
                agg["self_s"] += end - start - child_time[span_id]
        return dict(out)


class _Entry:
    """One dict entry exposed as an attribute, so it wraps like a name."""

    def __init__(self, table: dict, key: Any) -> None:
        self.table = table
        self.key = key

    @property
    def value(self) -> Any:
        return self.table[self.key]

    @value.setter
    def value(self, fn: Any) -> None:
        self.table[self.key] = fn
