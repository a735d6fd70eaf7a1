"""Spans around calls into each layer, recorded from outside the program.

A traced round installs wrappers on a fixed list of public functions and
methods (:data:`LAYER_FUNCTIONS`, :data:`LAYER_METHODS`), records one span
per call into an in-memory list, and removes the wrappers when the round
ends.  Untraced rounds run the program exactly as shipped: nothing here is
installed, and :class:`NullRecorder` turns the benchmark's own spans into
no-ops.

A span is ``(id, parent, name, start, end, round, program, attrs)``; the
parent is the innermost span open when the call began, and every span of one
program build-and-run shares its ``program`` field.  Self time is a span's
duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: (module, function name, span name): module-level functions wrapped in a
#: traced round.  Every ``repro`` module that imported the function under
#: any name gets the wrapper, so callers inside the program are covered.
LAYER_FUNCTIONS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.graph.validation", "validate", "graph.validate"),
    ("repro.analysis", "analyze_filter", "analysis.analyze_filter"),
    ("repro.scheduling.steady", "build_schedule", "scheduling.build_schedule"),
    ("repro.runtime.codegen_emit", "emit_module", "codegen.emit_module"),
    ("repro.mapping.strategies", "partition_nodes", "mapping.partition_nodes"),
)

#: (module, class, method, span name): methods wrapped on the class.
LAYER_METHODS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.runtime.plan", "ExecutionPlan", "__init__", "plan.ExecutionPlan"),
    ("repro.runtime.parallel", "ParallelSession", "__init__", "parallel.ParallelSession"),
)


class NullRecorder:
    """The untraced stand-in: every span is a no-op."""

    enabled = False

    def span(self, name: str, **attrs: Any):
        return contextlib.nullcontext()


class SpanRecorder:
    """Holds spans in memory; :meth:`install` wraps the layer functions."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self.round = 0
        self.program = ""
        self._stack: List[int] = []
        self._paused = 0
        #: Called with (span name, args, kwargs, result) after a wrapped call;
        #: the benchmark uses it to count work (instances analyzed, lines
        #: emitted) where the work happens.
        self.observers: Dict[str, Callable[..., None]] = {}

    @contextlib.contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Dict[str, Any]]:
        if self._paused:
            yield attrs
            return
        record = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "start": 0.0,
            "end": 0.0,
            "round": self.round,
            "program": self.program,
            "attrs": attrs,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = perf_counter()
        try:
            yield attrs
        finally:
            record["end"] = perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def paused(self) -> Iterator[None]:
        """Record nothing inside (the benchmark's own report gathering)."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    def _wrap(self, fn: Callable, name: str) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with recorder.span(name):
                result = fn(*args, **kwargs)
            observer = recorder.observers.get(name)
            if observer is not None and not recorder._paused:
                observer(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def install(self) -> Iterator[None]:
        """Wrap every layer function and method for the duration."""
        undo: List[Tuple[Any, str, Any]] = []
        try:
            for module_name, attr, span_name in LAYER_FUNCTIONS:
                original = getattr(importlib.import_module(module_name), attr)
                wrapper = self._wrap(original, span_name)
                for module in list(sys.modules.values()):
                    if not getattr(module, "__name__", "").startswith("repro"):
                        continue
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
                            undo.append((module, key, original))
            for module_name, cls_name, attr, span_name in LAYER_METHODS:
                cls = getattr(importlib.import_module(module_name), cls_name)
                original = cls.__dict__[attr]
                setattr(cls, attr, self._wrap(original, span_name))
                undo.append((cls, attr, original))
            yield
        finally:
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)


def self_times(spans: List[Dict[str, Any]]) -> Dict[int, float]:
    """Each span's duration minus the union of its children's intervals."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out: Dict[int, float] = {}
    for s in spans:
        start, end = s["start"], s["end"]
        covered = 0.0
        cursor = start
        for c0, c1 in sorted(children.get(s["id"], ())):
            c0, c1 = max(c0, cursor), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                cursor = c1
        out[s["id"]] = (end - start) - covered
    return out


def self_time_by_name(
    spans: List[Dict[str, Any]], round_: Optional[int] = None
) -> Dict[str, float]:
    """Summed self time per span name (optionally of one round)."""
    chosen = [s for s in spans if round_ is None or s["round"] == round_]
    own = self_times(chosen)
    totals: Dict[str, float] = {}
    for s in chosen:
        totals[s["name"]] = totals.get(s["name"], 0.0) + own[s["id"]]
    return totals
