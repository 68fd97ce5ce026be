"""Outside-in tracing: time spans around public ``repro`` functions.

The benchmark must not edit the program it measures, so layer timing
is recorded by wrapping public functions and methods from outside:

* a function is wrapped once, and *every* alias of the same function
  object in the loaded ``repro.*`` modules is rebound to the wrapper
  (so ``from repro.aig.opt.passes import compress`` call sites are
  traced too);
* a method is wrapped by replacing it on the class that defines it.

``functools.wraps`` keeps each wrapper's ``__module__``/``__qualname__``
and the module attribute now *is* the wrapper, so wrapped functions
still pickle by reference; a process-pool worker forked from a traced
process therefore runs traced code.  Spans are kept in memory.  A
forked process starts its own list and, each time its outermost span
closes, appends that span tree to ``spill_dir/spans-<pid>.jsonl``;
:meth:`Tracer.collect` merges those files into the owner's spans.

A layer's *self time* is the span's duration minus the durations of
its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

#: ``measure(args, kwargs, result) -> {counter: number}``
Measure = Callable[[tuple, dict, Any], dict[str, float]]

_clock = time.perf_counter

#: Aliases of a wrapped function are rebound in this package's modules.
PACKAGE = "repro"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the same span list, -1 for a root
    counters: dict[str, float] | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class LayerStats:
    calls: int = 0
    total: float = 0.0  # wall time inside the layer (nesting counted once)
    self_time: float = 0.0
    max_call: float = 0.0
    counters: dict[str, float] = field(default_factory=dict)


class Tracer:
    """Installs span wrappers, records spans, restores the originals."""

    def __init__(self, spill_dir: str | Path | None = None):
        self.spill_dir = Path(spill_dir) if spill_dir is not None else None
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._pid = os.getpid()
        self._owner_pid = self._pid
        self._patches: list[tuple[Any, str, Any]] = []
        self._traced: set[int] = set()  # ids of originals and wrappers

    # -- installation -------------------------------------------------

    def wrap_function(self, name: str, module: str, attr: str,
                      measure: Measure | None = None) -> Callable:
        """Trace ``module.attr`` and every alias of it in loaded modules."""
        original = getattr(importlib.import_module(module), attr)
        if id(original) in self._traced:
            raise ValueError(f"{module}.{attr} is already traced")
        wrapper = self._make_wrapper(name, original, measure)
        self._traced.update((id(original), id(wrapper)))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE
                                   or mod_name.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)
        return wrapper

    def wrap_method(self, name: str, cls: type, attr: str,
                    measure: Measure | None = None) -> Callable:
        """Trace ``cls.attr``, a plain function defined on ``cls``."""
        original = cls.__dict__.get(attr)
        if not callable(original) or isinstance(
                original, (staticmethod, classmethod)):
            raise TypeError(
                f"{cls.__qualname__}.{attr} is not a plain method "
                f"defined on the class")
        if id(original) in self._traced:
            raise ValueError(f"{cls.__qualname__}.{attr} is already traced")
        wrapper = self._make_wrapper(name, original, measure)
        self._traced.update((id(original), id(wrapper)))
        self._patches.append((cls, attr, original))
        setattr(cls, attr, wrapper)
        return wrapper

    def uninstall(self) -> None:
        """Put every original object back, newest patch first."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self._traced.clear()

    def __enter__(self) -> Tracer:
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    # -- recording ----------------------------------------------------

    def _make_wrapper(self, name: str, fn: Callable,
                      measure: Measure | None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if os.getpid() != tracer._pid:
                tracer._adopt_forked_process()
            spans, stack = tracer.spans, tracer._stack
            index = len(spans)
            span = Span(name, _clock(), 0.0, stack[-1] if stack else -1)
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = _clock()
                stack.pop()
            if measure is not None:
                span.counters = measure(args, kwargs, result)
            if not stack and os.getpid() != tracer._owner_pid:
                tracer._spill()
            return result

        return traced

    def _adopt_forked_process(self) -> None:
        """A forked child inherits the parent's spans; start afresh."""
        self._pid = os.getpid()
        self.spans = []
        self._stack = []

    def _spill(self) -> None:
        if self.spill_dir is None:
            return
        path = self.spill_dir / f"spans-{self._pid}.jsonl"
        batch = [[s.name, s.start, s.end, s.parent, s.counters]
                 for s in self.spans]
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(batch) + "\n")
        self.spans = []

    def collect(self) -> list[Span]:
        """The owner's spans plus every spilled span tree, re-indexed."""
        merged = list(self.spans)
        if self.spill_dir is None or not self.spill_dir.is_dir():
            return merged
        for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
            for line in path.read_text(encoding="utf-8").splitlines():
                base = len(merged)
                for name, start, end, parent, counters in json.loads(line):
                    merged.append(Span(name, start, end,
                                       parent + base if parent >= 0 else -1,
                                       counters))
        return merged


def summarize(spans: Iterable[Span]) -> dict[str, LayerStats]:
    """Per span name: calls, covered time, self time, summed counters.

    ``total`` counts a span only when no ancestor has the same name, so
    a layer that calls itself (``RandomForest.fit`` running
    ``DecisionTree.fit``) is not counted twice.
    """
    spans = list(spans)
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.duration
    stats: dict[str, LayerStats] = {}
    for i, span in enumerate(spans):
        entry = stats.setdefault(span.name, LayerStats())
        entry.calls += 1
        entry.self_time += span.duration - child_time[i]
        entry.max_call = max(entry.max_call, span.duration)
        if not _has_ancestor_named(spans, span):
            entry.total += span.duration
        for key, value in (span.counters or {}).items():
            entry.counters[key] = entry.counters.get(key, 0.0) + value
    return stats


def _has_ancestor_named(spans: list[Span], span: Span) -> bool:
    parent = span.parent
    while parent >= 0:
        if spans[parent].name == span.name:
            return True
        parent = spans[parent].parent
    return False
