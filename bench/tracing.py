"""Span tracing of a package's public functions, from outside the package.

``Tracer.install`` replaces every public function defined in the package with
a wrapper, under every name a module of the package binds it to, so calls
between modules (``cli.ground_state``, ``exact.build_hamiltonian``, ...) are
seen as well as calls through the defining module.  Each call records one
span: name, parent span, start, end, and whether it raised.  Spans are kept
in memory in flat arrays; ``fold`` turns a range of them into per-name call
counts and self times (a span's duration minus the time its children cover).
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from types import FunctionType

import numpy as np


class Tracer:
    """Wraps a package's public functions and records one span per call.

    ``hooks`` maps a span name to ``hook(args, kwargs, result)``; its return
    value is kept as that span's note, for layer metrics that need an
    argument or a result (a truncation size, a returned state).
    """

    def __init__(self, package: str, hooks: dict | None = None):
        self.package = package
        self.hooks = hooks or {}
        self.names: list[str] = []
        self.span_name = array("q")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.failed: set[int] = set()
        self.notes: dict[int, object] = {}
        self._stack = [-1]
        self._wrappers: dict[FunctionType, FunctionType] = {}
        self._patched: list[tuple[dict, str, FunctionType]] = []

    def __len__(self) -> int:
        return len(self.span_start)

    def _modules(self):
        prefix = self.package + "."
        return [
            module
            for name, module in list(sys.modules.items())
            if module is not None and (name == self.package or name.startswith(prefix))
        ]

    def _is_traced(self, value) -> bool:
        return (
            isinstance(value, FunctionType)
            and (value.__module__ or "").split(".")[0] == self.package
            and not value.__name__.startswith("_")
        )

    def install(self) -> None:
        for module in self._modules():
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                if not self._is_traced(value):
                    continue
                if value not in self._wrappers:
                    self._wrappers[value] = self._wrap(value)
                self._patched.append((namespace, attr, value))
                namespace[attr] = self._wrappers[value]

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._patched):
            namespace[attr] = original
        self._patched.clear()

    def _wrap(self, fn: FunctionType) -> FunctionType:
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        name_id = len(self.names)
        self.names.append(name)
        hook = self.hooks.get(name)
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        stack, failed, notes = self._stack, self.failed, self.notes
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = len(span_start)
            span_name.append(name_id)
            span_parent.append(stack[-1])
            span_end.append(0.0)
            stack.append(span)
            span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed.add(span)
                raise
            finally:
                span_end[span] = clock()
                stack.pop()
            if hook is not None:
                notes[span] = hook(args, kwargs, result)
            return result

        return functools.update_wrapper(traced, fn)

    def fold(self, first: int, last: int) -> "Fold":
        """Per-name counts and self times of spans ``first`` to ``last - 1``.

        The range must hold whole call trees: every parent of a span in it
        is in it too, or is -1.
        """
        # Slicing copies, so no numpy view pins the arrays while they grow.
        names = np.frombuffer(self.span_name[first:last], dtype=np.int64)
        parents = np.frombuffer(self.span_parent[first:last], dtype=np.int64)
        duration = np.frombuffer(self.span_end[first:last]) - np.frombuffer(
            self.span_start[first:last]
        )
        nested = parents >= 0
        children = np.bincount(
            parents[nested] - first, weights=duration[nested], minlength=last - first
        )
        return Fold(self, first, names, parents, duration, duration - children)


class Fold:
    """Spans of one traced workload call, with each span's self time."""

    def __init__(self, tracer, first, names, parents, duration, self_time):
        self.tracer = tracer
        self.first = first
        self.names = names
        self.parents = parents  # absolute span ids, -1 for a root
        self.duration = duration
        self.self_time = self_time

    def ids(self, name: str) -> np.ndarray:
        """Absolute ids of the spans called ``name``, in start order."""
        if name not in self.tracer.names:
            return np.empty(0, dtype=np.int64)
        return np.flatnonzero(self.names == self.tracer.names.index(name)) + self.first

    def by_name(self) -> dict[str, tuple[int, float, int]]:
        """name -> (calls, self seconds, calls that raised)."""
        k = len(self.tracer.names)
        calls = np.bincount(self.names, minlength=k)
        self_s = np.bincount(self.names, weights=self.self_time, minlength=k)
        raised = np.zeros(k, dtype=np.int64)
        for span in self.tracer.failed:
            if span >= self.first and span - self.first < len(self.names):
                raised[self.names[span - self.first]] += 1
        return {
            name: (int(calls[i]), float(self_s[i]), int(raised[i]))
            for i, name in enumerate(self.tracer.names)
        }
