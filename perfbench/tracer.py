"""Span tracing of the rollingdisk package, installed from outside.

Callers bind many names at import time (`from .dynamics import
state_derivative`, the `simulator._STEPPERS` table), so patching a function
only in its defining module would miss those call sites. `Tracer.install`
therefore replaces every reference to each target function that it finds in
any `rollingdisk` module namespace, and in any dict held at module level,
with one wrapper; `uninstall` puts every original back.

A wrapper records a span (id, parent id, name, start, end) and a
call count only while `active` is true, so the benchmark's own output checks
can call traced functions without being counted. Spans are kept in memory
and written out once, at the end. Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import gzip
import sys
from array import array
from time import perf_counter


def traced_functions(metric_names) -> tuple:
    """The `<module>.<function>` of every `.calls` or `.self_s` metric name, in order."""
    out = {}
    for name in metric_names:
        function, _, stat = name.rpartition(".")
        if stat in ("calls", "self_s"):
            out[function] = None
    return tuple(out)


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "rollingdisk" or name.startswith("rollingdisk."))]


class Tracer:
    """Wraps `targets`, named `<module>.<function>` by the module that defines
    them, at every call site; records spans while active."""

    def __init__(self, targets):
        self.targets = tuple(targets)
        self.active = False
        self.calls = dict.fromkeys(self.targets, 0)
        self.self_s = dict.fromkeys(self.targets, 0.0)
        self._span_id = array("q")
        self._parent = array("q")
        self._name = array("h")
        self._start = array("d")
        self._end = array("d")
        self._stack = []  # [span id, child seconds] of each open span
        self._next_id = 0
        self._patched = []  # (namespace dict, key, original)

    # -- installation -------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = _package_modules()
        by_name = {m.__name__: m for m in modules}
        replacements = {}
        for index, label in enumerate(self.targets):
            module_name, func_name = label.rsplit(".", 1)
            original = getattr(by_name["rollingdisk." + module_name], func_name)
            replacements[id(original)] = (original, self._wrap(index, label, original))
        for module in modules:
            namespace = vars(module)
            self._patch_dict(namespace, replacements)
            for value in list(namespace.values()):
                if type(value) is dict:
                    self._patch_dict(value, replacements)

    def _patch_dict(self, namespace: dict, replacements: dict) -> None:
        for key, value in list(namespace.items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                self._patched.append((namespace, key, value))
                namespace[key] = hit[1]

    def uninstall(self) -> None:
        for namespace, key, original in reversed(self._patched):
            namespace[key] = original
        self._patched.clear()
        self.active = False

    def _wrap(self, index: int, label: str, func):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not tracer.active:
                return func(*args, **kwargs)
            stack = tracer._stack
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                tracer.calls[label] += 1
                tracer.self_s[label] += duration - frame[1]
                tracer._span_id.append(span_id)
                tracer._parent.append(parent)
                tracer._name.append(index)
                tracer._start.append(start)
                tracer._end.append(end)

        return traced

    # -- results ------------------------------------------------------

    def span_count(self) -> int:
        return len(self._start)

    def write_spans(self, path) -> None:
        """Write every span as gzip-compressed CSV, times relative to the first."""
        t0 = min(self._start) if self._start else 0.0
        with gzip.open(path, "wt") as out:
            out.write("id,parent,name,start_s,end_s\n")
            for i in range(len(self._start)):
                out.write(
                    f"{self._span_id[i]},{self._parent[i]},"
                    f"{self.targets[self._name[i]]},"
                    f"{self._start[i] - t0:.9f},{self._end[i] - t0:.9f}\n"
                )
