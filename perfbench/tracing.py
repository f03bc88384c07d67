"""Out-of-process-style tracer for the hyperclass package.

Every public function and public method defined in a `hyperclass.*`
module is wrapped, and the wrapper is installed at every import site: a
module that did `from .encoder import encode` holds its own reference, so
each package module namespace is scanned for the original object and
rebound to the wrapper. Layers are the module names, discovered at patch
time, so functions that later versions add are traced without editing
this file.

A span is (name, start, end, parent) plus the run id; spans are kept in
flat arrays while the workload runs and written as JSON lines afterwards.
Hooks that count work (rows, gradient density, bytes) run inside their
own `trace.hook` spans, so their cost is charged to the tracer, not to the
caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import sys
from array import array
from time import perf_counter_ns

import numpy as np

PACKAGE = "hyperclass"
HOOK_NAME = "trace.hook"


def discover_targets(package: str = PACKAGE) -> list[tuple[object, str, object, str]]:
    """(owner, attribute, raw attribute value, span name) for every public
    function and method defined in the package. Exceptions and properties
    are skipped."""
    pkg = importlib.import_module(package)
    targets = []
    for info in pkgutil.iter_modules(pkg.__path__):
        if info.name.startswith("_"):
            continue
        module = importlib.import_module(f"{package}.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                targets.append((module, name, obj, f"{info.name}.{name}"))
            elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                for attr, raw in vars(obj).items():
                    if attr.startswith("_"):
                        continue
                    func = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                    if inspect.isfunction(func):
                        targets.append((obj, attr, raw, f"{info.name}.{name}.{attr}"))
    return targets


class Tracer:
    """Records nested spans for calls into the package while installed.

    `hooks` maps a span name to an object with optional `before(args,
    kwargs)` and `after(state, args, kwargs, result)` methods; both run in
    hook spans that are siblings of the traced call.
    """

    def __init__(self, run_id: str, hooks: dict | None = None):
        self.run_id = run_id
        self.hooks = hooks or {}
        self.names: list[str] = [HOOK_NAME]
        self.name_of = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- span recording -------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    def _wrap(self, func, span_name: str):
        name_id = len(self.names)
        self.names.append(span_name)
        hook = self.hooks.get(span_name)
        before = getattr(hook, "before", None)
        after = getattr(hook, "after", None)
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            state = None
            if before is not None:
                h = tracer._open(0)
                state = before(args, kwargs)
                tracer._close(h)
            idx = tracer._open(name_id)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                h = tracer._open(0)
                after(state, args, kwargs, result)
                tracer._close(h)
            return result

        return traced

    # -- installation ---------------------------------------------------

    def install(self, package: str = PACKAGE) -> None:
        """Wrap every public callable and rebind it at every import site."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrapped_functions = {}
        for owner, attr, raw, span_name in discover_targets(package):
            if inspect.isclass(owner):
                func = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                new = self._wrap(func, span_name)
                if isinstance(raw, (classmethod, staticmethod)):
                    new = type(raw)(new)
                self._patches.append((owner, attr, raw))
                setattr(owner, attr, new)
            else:
                wrapped_functions[id(raw)] = (raw, self._wrap(raw, span_name))
        modules = [
            m for n, m in list(sys.modules.items()) if n == package or n.startswith(package + ".")
        ]
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrapped_functions.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results --------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name_of, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
        }

    def write_jsonl(self, path) -> None:
        """One JSON object per span, times in ns from the first span start."""
        t0 = self.start[0] if len(self.start) else 0
        run = json.dumps(self.run_id)
        names = [json.dumps(n) for n in self.names]
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, start, end) in enumerate(
                zip(self.name_of, self.parent, self.start, self.end)
            ):
                fh.write(
                    f'{{"run":{run},"id":{i},"name":{names[name]},"parent":{parent},'
                    f'"start_ns":{start - t0},"end_ns":{end - t0}}}\n'
                )


def layer_of(span_name: str) -> str:
    """`ball.distance` -> `ball`; `optim.Adam.step` -> `optim`."""
    return span_name.split(".", 1)[0]


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Span duration minus the time covered by its direct children, in ns.

    Children of one span never overlap (single-threaded call stack), so
    the covered time is the sum of their durations."""
    duration = end - start
    covered = np.zeros_like(duration)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], duration[has_parent])
    return duration - covered
