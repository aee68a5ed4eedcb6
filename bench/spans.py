"""Span tracing of the kummerlat package from outside, for the traced run.

``install`` wraps the functions and methods of every kummerlat module, and
rebinds every name that refers to one of them: ``from .matrix import
exact_det`` leaves a binding of ``exact_det`` in each importing module, and a
call through any of them must land in the same wrapper.  Each call is a span
(name, start, end, parent).  Spans are folded into per-name and per-layer
sums as they close instead of being stored, so memory stays flat however
many a run makes: calls, self time (duration minus the time covered by
child spans) and outermost total time.  The layer of a span is the module
that defines the function, e.g. ``matrix`` for
``kummerlat.matrix.smith_normal_form``.

``import_spans`` also times the import of each kummerlat module as a span
``<layer>.<import>``, since a command line user pays for it on every run.
"""

from __future__ import annotations

import functools
import importlib
import importlib.machinery
import pkgutil
import sys
import types
from collections import Counter
from time import perf_counter_ns

PACKAGE = "kummerlat"

# Dunder methods that do arithmetic or construction; accessors such as
# __eq__, __hash__ and __getitem__ stay unwrapped so they count as the
# caller's self time instead of doubling the tracing cost.
TRACED_DUNDERS = frozenset({
    "__init__", "__post_init__", "__add__", "__radd__", "__sub__", "__rsub__",
    "__mul__", "__rmul__", "__matmul__", "__neg__", "__pow__", "__truediv__",
})


def layer_of(module_name: str) -> str:
    return module_name.rpartition(".")[2] if module_name != PACKAGE else "package"


class Tracer:
    """Folds spans into sums as they close; see the module docstring."""

    def __init__(self):
        self.stack: list[list] = []  # open spans: [name, layer, start_ns, child_ns]
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.total_ns: Counter = Counter()  # outermost spans of each name
        self.layer_self_ns: Counter = Counter()
        self.layer_total_ns: Counter = Counter()  # outermost spans of each layer
        self.active: Counter = Counter()  # open spans per name
        self.layer_active: Counter = Counter()
        self.counts: Counter = Counter()  # counters kept by observers
        self.seen: dict[str, set] = {}
        self.originals: dict[str, object] = {}  # span name -> wrapped function

    def enter(self, name: str, layer: str) -> None:
        self.active[name] += 1
        self.layer_active[layer] += 1
        self.stack.append([name, layer, perf_counter_ns(), 0])

    def exit(self) -> None:
        end = perf_counter_ns()
        name, layer, start, child = self.stack.pop()
        duration = end - start
        if self.stack:
            self.stack[-1][3] += duration
        self.calls[name] += 1
        self.self_ns[name] += duration - child
        self.layer_self_ns[layer] += duration - child
        if self.active[name] == 1:
            self.total_ns[name] += duration
        if self.layer_active[layer] == 1:
            self.layer_total_ns[layer] += duration
        self.active[name] -= 1
        self.layer_active[layer] -= 1

    def span(self, name: str, layer: str, fn, observe=None):
        """A wrapper of ``fn`` that records one span per call."""
        self.originals[name] = fn

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced


class _TimedImports:
    """Meta path finder that records the execution of each kummerlat module."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def find_spec(self, name, path=None, target=None):
        if name != PACKAGE and not name.startswith(PACKAGE + "."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module
        tracer, layer = self.tracer, layer_of(name)

        def timed_exec(module):
            tracer.enter(f"{layer}.<import>", layer)
            try:
                exec_module(module)
            finally:
                tracer.exit()

        spec.loader.exec_module = timed_exec
        return spec


def import_spans(tracer: Tracer) -> None:
    """Import kummerlat and all its modules, with a span around each module's execution.

    Modules the package itself does not import (such as ``pool``) are
    imported here too, so that ``install`` finds and wraps them.
    """
    finder = _TimedImports(tracer)
    sys.meta_path.insert(0, finder)
    try:
        package = importlib.import_module(PACKAGE)
        for info in pkgutil.iter_modules(package.__path__):
            importlib.import_module(f"{PACKAGE}.{info.name}")
    finally:
        sys.meta_path.remove(finder)


def _package_modules() -> list[types.ModuleType]:
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]


def _is_function(obj) -> bool:
    return isinstance(obj, (types.FunctionType, functools._lru_cache_wrapper))


def _is_public(name: str) -> bool:
    return not name.startswith("_") or name in TRACED_DUNDERS


def install(tracer: Tracer, observers: dict | None = None) -> None:
    """Wrap the public functions and methods of every imported kummerlat module.

    Private helpers stay unwrapped: their time is their caller's self time,
    in the same layer, and wrapping the per-entry ones would multiply the
    tracing cost.

    ``observers`` maps a span name to ``f(tracer, args, kwargs, result)``,
    called after each successful call to keep counters.
    """
    observers = observers or {}
    modules = _package_modules()
    wrappers: dict[int, object] = {}
    for module in modules:
        layer = layer_of(module.__name__)
        for attr, obj in list(vars(module).items()):
            if (_is_function(obj) and obj.__module__ == module.__name__
                    and _is_public(obj.__name__)):
                if id(obj) not in wrappers:
                    name = f"{layer}.{obj.__name__}"
                    wrappers[id(obj)] = tracer.span(name, layer, obj, observers.get(name))
            elif isinstance(obj, type) and obj.__module__ == module.__name__:
                _wrap_class(tracer, layer, obj, observers)
    for module in modules:
        for attr, obj in list(vars(module).items()):
            if id(obj) in wrappers:
                setattr(module, attr, wrappers[id(obj)])


def _wrap_class(tracer: Tracer, layer: str, cls: type, observers: dict) -> None:
    done: dict[int, object] = {}
    for attr, obj in list(vars(cls).items()):
        if not _is_public(attr):
            continue
        kind = None
        if isinstance(obj, (classmethod, staticmethod)):
            kind, fn = type(obj), obj.__func__
        elif isinstance(obj, types.FunctionType):
            fn = obj
        else:
            continue
        if id(fn) not in done:
            name = f"{layer}.{cls.__name__}.{fn.__name__}"
            done[id(fn)] = tracer.span(name, layer, fn, observers.get(name))
        wrapped = done[id(fn)]
        setattr(cls, attr, kind(wrapped) if kind else wrapped)
