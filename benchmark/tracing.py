"""Outside-in spans around capnet's public functions.

``install`` replaces every public function and public method of the traced
modules with a wrapper that records a span: call count, total time and self
time (total minus the time of spans nested inside it).  The package itself
is not edited.  ``from .x import f`` copies a reference, so each wrapper is
also written into every capnet namespace that holds the original, and
``install`` fails if any original is left reachable from a module or class.

A few spans also count computed work from their arguments or result:
elements hashed by the pseudo-random eta, operator bytes passed to a
propagation step (computed from ``nbytes``, not measured traffic), and
characters of canonical JSON.  The oracle's top call also records the
``tracemalloc`` peak while it runs.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import tracemalloc
from time import perf_counter

MODULES = ("oracle", "augment", "core", "deeplimit", "propagate", "analyze", "cli", "jsonfmt")


def _eta_elements(args, kwargs, result):
    return int(getattr(result, "size", 1))


def _operator_bytes(args, kwargs, result):
    operator = args[0] if args else kwargs["d"]
    return int(operator.matrix.nbytes)


def _text_chars(args, kwargs, result):
    return len(result)


# span name -> function of (args, kwargs, result) giving the work done by one call
WORK = {
    "oracle.pseudo_random_eta": _eta_elements,
    "propagate.propagate_single": _operator_bytes,
    "jsonfmt.canonical_dumps": _text_chars,
}
TRACEMALLOC_SPAN = "oracle.empirical_spatial_capacity"


class Tracer:
    """Span statistics of one process, keyed by ``module.qualname``."""

    def __init__(self):
        # name -> [calls, total_s, self_s, work]
        self.stats = {}
        # time covered by finished child spans, one slot per open span
        self._open = [0.0]
        self.traced_peak_bytes = 0

    def wrap(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        open_spans = self._open
        work = WORK.get(name)
        if name == TRACEMALLOC_SPAN:
            fn = self._with_tracemalloc(fn)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            open_spans.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = open_spans.pop()
                open_spans[-1] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - children
            if work is not None:
                stats[3] += work(args, kwargs, result)
            return result

        return span

    def _with_tracemalloc(self, fn):
        @functools.wraps(fn)
        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.traced_peak_bytes = max(self.traced_peak_bytes, peak)

        return measured

    def report(self) -> dict:
        return {
            "spans": {
                name: {"calls": c, "total_s": t, "self_s": s, "work": w}
                for name, (c, t, s, w) in self.stats.items()
            },
            "traced_peak_bytes": self.traced_peak_bytes,
        }


def _public_callables(module):
    """(owner, attribute, span name, original) for each public function and method."""
    short = module.__name__.rsplit(".", 1)[-1]
    for attr, obj in sorted(vars(module).items()):
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield module, attr, f"{short}.{attr}", obj
        elif inspect.isclass(obj):
            for meth, raw in sorted(vars(obj).items()):
                if meth.startswith("_"):
                    continue
                if isinstance(raw, (classmethod, staticmethod)) or inspect.isfunction(raw):
                    yield obj, meth, f"{short}.{obj.__qualname__}.{meth}", raw


def _rewrap(raw, fn):
    return type(raw)(fn) if isinstance(raw, (classmethod, staticmethod)) else fn


def _references(value):
    if isinstance(value, dict):
        return list(value.values())
    if isinstance(value, (list, tuple, set, frozenset)):
        return list(value)
    return [value]


def install(tracer: Tracer) -> None:
    """Wrap the traced modules' public callables in every namespace that holds them."""
    modules = [importlib.import_module(f"capnet.{name}") for name in MODULES]
    replaced = {}
    for module in modules:
        for owner, attr, name, raw in list(_public_callables(module)):
            inner = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
            wrapper = tracer.wrap(name, inner)
            setattr(owner, attr, _rewrap(raw, wrapper))
            replaced[id(inner)] = (inner, wrapper)
    namespaces = [m for key, m in sys.modules.items() if key == "capnet" or key.startswith("capnet.")]
    for namespace in namespaces:
        for attr, value in list(vars(namespace).items()):
            if id(value) in replaced and replaced[id(value)][0] is value:
                setattr(namespace, attr, replaced[id(value)][1])
    _assert_no_originals(namespaces, replaced)


def _assert_no_originals(namespaces, replaced) -> None:
    """Fail when an unwrapped original is still reachable from capnet's namespaces."""
    holders = []
    for namespace in namespaces:
        holders.append((namespace.__name__, vars(namespace)))
        for obj in vars(namespace).values():
            if inspect.isclass(obj) and obj.__module__.startswith("capnet"):
                holders.append((f"{obj.__module__}.{obj.__qualname__}", vars(obj)))
    for where, names in holders:
        for attr, value in names.items():
            for ref in _references(value):
                ref = getattr(ref, "__func__", ref)
                if id(ref) in replaced and replaced[id(ref)][0] is ref:
                    raise RuntimeError(f"{where}.{attr} still holds the untraced {ref.__qualname__}")
