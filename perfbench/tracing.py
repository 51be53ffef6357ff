"""Spans around the package's public functions, recorded from outside it.

`Tracer.install` wraps every public function of each layer module and
rebinds the wrapper under every ``ksetpack`` module name the function is
bound to, so a call made through ``from .instance import conflict_graph``
in another module is caught too.  Spans are aggregated as they close:
calls, total time and self time (a span minus the time covered by its child
spans) per function, kept in memory.  Observers turn a call's arguments and
result into named counts, for figures that are not times.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Iterable

LAYERS = (
    "instance",
    "exact",
    "local_search",
    "weighted",
    "multigraph",
    "lp",
    "relaxation",
    "bench",
)

# (args, kwargs, result) -> (counter name, amount) pairs
Observer = Callable[[tuple, dict, object], Iterable[tuple[str, int]]]


class Tracer:
    def __init__(self, observers: dict[str, Observer] | None = None):
        self.observers = observers or {}
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        # one accumulator of child-span time per open span
        self._open: list[float] = []

    def reset(self) -> None:
        self.calls.clear()
        self.self_s.clear()
        self.total_s.clear()
        self.counts.clear()

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(s for name, s in self.self_s.items() if name.startswith(prefix))

    def _wrap(self, name: str, fn: Callable) -> Callable:
        observe = self.observers.get(name)
        open_spans = self._open

        @functools.wraps(fn)
        def span(*args, **kwargs):
            open_spans.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                child = open_spans.pop()
                self.calls[name] += 1
                self.total_s[name] += duration
                self.self_s[name] += duration - child
                if open_spans:
                    open_spans[-1] += duration
            if observe is not None:
                for counter, amount in observe(args, kwargs, result):
                    self.counts[counter] += amount
            return result

        return span

    def install(self) -> None:
        """Wrap the public functions of every layer module, in place."""
        wrappers: dict[Callable, Callable] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"ksetpack.{layer}")
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                    and not inspect.isgeneratorfunction(obj)
                ):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "ksetpack" and not mod_name.startswith("ksetpack."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
