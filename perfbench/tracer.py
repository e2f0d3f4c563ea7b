"""Spans around each layer's public entry points, installed from outside.

The program under test carries no tracing code.  ``Tracer.install`` swaps
each entry point for a timing wrapper at every place the name is bound: on
its class for methods, and for functions in every ``repro`` module that
imported the function by value (``from x import f`` copies the binding, so
wrapping only the defining module would miss those calls).  ``uninstall``
puts the originals back, so untraced rounds run the unmodified program.

A span's self time is its duration minus the time covered by the spans it
caused; calls run on one thread, so the children of a span are the spans
that start and end while it is the innermost open span.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter_ns

_MISSING = object()


def method_targets():
    """``(span name, class, method)`` for every wrapped method."""
    from repro.core.accmc import AccMC
    from repro.core.diffmc import DiffMC
    from repro.core.pipeline import MCMLPipeline
    from repro.counting.approxmc import ApproxMCCounter
    from repro.counting.engine import CountingEngine
    from repro.counting.exact import ExactCounter
    from repro.counting.store import BlobStore, ComponentStore, CountStore
    from repro.ml import MODEL_REGISTRY
    from repro.sat.solver import Solver

    targets = [
        ("sat.solve", Solver, "solve"),
        ("counting.approxmc.count", ApproxMCCounter, "count"),
        ("counting.exact.count", ExactCounter, "count"),
        ("counting.engine.solve_many", CountingEngine, "solve_many"),
        ("core.accmc.evaluate", AccMC, "evaluate"),
        ("core.diffmc.evaluate", DiffMC, "evaluate"),
        ("core.pipeline.run", MCMLPipeline, "run"),
    ]
    # The three sqlite tiers share get/put/flush through _SqliteStore;
    # wrapping on each subclass names the tier a call went to.  The engine
    # reads and writes counts in batches.
    targets += [
        ("counting.store.counts.get", CountStore, "get_many"),
        ("counting.store.counts.put", CountStore, "put_many"),
        ("counting.store.counts.put", CountStore, "put"),
        ("counting.store.counts.flush", CountStore, "flush"),
    ]
    for tier, cls in (("memos", BlobStore), ("components", ComponentStore)):
        for method in ("get", "put", "flush"):
            targets.append((f"counting.store.{tier}.{method}", cls, method))
    for label, cls in MODEL_REGISTRY.items():
        targets.append((f"ml.fit.{label}", cls, "fit"))
        targets.append((f"ml.predict.{label}", cls, "predict"))
    return targets


#: Span name -> defining module and function.  Every ``repro`` module that
#: holds the same function object under the same name is rebound too.
FUNCTION_TARGETS = {
    "spec.translate": "repro.spec.translate.translate",
    "logic.tseitin": "repro.logic.tseitin.tseitin_cnf",
    "counting.approxmc.cells": "repro.sat.enumerate.count_models",
    "data.enumerate": "repro.data.generation.enumerate_positive_bits",
    "data.sample_negatives": "repro.data.generation.sample_negative_bits",
    "data.generate": "repro.data.generation.generate_dataset",
    "core.tree2cnf": "repro.core.tree2cnf.label_region_cnf",
    "experiments.render": "repro.experiments.render.render_table",
}

#: Bindings that must be wrapped for the spans to be complete: names the
#: program imported by value into the module that calls them.
REQUIRED_BINDINGS = (
    ("repro.experiments.table1", "enumerate_positive_bits"),
    ("repro.experiments.figures", "enumerate_positive_bits"),
    ("repro.core.pipeline", "generate_dataset"),
    ("repro.counting.approxmc", "count_models"),
    ("repro.spec.translate", "tseitin_cnf"),
    ("repro.experiments.figures", "translate"),
    ("repro.experiments.table1", "render_table"),
    ("repro.experiments.classification", "render_table"),
    ("repro.experiments.generalization", "render_table"),
    ("repro.experiments.table8", "render_table"),
    ("repro.experiments.table9", "render_table"),
)

#: Modules where a function is rebound only at the listed binding, not
#: wherever it appears (``count_models`` also serves enumeration outside
#: ApproxMC, which is not an ApproxMC cell).
ONLY_AT = {"counting.approxmc.cells": ("repro.counting.approxmc",)}


class Tracer:
    """Per-name call counts, self time and (for chosen names) durations."""

    def __init__(self, names=None, keep_spans=()):
        #: Restrict installation to these span names (None: all of them).
        self.names = None if names is None else set(names)
        self.keep_spans = set(keep_spans)
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        #: ``(start, end)`` in ``perf_counter`` seconds of every kept span.
        self.spans: dict[str, list[tuple[float, float]]] = defaultdict(list)
        self._stack: list[list[int]] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------------

    def _enter(self) -> list[int]:
        frame = [0]
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list[int], start: int, end: int) -> None:
        self._stack.pop()
        duration = end - start
        self.calls[name] += 1
        self.self_ns[name] += duration - frame[0]
        self.total_ns[name] += duration
        if name in self.keep_spans:
            self.spans[name].append((start / 1e9, end / 1e9))
        if self._stack:
            self._stack[-1][0] += duration

    def wrap(self, name: str, fn):
        enter, exit_ = self._enter, self._exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = enter()
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(name, frame, start, perf_counter_ns())

        return traced

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span of its own (the benchmark's driver calls)."""
        return self.wrap(name, fn)(*args, **kwargs)

    # -- installation ----------------------------------------------------------------

    def _wanted(self, name: str) -> bool:
        return self.names is None or name in self.names

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        for name, cls, method in method_targets():
            if self._wanted(name):
                self._set(cls, method, self.wrap(name, getattr(cls, method)))
        for name, qualname in FUNCTION_TARGETS.items():
            if not self._wanted(name):
                continue
            module_name, _, attr = qualname.rpartition(".")
            original = getattr(sys.modules[module_name], attr)
            wrapper = self.wrap(name, original)
            modules = ONLY_AT.get(name)
            for mod_name, module in list(sys.modules.items()):
                if not mod_name.startswith("repro") or module is None:
                    continue
                if modules is not None and mod_name not in modules:
                    continue
                if module.__dict__.get(attr) is original:
                    self._set(module, attr, wrapper)
        if self.names is None:
            missing = [
                f"{mod}.{attr}"
                for mod, attr in REQUIRED_BINDINGS
                if not hasattr(getattr(sys.modules[mod], attr), "__wrapped__")
            ]
            if missing:
                raise RuntimeError(f"entry points not wrapped: {', '.join(missing)}")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, previous = self._undo.pop()
            if previous is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)
