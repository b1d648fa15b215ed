"""In-memory spans around calls into prefsense's modules, set from outside.

Nothing in ``src/`` knows about tracing. ``Tracer.install`` replaces
module attributes at their call sites (the public functions that ``cli``,
``verification`` and ``fitting`` define or import, ``cli.main``,
``verification.CHECKS``, and ``raster.read_csv_grid``, which the benchmark
calls itself) and the link class methods with wrappers that record
``(name, start, end, parent)``. ``Tracer.uninstall`` puts the originals
back, so untraced passes run the program unchanged.

A span's name is ``<layer>.<function>``, where the layer is the module
that defines the function.
"""

from __future__ import annotations

import inspect
import os
import time
import tracemalloc
from collections import defaultdict

import prefsense.cli
import prefsense.fitting
import prefsense.links
import prefsense.raster
import prefsense.verification

# Modules whose namespaces hold the call sites that get wrapped.
_CALL_SITES = (prefsense.cli, prefsense.verification, prefsense.fitting)
_LINK_CLASSES = (prefsense.links.LogisticLink, prefsense.links.ProbitLink)
_LINK_METHODS = ("evaluate", "derivative", "inverse")


def _argument(fn, args, kwargs, name):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


# Work counts read at the call boundary, from arguments and results:
# span name -> (fn, args, kwargs, result) -> {counter: increment}.
_COUNTERS = {
    "raster.raster_bt": lambda fn, a, kw, r: {"raster.cells": r.resolution**2},
    "raster.raster_pl": lambda fn, a, kw, r: {"raster.cells": r.resolution**2},
    "raster.export": lambda fn, a, kw, r: {"raster.bytes_written": os.path.getsize(r)},
    "oracles.mc_area_bt": lambda fn, a, kw, r: {"oracles.points": r.n_samples},
    "oracles.quad_area_pl": lambda fn, a, kw, r: {"oracles.points": int(_argument(fn, a, kw, "grid_n")) + 1},
    "oracles.mode_count": lambda fn, a, kw, r: {"oracles.points": int(_argument(fn, a, kw, "grid_n"))},
    "synth.generate": lambda fn, a, kw, r: {"synth.samples": len(r)},
    "synth.write_jsonl": lambda fn, a, kw, r: {"synth.bytes_written": os.path.getsize(r)},
    "fitting.fit_bt": lambda fn, a, kw, r: {
        "fitting.fits": 1,
        "fitting.iterations": r.iterations,
        "fitting.converged": int(r.converged),
    },
}


class Tracer:
    """Records spans and counters until ``take_pass`` hands them over."""

    def __init__(self, alloc_layer: str | None = None):
        # Spans of alloc_layer also record their tracemalloc peak. That
        # slows them, so a pass traced this way is not used for timings.
        self.alloc_layer = alloc_layer
        self.spans: list = []
        self.counts: dict[str, int] = defaultdict(int)
        self.peak_alloc = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str | None = None):
        """Return fn wrapped in a span named name (default layer.function)."""
        base = name or f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        layer = base.split(".", 1)[0]
        by_format = base == "raster.export"
        counter = _COUNTERS.get(base)
        track_alloc = layer == self.alloc_layer
        tracer = self

        def traced(*args, **kwargs):
            spans = tracer.spans
            stack = tracer._stack
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            if track_alloc:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if track_alloc:
                    tracer.peak_alloc = max(tracer.peak_alloc, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
                stack.pop()
                full = f"{base}.{_argument(fn, args, kwargs, 'format')}" if by_format else base
                spans[idx] = (full, start, end, parent)
            if counter is not None:
                for key, value in counter(fn, args, kwargs, result).items():
                    tracer.counts[key] += value
            return result

        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        for module in _CALL_SITES:
            for attr, value in list(vars(module).items()):
                if (
                    inspect.isfunction(value)
                    and not attr.startswith("_")
                    and value.__module__.startswith("prefsense.")
                    and value.__module__ != "prefsense.cli"
                ):
                    self._patch(module, attr, self.wrap(value))
        checks = tuple(
            (name, self.wrap(fn, f"verification.{name}")) for name, fn in prefsense.verification.CHECKS
        )
        self._patch(prefsense.verification, "CHECKS", checks)
        self._patch(prefsense.cli, "main", self.wrap(prefsense.cli.main, "cli.main"))
        self._patch(prefsense.raster, "read_csv_grid", self.wrap(prefsense.raster.read_csv_grid))
        for cls in _LINK_CLASSES:
            for method in _LINK_METHODS:
                self._patch(cls, method, self.wrap(vars(cls)[method], f"links.{cls.__name__}.{method}"))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def take_pass(self):
        """Hand over and clear the spans and counters recorded so far."""
        taken = (self.spans, dict(self.counts))
        self.spans = []
        self.counts = defaultdict(int)
        return taken


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    One thread issues every call, so a span's children run one after
    another inside it and their durations sum to the part they cover.
    """
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own
