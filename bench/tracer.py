"""Per-layer tracing of gwpa from outside the library.

The tracer replaces each layer's public entry points with timing wrappers
for the duration of one traced pass, then restores the originals.  A name
that another module imported directly (``centre.nullspace``,
``quant.rref``, ``simplicity.poisson_ideal_closure``, ``cli.*`` and the
package-level re-exports) is rebound there too, so every call path goes
through the wrapper.

Only calls made while an item runs are counted.  Every wrapped call keeps
its call count, total time and self time (duration minus the time of the
wrapped calls it made) aggregated per name on the tracer's stack.  Items
and the coarse entry points (closures, kernels, elimination, parsing,
CLI calls) are also stored as full spans with a trace id, span id and
parent span id; the hot ``poly``/``poisson``/``engine``/``quant`` calls
are only aggregated, since they run 1e5 to 1e6 times per pass.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
import time
from dataclasses import dataclass
from typing import Callable

perf_counter = time.perf_counter


@dataclass(frozen=True)
class Probe:
    """One wrapped entry point: ``owner`` is ``module`` or ``module:Class``."""

    layer: str
    owner: str
    attr: str
    coarse: bool = False
    count: Callable | None = None


def _term_pairs(counts, name, args, result):
    left, right = args[0], args[1]
    size = len(right.items()) if hasattr(right, "items") else 1
    counts[name + ".term_pairs"] += len(left.items()) * size


def _cells(counts, name, args, result):
    matrix = args[0]
    counts[name + ".cells"] += len(matrix) * (len(matrix[0]) if matrix else 0)


def _closure_sizes(counts, name, args, result):
    counts[name + ".dimension"] += len(result.basis)
    counts[name + ".overflow"] += result.overflow


PROBES = (
    Probe("poly.mul", "gwpa.poly:Polynomial", "__mul__", count=_term_pairs),
    Probe("poly.add", "gwpa.poly:Polynomial", "__add__"),
    Probe("poisson.derivation", "gwpa.poisson:BaseDerivation", "__call__"),
    Probe("poisson.bracket", "gwpa.poisson:BasePoissonAlgebra", "bracket"),
    Probe("engine.mul", "gwpa.engine:GWPAElement", "__mul__"),
    Probe("engine.bracket", "gwpa.engine:GWPAElement", "bracket", count=_term_pairs),
    Probe("engine.total_degree", "gwpa.engine:GWPAElement", "total_degree"),
    Probe("quant.gwa_mul", "gwpa.quant:GWAElement", "__mul__"),
    Probe("quant.apply_sigma", "gwpa.quant:GWAData", "apply_sigma_alpha"),
    Probe("quant.degree", "gwpa.quant:GWAElement", "degree"),
    Probe("quant.homogeneous_part", "gwpa.quant:GWAElement", "homogeneous_part"),
    Probe("quant.correspondence", "gwpa.quant", "gr_correspondence_check", coarse=True),
    Probe("centre.closure", "gwpa.centre", "poisson_ideal_closure", coarse=True,
          count=_closure_sizes),
    Probe("centre.kernel", "gwpa.centre", "centre_component", coarse=True),
    Probe("centre.kernel", "gwpa.centre", "constants_basis", coarse=True),
    Probe("linalg.nullspace", "gwpa.linalg", "nullspace", coarse=True, count=_cells),
    Probe("linalg.rref", "gwpa.linalg", "rref", coarse=True),
    Probe("simplicity.check", "gwpa.simplicity", "simplicity_check", coarse=True),
    Probe("parser.parse", "gwpa.parser", "parse_element", coarse=True),
    Probe("parser.parse", "gwpa.parser", "parse_polynomial", coarse=True),
    Probe("specfile.parse", "gwpa.specfile", "parse_algebra_spec", coarse=True),
    Probe("cli.main", "gwpa.cli", "main", coarse=True),
)

class Tracer:
    """Aggregated call statistics and coarse spans for traced items."""

    def __init__(self):
        self.stack: list[list] = []  # open frames: [layer, child_seconds, span_id]
        self.stats: dict[str, list] = {}  # layer -> [calls, total_s, self_s]
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []
        self.trace_id = None
        self._next_span = 0
        self._restore: list[tuple] = []

    def reset(self):
        self.stats = {}
        self.counts = defaultdict(int)
        self.spans = []

    # -- spans ---------------------------------------------------------------

    def _open_span(self):
        self._next_span += 1
        parent = None
        for frame in reversed(self.stack):
            if frame[2] is not None:
                parent = frame[2]
                break
        return self._next_span, parent

    def _close(self, frame, start, end, parent):
        layer, child, span = frame
        duration = end - start
        entry = self.stats.get(layer)
        if entry is None:
            entry = self.stats[layer] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child
        if self.stack:
            self.stack[-1][1] += duration
        if span is not None:
            self.spans.append((self.trace_id, span, parent, layer, start, end))

    def run_item(self, trace_id, fn):
        """Run one item as the root span of ``trace_id``."""
        self.trace_id = trace_id
        span, parent = self._open_span()
        frame = ["item", 0.0, span]
        self.stack.append(frame)
        start = perf_counter()
        try:
            return fn()
        finally:
            end = perf_counter()
            self.stack.pop()
            self._close(frame, start, end, parent)
            self.trace_id = None

    def _wrap(self, layer: str, fn, coarse: bool, count):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if not stack:
                return fn(*args, **kwargs)
            if coarse:
                span, parent = tracer._open_span()
            else:
                span = parent = None
            frame = [layer, 0.0, span]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer._close(frame, start, end, parent)
            if count is not None:
                count(tracer.counts, layer, args, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    # -- installation ----------------------------------------------------------

    def _modules(self):
        names = [n for n in sys.modules if n == "gwpa" or n.startswith("gwpa.")]
        return [sys.modules[n] for n in sorted(names)]

    def install(self):
        """Wrap every probe and rebind each direct import of it."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        modules = self._modules()
        for probe in PROBES:
            module_name, _, class_name = probe.owner.partition(":")
            owner = sys.modules[module_name]
            if class_name:
                owner = getattr(owner, class_name)
            original = owner.__dict__[probe.attr]
            if isinstance(original, property):
                wrapped = property(
                    self._wrap(probe.layer, original.fget, probe.coarse, probe.count),
                    doc=original.__doc__,
                )
                targets = [owner]
            elif class_name:
                wrapped = self._wrap(probe.layer, original, probe.coarse, probe.count)
                targets = [owner]
            else:
                wrapped = self._wrap(probe.layer, original, probe.coarse, probe.count)
                targets = modules
            for target in targets:
                for name, value in list(vars(target).items()):
                    if value is original:
                        self._restore.append((target, name, value))
                        setattr(target, name, wrapped)

    def uninstall(self):
        while self._restore:
            target, name, value = self._restore.pop()
            setattr(target, name, value)
