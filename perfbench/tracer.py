"""Per-layer span tracer for lis_uplink, installed from outside the package.

The package imports layer functions by name (``harness`` holds its own
``make_unit_stats``, ``links`` its own ``root_matrix_from_angles``,
``optimize`` its own ``build_unit_geometry``), so wrapping a function only
in its defining module would miss most calls. ``Tracer.installed()``
replaces every binding of each target in every loaded ``lis_uplink``
module, and the two ``BlockKernel`` methods on the class, then puts the
originals back on exit.

Spans are aggregated in memory per name: call count, total time, and the
time covered by child spans (self time = total - child). Time spent in
spans with no traced parent is the top-level total, which the benchmark
subtracts from the run's wall time to get the harness's unattributed
share.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time

PACKAGE = "lis_uplink"

# (defining module, attribute); the span name is "<module>.<attribute>"
# without the package prefix.
TARGETS = (
    ("scenario", "place_devices"),
    ("links", "build_unit_geometry"),
    ("links", "stream"),
    ("links", "draw_unit_block"),
    ("channel", "cgauss"),
    ("links", "make_unit_stats"),
    ("channel", "root_matrix_from_angles"),
    ("links", "slice_stats"),
    ("links", "BlockKernel.__init__"),
    ("links", "BlockKernel.terms"),
    ("asymptotics", "build_moment_set"),
    ("asymptotics", "theorem1_sse"),
    ("optimize", "expected_floor_table"),
    ("optimize", "optimal_num_devices"),
    ("harness", "summarize"),
)

SPAN_NAMES = tuple(f"{mod}.{attr}" for mod, attr in TARGETS)

def _package_modules() -> list:
    return [
        mod for key, mod in sorted(sys.modules.items())
        if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
    ]


class _Span:
    __slots__ = ("calls", "total_s", "child_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.child_s = 0.0


class Tracer:
    """Collects spans while installed; reusable across runs via reset()."""

    def __init__(self):
        self.spans = {name: _Span() for name in SPAN_NAMES}
        self.top_s = 0.0
        self.root_bytes = 0
        self.pool_realized = 0
        self.pool_requested = 0
        self._stack: list[list[float]] = []

    def reset(self) -> None:
        """Zero every counter in place (installed wrappers keep their refs)."""
        for span in self.spans.values():
            span.calls, span.total_s, span.child_s = 0, 0.0, 0.0
        self.top_s = 0.0
        self.root_bytes = self.pool_realized = self.pool_requested = 0

    def _observe(self, name, out, args, kwargs) -> None:
        if name == "channel.root_matrix_from_angles":
            self.root_bytes += out.nbytes
        elif name == "scenario.place_devices":
            requested = kwargs.get("K")
            self.pool_requested += int(requested if requested is not None else args[0].K)
            self.pool_realized += out.K

    def _wrap(self, name, fn):
        span = self.spans[name]
        stack = self._stack
        observed = name in ("channel.root_matrix_from_angles", "scenario.place_devices")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                span.calls += 1
                span.total_s += dt
                span.child_s += frame[0]
                if stack:
                    stack[-1][0] += dt
                else:
                    self.top_s += dt
            if observed:
                self._observe(name, out, args, kwargs)
            return out

        traced.__perfbench_span__ = name
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every binding of every target; restore all on exit."""
        importlib.import_module(PACKAGE)
        modules = _package_modules()
        undo = []
        try:
            for (mod_name, attr), name in zip(TARGETS, SPAN_NAMES):
                home = importlib.import_module(f"{PACKAGE}.{mod_name}")
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[meth]
                    setattr(cls, meth, self._wrap(name, original))
                    undo.append((cls, meth, original))
                    continue
                original = getattr(home, attr)
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            undo.append((mod, key, original))
            yield self
        finally:
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)

    def metrics(self) -> dict[str, float]:
        """Per-span calls, self time and, where spans nest, total time."""
        out: dict[str, float] = {}
        for name, span in self.spans.items():
            out[f"{name}.calls"] = span.calls
            out[f"{name}.self_s"] = span.total_s - span.child_s
            if name in NESTING:
                out[f"{name}.total_s"] = span.total_s
        out["channel.root_matrix_from_angles.out_mb"] = self.root_bytes / 2**20
        out["scenario.place_devices.pool_ratio"] = (
            self.pool_realized / self.pool_requested if self.pool_requested else 0.0
        )
        return out


# Spans that contain other traced spans, so total and self time differ.
NESTING = (
    "links.draw_unit_block",
    "links.make_unit_stats",
    "optimize.expected_floor_table",
)


def leftover_wrappers() -> list[str]:
    """Names of any lis_uplink binding still bound to a span wrapper."""
    found = []
    for mod in _package_modules():
        for attr, value in vars(mod).items():
            if hasattr(value, "__perfbench_span__"):
                found.append(f"{mod.__name__}.{attr}")
            if isinstance(value, type):
                for meth, fn in vars(value).items():
                    if hasattr(fn, "__perfbench_span__"):
                        found.append(f"{mod.__name__}.{attr}.{meth}")
    return found
