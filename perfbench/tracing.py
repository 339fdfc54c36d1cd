"""Per-layer tracing of radialorbit from outside the package.

``Tracer.install()`` replaces each public function named in ``LAYERS``
with a wrapper at every place the package binds it (a function imported
by name into another module is a second binding), and the traced
``Lattice`` methods on the class itself.  While installed, every call
records a span (name, parent, start, end) in flat in-memory arrays; the
per-layer numbers are computed from those spans when the run ends.  A
layer's self time is its span's duration minus that of its child spans.

A name the package no longer has is recorded as absent, so a rewrite
that deletes a function does not break the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter

PACKAGE = "radialorbit"

# (module, attribute[, method]) -> reported layer name "<module>.<function>"
LAYERS = (
    ("cubic", "solve_cubic"),
    ("elliptic", "elliptic_K"),
    ("elliptic", "carlson_rf"),
    ("dynamics", "build_f"),
    ("dynamics", "classify_region"),
    ("dynamics", "pericenter"),
    ("weierstrass", "Lattice", "__init__"),
    ("weierstrass", "Lattice", "wp_all"),
    ("weierstrass", "Lattice", "sigma"),
    ("weierstrass", "Lattice", "wp_inverse"),
    ("propagation", "build_context"),
    ("propagation", "tau0_from_r0"),
    ("propagation", "radial_kepler"),
    ("propagation", "invert_kepler"),
    ("propagation", "theta_of_tau"),
    ("propagation", "theta_phase"),
    ("propagation", "r_of_tau"),
    ("propagation", "propagate_ctx"),
    ("analysis", "find_periodic_v"),
    ("analysis", "escape_alpha"),
    ("analysis", "boundedness_from_state"),
    ("cli", "main"),
)

# inner calls per outermost outer call: (metric, inner layer, outer layer)
RATIOS = (
    ("propagation.kepler_evals_per_inversion", "propagation.radial_kepler",
     "propagation.invert_kepler"),
    ("propagation.phase_evals_per_theta", "propagation.theta_phase",
     "propagation.theta_of_tau"),
    ("analysis.contexts_per_periodic_solve", "propagation.build_context",
     "analysis.find_periodic_v"),
)

FAIL_LAYER = "propagation.build_context"


def layer_name(target: tuple) -> str:
    module, attr = target[:2]
    if len(target) == 3 and target[2] != "__init__":
        return f"{module}.{target[2]}"
    return f"{module}.{attr}"


class Tracer:
    """Span recorder; spans live in flat arrays until ``summary()``."""

    def __init__(self) -> None:
        self.names: list[str] = [layer_name(t) for t in LAYERS]
        self._ids = {n: i for i, n in enumerate(self.names)}
        self.parent = array("q")
        self.layer = array("H")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._open = [0] * len(self.names)      # open spans per layer
        self.fails: Counter = Counter()
        self.ratio_counts: Counter = Counter()
        self._ratio_of_inner = {self._ids[i]: (m, self._ids[o]) for m, i, o in RATIOS}
        self._ratio_of_outer = {self._ids[o]: m for m, _, o in RATIOS}
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, lid: int, fn):
        parent, layer, start, end = self.parent, self.layer, self.start, self.end
        stack, opened, clock = self._stack, self._open, time.perf_counter
        inner = self._ratio_of_inner.get(lid)
        outer = self._ratio_of_outer.get(lid)
        counts = self.ratio_counts
        fail_here = self.names[lid] == FAIL_LAYER

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if inner is not None and opened[inner[1]]:
                counts[inner[0] + ".num"] += 1
            if outer is not None and not opened[lid]:
                counts[outer + ".den"] += 1
            sid = len(start)
            parent.append(stack[-1])
            layer.append(lid)
            end.append(0.0)
            stack.append(sid)
            opened[lid] += 1
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                if fail_here:
                    self.fails[type(exc).__name__] += 1
                raise
            finally:
                end[sid] = clock()
                opened[lid] -= 1
                stack.pop()

        return traced

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for lid, target in enumerate(LAYERS):
            try:
                module = importlib.import_module(f"{PACKAGE}.{target[0]}")
                original = getattr(module, target[1])
                if len(target) == 3:
                    cls, original = original, getattr(original, target[2])
            except (ImportError, AttributeError):
                self.absent.append(self.names[lid])
                continue
            wrapper = self._wrap(lid, original)
            if len(target) == 3:
                self._patch(cls, target[2], wrapper)
                continue
            for mod in modules:      # every module that bound the same object
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def summary(self, ops: int) -> dict:
        """calls per op and mean self time (us) per layer, plus the ratios."""
        n_layers = len(self.names)
        calls = [0] * n_layers
        self_time = [0.0] * n_layers
        child = [0.0] * len(self.start)
        start, end, parent, layer = self.start, self.end, self.parent, self.layer
        for sid in range(len(start) - 1, -1, -1):
            dur = end[sid] - start[sid]
            lid = layer[sid]
            calls[lid] += 1
            self_time[lid] += dur - child[sid]
            p = parent[sid]
            if p >= 0:
                child[p] += dur
        out = {}
        for lid, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[lid] / ops
            out[f"{name}.self_us"] = 1e6 * self_time[lid] / calls[lid] if calls[lid] else 0.0
        for metric, _, _ in RATIOS:
            den = self.ratio_counts[metric + ".den"]
            out[metric] = self.ratio_counts[metric + ".num"] / den if den else 0.0
        return out
