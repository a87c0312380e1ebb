"""In-memory span tracer that wraps spextremal's public functions from outside.

Each traced function is replaced, in every spextremal module that holds a
reference to it, by a wrapper that records one span (name, start, end,
parent).  Rebinding every reference matters because the modules import
each other's functions by name: ``search.target``, ``extremal.target`` and
``numeric.target`` are three bindings of one function, and each call site
looks up its own module's binding.  Nothing under ``src/`` is modified.

Spans stay in memory until ``write_spans``; ``layer_metrics`` turns them
into per-layer call counts and self times (a span's duration minus the
durations of its direct children).
"""

from __future__ import annotations

import csv
import functools
import gzip
import math
import sys
import time

# layer -> public functions traced in that layer (metric prefix "<layer>.<name>")
TRACED = {
    "sptree": ("enumerate_rooted", "realize", "dualize"),
    "weights": ("induced_weights", "induced_coefficients", "spanning_trees"),
    "numeric": ("transfer_current", "projection", "pinv_laplacian",
                "rational_inverse", "rational_det", "target", "orthonormalize",
                "match_sign_diagonal", "principal_angles"),
    "extremal": ("build", "check_eigen", "check_degenerate", "check_dual",
                 "verify_instance", "class_key", "canonical_matrix_form"),
    "search": ("accumulate", "optimize", "sample_uniform",
               "symmetry_equivalent", "perturb"),
    "cli": ("main",),
}
# Subspace.__post_init__ is a method, traced under this span name
SUBSPACE_VALIDATE = "numeric.subspace_validate"

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns) \
    + (SUBSPACE_VALIDATE,)

# derived per-layer metrics and their units, besides "<span>.calls"/"<span>.self_ms"
DERIVED_UNITS = {
    "weights.spanning_trees.trees": "count",
    "weights.tree_ratio": "ratio",
    "search.step_us": "us",
    "search.steps_per_restart": "count",
    "search.hit_ratio": "ratio",
}


class Tracer:
    """Records spans around spextremal's public functions while installed."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index or -1]
        self._open: list[int] = []
        self._rebound: list[tuple] = []
        self.trees = 0            # spanning trees returned by weights.spanning_trees
        self.subsets = 0          # edge subsets it tested to find them
        self.restarts = 0         # search.optimize returns
        self.hits = 0             # of those, within eps of 1/sqrt(n)
        self._target = None       # the untraced numeric.target, for scoring hits

    def _wrap(self, name, fn, on_return=None):
        spans, open_, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if open_ and spans[open_[-1]][0] is name:
                # direct recursion (dualize): one span for the outermost call
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1]
            open_.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_.pop()
            if on_return is not None:
                on_return(args, result)
            return result

        return traced

    def _count_trees(self, args, trees):
        graph = args[0]
        self.trees += len(trees)
        self.subsets += math.comb(len(graph.edges), graph.num_vertices - 1)

    def _count_hit(self, args, sub):
        cfg = args[1]
        angle, _ = self._target(sub)
        self.restarts += 1
        if abs(math.cos(angle) - 1.0 / math.sqrt(sub.ambient)) <= cfg.eps:
            self.hits += 1

    def install(self) -> None:
        """Rebind every traced function in every loaded spextremal module."""
        from spextremal import numeric

        self._target = numeric.target
        hooks = {"weights.spanning_trees": self._count_trees,
                 "search.optimize": self._count_hit}
        modules = [m for key, m in sys.modules.items()
                   if key == "spextremal" or key.startswith("spextremal.")]
        for layer, fns in TRACED.items():
            home = sys.modules[f"spextremal.{layer}"]
            for fn_name in fns:
                name = f"{layer}.{fn_name}"
                original = getattr(home, fn_name, None)
                if original is None:
                    continue  # removed by a later version: reports 0 calls
                wrapper = self._wrap(name, original, hooks.get(name))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._rebound.append((module, attr, original))
        validate = getattr(numeric.Subspace, "__post_init__", None)
        if validate is not None:
            numeric.Subspace.__post_init__ = self._wrap(SUBSPACE_VALIDATE, validate)
            self._rebound.append((numeric.Subspace, "__post_init__", validate))

    def uninstall(self) -> None:
        """Restore every binding that install replaced."""
        for owner, attr, original in reversed(self._rebound):
            setattr(owner, attr, original)
        self._rebound.clear()

    def layer_metrics(self) -> dict:
        """Per-span calls and self time, plus the derived per-layer figures."""
        child_time = [0.0] * len(self.spans)
        calls = dict.fromkeys(SPAN_NAMES, 0)
        total = dict.fromkeys(SPAN_NAMES, 0.0)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_time = dict.fromkeys(SPAN_NAMES, 0.0)
        for i, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            self_time[name] += end - start - child_time[i]
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_ms"] = self_time[name] * 1e3
        steps = calls["search.perturb"]
        restarts = calls["search.optimize"]
        out["weights.spanning_trees.trees"] = self.trees
        out["weights.tree_ratio"] = self.trees / self.subsets if self.subsets else 0.0
        out["search.step_us"] = total["search.optimize"] * 1e6 / steps if steps else 0.0
        out["search.steps_per_restart"] = steps / restarts if restarts else 0.0
        out["search.hit_ratio"] = self.hits / self.restarts if self.restarts else 0.0
        return out

    def write_spans(self, path) -> None:
        """Write every span as CSV rows (index, name, start_s, end_s, parent)."""
        with gzip.open(path, "wt", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("index", "name", "start_s", "end_s", "parent"))
            for i, (name, start, end, parent) in enumerate(self.spans):
                writer.writerow((i, name, repr(start), repr(end), parent))


def metric_units() -> dict:
    """Unit of every per-layer metric layer_metrics returns."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_ms"] = "ms"
    units.update(DERIVED_UNITS)
    return units
