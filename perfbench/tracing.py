"""Span and counter tracing of diwt from outside the package.

The benchmark wraps the functions that each diwt module calls in the next
module down, so the program's source stays untouched.  Every boundary below
names the module that owns the function and its attribute name there; the
wrapper replaces the function in *every* loaded ``diwt.*`` module that binds
the same object (``from .quad import integrate_finite`` makes a second
binding).  A boundary whose name no longer exists is recorded as absent and
its metrics are left out, so renaming a private helper never crashes a run.

A span's self time is its duration minus the time of the spans it caused;
a layer's self time is the sum over its spans.  The benchmark opens the
outermost ``cli`` span itself, around ``diwt.cli.main``.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

import numpy as np

# (key, layer, module, attribute path, counter kind).  Keys become metric
# names.  Counter kinds: "span" times only; "points" also counts the size of
# the first argument; "quad" reads evaluations and the convergence flag of
# the IntegralResult; "kernel" reads the (value, error, converged) triple;
# "reports" counts returned reports; "handle" counts the points of a function
# handle call f(x).  "contour" and "grid" count cache hits: a call hits when
# the object it returns was already stored in the module-level contour cache
# ("contour") or in the ``_cache`` dict of the bound instance ("grid").
BOUNDARIES = (
    # transforms, called by cli and oracles
    ("transforms.invert_series", "transforms", "diwt.transforms", "invert_series", "span"),
    ("transforms.invert_series_kl", "transforms", "diwt.transforms", "invert_series_kl", "span"),
    ("transforms.coefficient_transform", "transforms", "diwt.transforms",
     "coefficient_transform", "span"),
    ("transforms.synthesize_series", "transforms", "diwt.transforms", "synthesize_series", "span"),
    ("transforms.function_from_profile", "transforms", "diwt.transforms",
     "function_from_profile", "span"),
    ("transforms.closed_form_coefficients", "transforms", "diwt.transforms",
     "closed_form_coefficients", "span"),
    ("transforms.forward_series", "transforms", "diwt.transforms", "forward_series", "span"),
    # oracles, called by cli
    ("oracles.run_suite", "oracles", "diwt.oracles", "run_suite", "reports"),
    # kernels, called by transforms and oracles
    ("kernels.kernel_eval", "kernels", "diwt.kernels", "_kernel_eval", "kernel"),
    ("kernels.cylinder_cos_kernel", "kernels", "diwt.kernels", "cylinder_cos_kernel", "span"),
    ("kernels.erfc_cos_kernel", "kernels", "diwt.kernels", "erfc_cos_kernel", "span"),
    ("kernels.cylinder_sin_kernel", "kernels", "diwt.kernels", "cylinder_sin_kernel", "span"),
    ("kernels.build_kernel_table", "kernels", "diwt.kernels", "build_kernel_table", "span"),
    # specfun, called by transforms, kernels and oracles
    ("specfun.log_gamma", "specfun", "diwt.specfun", "log_gamma", "points"),
    ("specfun.gamma_abs_squared", "specfun", "diwt.specfun", "gamma_abs_squared", "span"),
    ("specfun.cyl_d", "specfun", "diwt.specfun", "parabolic_cylinder_d_scaled", "points"),
    ("specfun.parabolic_cylinder_d", "specfun", "diwt.specfun", "parabolic_cylinder_d", "span"),
    ("specfun.w_mb", "specfun", "diwt.specfun", "whittaker_w_mb", "span"),
    ("specfun.w_contour", "specfun", "diwt.specfun", "_w_contour_general", "span"),
    ("specfun.contour_cache", "specfun", "diwt.specfun", "_contour_factor", "contour"),
    ("specfun.contour_grid", "specfun", "diwt.specfun", "_ContourFactor.factor", "grid"),
    ("specfun.w_bessel", "specfun", "diwt.specfun", "whittaker_w_bessel", "span"),
    ("specfun.bessel_k", "specfun", "diwt.specfun", "bessel_k_imag", "span"),
    ("specfun.erfc", "specfun", "diwt.specfun", "erfc", "points"),
    ("specfun.erfcx", "specfun", "diwt.specfun", "erfcx", "points"),
    ("specfun.incomplete_bessel_j", "specfun", "diwt.specfun", "incomplete_bessel_j", "span"),
    # quad leaf engines; the semi-infinite rule delegates to the finite one,
    # so it is a span only and its nodes are counted once, at the leaf
    ("quad.finite", "quad", "diwt.quad", "integrate_finite", "quad"),
    ("quad.line", "quad", "diwt.quad", "integrate_vertical_line", "quad"),
    ("quad.semi_infinite", "quad", "diwt.quad", "integrate_semi_infinite", "span"),
)

# Function handles are evaluated through ``__call__`` of every subclass of
# this base; each call's points are the f evaluations of the transforms.
HANDLE_BASE = ("diwt.transforms", "FunctionHandle")
# lru-cached node table whose cache_info() gives hits and misses.
TS_NODES = ("diwt.quad", "_ts_nodes")
# module-level dict behind the "contour" boundary
CONTOUR_CACHE = ("diwt.specfun", "_CONTOUR_CACHE")

LAYERS = ("cli", "transforms", "kernels", "specfun", "quad", "oracles")


def _resolve(module: str, path: str):
    obj = importlib.import_module(module)
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


class _Stat:
    __slots__ = ("calls", "points", "evals", "nonconverged",
                 "self_s", "total_s", "hits", "depth")

    def __init__(self):
        self.calls = self.points = self.evals = 0
        self.nonconverged = self.hits = 0
        self.self_s = self.total_s = 0.0
        self.depth = 0


class Tracer:
    """Installs wrappers, accumulates span times and counts, restores."""

    def __init__(self):
        self.stats = defaultdict(_Stat)
        self.layer_self = defaultdict(float)
        self.layer_total = defaultdict(float)
        self._layer_depth = defaultdict(int)
        self._child = []          # child-time accumulator per open span
        self.spans = 0
        self.absent = []
        self._undo = []
        self._ts_nodes = None
        self._ts_start = None
        self._contour_cache = None

    # -- span bookkeeping -------------------------------------------------

    def _wrap(self, fn, key, layer, kind):
        stat = self.stats[key]
        child = self._child
        layer_depth = self._layer_depth
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if kind == "contour":
                cache = tracer._contour_cache
                before = tuple(cache.values()) if cache is not None else ()
            elif kind == "grid":
                cache = getattr(args[0], "_cache", None) if args else None
                before = tuple(cache.values()) if isinstance(cache, dict) else ()
            stat.depth += 1
            layer_depth[layer] += 1
            child.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = child.pop()
                stat.depth -= 1
                layer_depth[layer] -= 1
                stat.calls += 1
                stat.self_s += dt - inner
                tracer.layer_self[layer] += dt - inner
                tracer.spans += 1
                if stat.depth == 0:
                    stat.total_s += dt
                if layer_depth[layer] == 0:
                    tracer.layer_total[layer] += dt
                if child:
                    child[-1] += dt
            if kind == "points":
                stat.points += int(np.size(args[0])) if args else 1
            elif kind == "handle":
                stat.points += int(np.size(args[1])) if len(args) > 1 else 1
            elif kind == "quad":
                stat.evals += int(out.evaluations)
                stat.nonconverged += 0 if out.converged else 1
            elif kind == "kernel":
                stat.nonconverged += 0 if out[2] else 1
            elif kind == "reports":
                stat.points += len(out)
            elif kind in ("contour", "grid"):
                # holding `before` keeps evicted objects alive, so a new
                # object cannot reuse an address and look cached
                stat.hits += 1 if any(v is out for v in before) else 0
            return out

        return wrapper

    def span(self, key, layer, fn, *args, **kwargs):
        """Run fn inside a span opened by the caller (the benchmark)."""
        return self._wrap(fn, key, layer, "span")(*args, **kwargs)

    # -- installation -----------------------------------------------------

    def _rebind(self, original, wrapper):
        for name, mod in list(sys.modules.items()):
            if not (name == "diwt" or name.startswith("diwt.")) or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def install(self):
        for key, layer, module, path, kind in BOUNDARIES:
            try:
                original = _resolve(module, path)
            except (ImportError, AttributeError):
                self.absent.append(key)
                continue
            wrapper = self._wrap(original, key, layer, kind)
            if "." in path:
                owner_path, attr = path.rsplit(".", 1)
                owner = _resolve(module, owner_path)
                setattr(owner, attr, wrapper)
                self._undo.append((owner, attr, original))
            else:
                self._rebind(original, wrapper)
        try:
            base = _resolve(*HANDLE_BASE)
            handles = [c for c in _all_subclasses(base) if "__call__" in vars(c)]
        except (ImportError, AttributeError):
            handles = []
        if not handles:
            self.absent.append("transforms.f_evals")
        for cls in handles:
            original = vars(cls)["__call__"]
            setattr(cls, "__call__",
                    self._wrap(original, "transforms.f_evals", "transforms", "handle"))
            self._undo.append((cls, "__call__", original))
        try:
            self._ts_nodes = _resolve(*TS_NODES)
            self._ts_start = self._ts_nodes.cache_info()
        except (ImportError, AttributeError):
            self._ts_nodes = None
            self.absent.append("quad.ts_nodes")
        try:
            cache = _resolve(*CONTOUR_CACHE)
            self._contour_cache = cache if isinstance(cache, dict) else None
        except (ImportError, AttributeError):
            self._contour_cache = None
        if self._contour_cache is None and "specfun.contour_cache" not in self.absent:
            self.absent.append("specfun.contour_cache")

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def ts_nodes_counts(self):
        """(hits, lookups) of the node-table cache since install, or None."""
        if self._ts_nodes is None:
            return None
        now = self._ts_nodes.cache_info()
        hits = now.hits - self._ts_start.hits
        return hits, hits + now.misses - self._ts_start.misses

    def calibrate(self, n: int = 20000) -> float:
        """Seconds one span adds, from wrapped against bare calls of a no-op."""
        def noop(x):
            return x

        saved = self.spans
        wrapped = self._wrap(noop, "trace.calibration", "trace.calibration", "span")
        clock = time.perf_counter
        best = None
        for _ in range(3):
            t0 = clock()
            for i in range(n):
                noop(i)
            bare = clock() - t0
            t0 = clock()
            for i in range(n):
                wrapped(i)
            cost = (clock() - t0 - bare) / n
            best = cost if best is None else min(best, cost)
        del self.stats["trace.calibration"]
        self.layer_self.pop("trace.calibration", None)
        self.layer_total.pop("trace.calibration", None)
        self.spans = saved
        return max(best, 0.0)


def _all_subclasses(cls):
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_all_subclasses(sub))
    return out
