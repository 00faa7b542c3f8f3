"""Span tracing for the benchmark's traced runs.

The wrappers live here, outside the package: `install` replaces the
layer-boundary functions of plurisusy with timing wrappers and rebinds
every module attribute that imported one of them by name, so a call made
through `riemann_roch.kernel_basis` or `pluricanonical.rr_space` is seen
as well.  The end-to-end runs never import this module's `install`.

A span is `[name, start, end, parent index, operation id]`; spans stay in
memory and are written out once, at the end of the run.  Work counters
(repeats, series terms, matrix entries, useful column-space additions) are
computed from arguments and results only, never from the package's
private caches.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence


class Tracer:
    """Spans and counters of one process."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.op = -1
        self.scope: object = None  # curve of the running operation
        self._stack: List[int] = []
        self._seen: set = set()

    def begin_op(self, op: int, scope: object = None) -> None:
        self.op = op
        self.scope = scope

    def end_op(self) -> None:
        self.op = -1
        self.scope = None

    def seen(self, name: str, scope: object, key: object) -> None:
        """Count a call whose key was already seen on the same curve."""
        k = (name, scope, key)
        if k in self._seen:
            self.counts[name + ".repeats"] += 1
        else:
            self._seen.add(k)

    def add(self, name: str, n: int) -> None:
        self.counts[name] += n

    def wrap(self, name: str, fn: Callable,
             hook: Optional[Callable] = None) -> Callable:
        """Time `fn` as span `name`; `hook(tracer, args, kwargs, result)`
        updates counters after a call made inside an operation."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if hook is not None and self.op >= 0:
                hook(self, args, kwargs, result)
            return result

        return traced

    def counting(self, name: str, fn: Callable) -> Callable:
        """Count calls to `fn` as `<name>.calls`, without a span."""
        counts, key = self.counts, name + ".calls"

        @functools.wraps(fn)
        def counted(*args):
            if self.op >= 0:
                counts[key] += 1
            return fn(*args)

        return counted

    def span(self, name: str, start: float, end: float) -> None:
        """Record a span timed by the caller, such as an import."""
        self.spans.append([name, start, end, -1, self.op])

    def merge(self, spans: List[list], counts: Dict[str, int]) -> None:
        """Fold in the spans and counts of a child process, under the
        current operation."""
        base = len(self.spans)
        for name, start, end, parent, _op in spans:
            self.spans.append([name, start, end,
                               parent + base if parent >= 0 else -1, self.op])
        for k, v in counts.items():
            self.counts[k] += v

    def dump(self, path: str, **extra) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts, **extra}, fh)


# -- work counters ---------------------------------------------------------


def _curve_key(name: str, key_of: Callable) -> Callable:
    """Repeat counter keyed per curve: the curve is args[0]."""
    def hook(tr: Tracer, args, kwargs, result):
        tr.seen(name, args[0].f, key_of(args, kwargs))
    return hook


def _rational_roots(tr: Tracer, args, kwargs, result):
    tr.seen("polyq.rational_roots", tr.scope, args[0])


def _x_series(tr: Tracer, args, kwargs, result):
    curve, r = args[0], args[1]
    cut = args[2] if len(args) > 2 else kwargs["cut"]
    tr.seen("curve.x_series_at_branch", curve.f, r)
    tr.add("curve.x_series_at_branch.cut_sum", cut)


def _series_mul(tr: Tracer, args, kwargs, result):
    """Coefficient products inside the truncation window of a * b."""
    a, b = args
    window = min(a.val + b.cut, b.val + a.cut) - a.val - b.val
    na, nb = min(len(a.coeffs), window), len(b.coeffs)
    tr.add("series.mul.terms", sum(min(nb, window - i) for i in range(na)))


def _kernel_entries(tr: Tracer, args, kwargs, result):
    rows = args[0]
    ncols = args[1] if len(args) > 1 else kwargs["ncols"]
    tr.add("linalg.kernel_basis.entries", len(rows) * ncols)


def _column_add(tr: Tracer, args, kwargs, result):
    tr.add("linalg.ColumnSpace.add.useful", int(result))


# (module, attribute, span name, counter hook).  Several functions may
# share one span name; they are then reported as one layer.
BOUNDARIES = [
    ("polyq", "rational_roots", "polyq.rational_roots", _rational_roots),
    ("polyq", "mul", "polyq.arith", None),
    ("polyq", "divmod_", "polyq.arith", None),
    ("polyq", "gcd", "polyq.arith", None),
    ("polyq", "shift", "polyq.arith", None),
    ("fieldext", "make_sqrt", "fieldext.make_sqrt", None),
    ("fieldext", "rows_independent", "fieldext.rows_independent", None),
    ("series", "TSeries.__mul__", "series.mul", _series_mul),
    ("series", "TSeries.inverse", "series.inverse", None),
    ("series", "TSeries.sqrt_with", "series.sqrt_with", None),
    ("curve", "HyperellipticCurve.x_series_at_branch",
     "curve.x_series_at_branch", _x_series),
    ("curve", "HyperellipticCurve.y_series_at", "curve.y_series_at",
     _curve_key("curve.y_series_at", lambda a, k: a[1])),
    ("curve", "HyperellipticCurve.y_series_at_infinity",
     "curve.y_series_at_infinity", None),
    ("curve", "HyperellipticCurve.laurent_at", "curve.laurent_at", None),
    ("curve", "HyperellipticCurve.valuation", "curve.valuation", None),
    ("curve", "HyperellipticCurve.divisor_of", "curve.divisor_of", None),
    ("linalg", "kernel_basis", "linalg.kernel_basis", _kernel_entries),
    ("linalg", "ColumnSpace.reduce", "linalg.ColumnSpace.reduce", None),
    ("linalg", "ColumnSpace.add", "linalg.ColumnSpace.add", _column_add),
    ("riemann_roch", "rr_space", "riemann_roch.rr_space",
     _curve_key("riemann_roch.rr_space", lambda a, k: a[1].key())),
    ("riemann_roch", "theta_from_subset", "riemann_roch.theta_from_subset",
     None),
    ("pluricanonical", "very_ample_check", "pluricanonical.very_ample_check",
     None),
    ("pluricanonical", "build_model", "pluricanonical.build_model", None),
    ("pluricanonical", "verify_embedding", "pluricanonical.verify_embedding",
     None),
    ("pluricanonical", "pushforward_over_superpoint",
     "pluricanonical.pushforward_over_superpoint", None),
    ("pluricanonical", "random_deformation",
     "pluricanonical.random_deformation", None),
    ("graded_algebra", "check_superconformal",
     "graded_algebra.check_superconformal", None),
    ("serialize", "model_to_json", "serialize.model_to_json", None),
    ("serialize", "model_from_json", "serialize.model_from_json", None),
    ("cli", "main", "cli.main", None),
]


def install(tracer: Tracer, also: Sequence = ()) -> None:
    """Wrap every boundary and rebind the names that plurisusy's modules,
    and the modules in `also`, imported from one another."""
    wrapped_by_id: Dict[int, Callable] = {}
    for modname, attr, name, hook in BOUNDARIES:
        mod = importlib.import_module("plurisusy." + modname)
        owner_name, _, leaf = attr.rpartition(".")
        owner = getattr(mod, owner_name) if owner_name else mod
        fn = owner.__dict__[leaf] if owner_name else getattr(mod, leaf)
        wrapped = tracer.wrap(name, fn, hook)
        setattr(owner, leaf, wrapped)
        wrapped_by_id[id(fn)] = wrapped  # fn stays alive as __wrapped__
    # Counted, not timed: a span per quadratic-extension product would
    # cost more than the product.  __rmul__ is the same function.
    QuadExt = importlib.import_module("plurisusy.fieldext").QuadExt
    QuadExt.__mul__ = QuadExt.__rmul__ = tracer.counting(
        "fieldext.quadext_mul", QuadExt.__dict__["__mul__"])
    mods = [m for name, m in list(sys.modules.items())
            if name == "plurisusy" or name.startswith("plurisusy.")]
    for mod in mods + list(also):
        for key, value in list(vars(mod).items()):
            if id(value) in wrapped_by_id:
                setattr(mod, key, wrapped_by_id[id(value)])


# -- aggregation -------------------------------------------------------------

# Per-layer metrics, in BENCHMARK.json order: (layer, quantities).
LAYER_METRICS = [
    ("polyq.rational_roots", ("calls", "self_s", "repeat_frac")),
    ("polyq.arith", ("calls", "self_s")),
    ("fieldext.make_sqrt", ("calls", "self_s")),
    ("fieldext.rows_independent", ("calls", "self_s")),
    ("fieldext.quadext_mul", ("calls",)),
    ("series.mul", ("calls", "self_s", "terms")),
    ("series.inverse", ("calls", "self_s")),
    ("series.sqrt_with", ("calls", "self_s")),
    ("curve.x_series_at_branch", ("calls", "self_s", "repeat_frac", "cut_sum")),
    ("curve.y_series_at", ("calls", "self_s", "repeat_frac")),
    ("curve.y_series_at_infinity", ("calls", "self_s")),
    ("curve.laurent_at", ("calls", "self_s")),
    ("curve.valuation", ("calls", "self_s")),
    ("curve.divisor_of", ("calls", "self_s")),
    ("linalg.kernel_basis", ("calls", "self_s", "entries")),
    ("linalg.ColumnSpace.reduce", ("calls", "self_s")),
    ("linalg.ColumnSpace.add", ("calls", "useful_frac")),
    ("riemann_roch.rr_space", ("calls", "self_s", "repeat_frac")),
    ("riemann_roch.theta_from_subset", ("calls", "self_s")),
    ("pluricanonical.very_ample_check", ("self_s",)),
    ("pluricanonical.build_model", ("self_s",)),
    ("pluricanonical.verify_embedding", ("self_s",)),
    ("pluricanonical.pushforward_over_superpoint", ("self_s",)),
    ("pluricanonical.random_deformation", ("self_s",)),
    ("graded_algebra.check_superconformal", ("calls", "self_s")),
    ("serialize.model_to_json", ("self_s",)),
    ("serialize.model_from_json", ("self_s",)),
    ("cli.main", ("self_s",)),
    ("cli.startup", ("self_s",)),
    ("cli.shutdown", ("self_s",)),
]

UNITS = {"calls": "count", "self_s": "s", "repeat_frac": "ratio",
         "cut_sum": "count", "terms": "count", "entries": "count",
         "useful_frac": "ratio"}


def layer_metrics(spans: List[list], counts: Dict[str, int]) -> Dict[str, tuple]:
    """Per-layer metrics over the spans of timed operations (op >= 0)."""
    child = [0.0] * len(spans)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            child[parent] += end - start
    calls: Dict[str, int] = defaultdict(int)
    self_s: Dict[str, float] = defaultdict(float)
    for i, (name, start, end, parent, op) in enumerate(spans):
        if op < 0:
            continue
        calls[name] += 1
        self_s[name] += (end - start) - child[i]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: Dict[str, tuple] = {}
    for layer, quantities in LAYER_METRICS:
        for q in quantities:
            if q == "calls":
                v = calls[layer] + counts.get(layer + ".calls", 0)
            elif q == "self_s":
                v = self_s[layer]
            elif q == "repeat_frac":
                v = ratio(counts.get(layer + ".repeats", 0), calls[layer])
            elif q == "useful_frac":
                v = ratio(counts.get(layer + ".useful", 0), calls[layer])
            else:
                v = counts.get(f"{layer}.{q}", 0)
            out[f"{layer}.{q}"] = (v, UNITS[q])
    return out


def covered_time(spans: List[list]) -> float:
    """Wall time inside operations that some span accounts for: the sum
    of the top-level spans, which nest everything else."""
    return sum(end - start for _n, start, end, parent, op in spans
               if parent < 0 and op >= 0)
