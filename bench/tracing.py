"""Per-layer instrumentation for the traced run, and the field micro rows.

Spans wrap the public entry points of each module at their module or
class attributes for the length of a ``with installed(tracer)`` block;
no library file changes.  A span's self time is its duration minus the
time of the spans it encloses.  Field operations are counted only, per
backend, without spans.
"""

from __future__ import annotations

import importlib
import statistics
from collections import Counter
from contextlib import contextmanager
from time import perf_counter, perf_counter_ns

cli = importlib.import_module("skewlaurent.cli")
dmod = importlib.import_module("skewlaurent.decompose")
rtmod = importlib.import_module("skewlaurent.reduced_trace")
ft = importlib.import_module("skewlaurent.field_tower")
skew = importlib.import_module("skewlaurent.skew_series")

BACKENDS = ("table", "poly", "moore", "qt")
FIELD_OPS = ("add", "mul", "inv", "sigma")
ROUTES = (
    "InfiniteWitness",
    "DegreeAtLeast5",
    "Order4Split",
    "Order4L",
    "Order4Conjugated",
)
# Fields up to this size run on Zech tables (the library's own threshold).
TABLE_LIMIT = 1 << 16

# (module, attribute, span name)
MODULE_SPANS = (
    (cli, "parse_series", "cli.parse_series"),
    (cli, "evaluate", "cli.evaluate"),
    (cli, "certificate_to_json", "cli.certificate_to_json"),
    (cli, "certificate_from_json", "cli.certificate_from_json"),
    (dmod, "decompose", "decompose.decompose"),
    (dmod, "factor_avoiding_multiples", "decompose.factor_avoiding_multiples"),
    (dmod, "factor_with_l_coeffs", "decompose.factor_with_l_coeffs"),
    (dmod, "factor_into_l_pair", "decompose.factor_into_l_pair"),
    (dmod, "bracket_preimage", "decompose.bracket_preimage"),
    (dmod, "x_bracket_preimage", "decompose.x_bracket_preimage"),
    (rtmod, "reduced_trace", "reduced_trace.reduced_trace"),
    (rtmod, "matrix_rep", "reduced_trace.matrix_rep"),
)
VERIFY_SPANS = (
    "decompose.verify_certificate.self_check",
    "decompose.verify_certificate.request",
)
# (class, attribute, span name)
CLASS_SPANS = (
    (skew.SkewSeries, "__mul__", "skew_series.mul"),
    (skew.SkewSeries, "inverse", "skew_series.inverse"),
    (skew.SkewSeries, "__add__", "skew_series.add"),
    (ft.FiniteFieldCtx, "k0_vec", "field_tower.k0_vec"),
)
# (class, attribute, op): '-' counts as add; '/' and powers go through
# the counted ops, except FFElem.__pow__, which is not counted.
COUNTED_OPS = (
    (ft.FFElem, "__add__", "add"),
    (ft.FFElem, "__radd__", "add"),
    (ft.FFElem, "__sub__", "add"),
    (ft.FFElem, "__mul__", "mul"),
    (ft.FFElem, "__rmul__", "mul"),
    (ft.FFElem, "inverse", "inv"),
    (ft.FiniteFieldCtx, "sigma", "sigma"),
    (ft.RatFunc, "__add__", "add"),
    (ft.RatFunc, "__radd__", "add"),
    (ft.RatFunc, "__mul__", "mul"),
    (ft.RatFunc, "__rmul__", "mul"),
    (ft.RatFunc, "inverse", "inv"),
    (ft.RationalFunctionCtx, "sigma", "sigma"),
)

SPAN_NAMES = (
    [name for _, _, name in MODULE_SPANS]
    + list(VERIFY_SPANS)
    + [name for _, _, name in CLASS_SPANS]
)


# Metrics the tracer counts, keyed by their own names.
COUNTED = (
    [f"decompose.route.{route}.count" for route in ROUTES]
    + ["skew_series.mul.coeff_pairs"]
    + [f"field_tower.{b}.{op}.calls" for b in BACKENDS for op in FIELD_OPS]
)
MICRO = [f"field_tower.{b}.{op}_ns" for b in BACKENDS for op in FIELD_OPS]

METRIC_UNITS = {}
for _name in SPAN_NAMES:
    METRIC_UNITS[f"{_name}.calls"] = "count"
    METRIC_UNITS[f"{_name}.self_ms"] = "ms"
for _key in COUNTED:
    METRIC_UNITS[_key] = "count"
METRIC_UNITS["skew_series.mul.coeff_pairs"] = "pairs_computed"
for _key in MICRO:
    METRIC_UNITS[_key] = "ns"
METRIC_UNITS["trace_overhead_ratio"] = "ratio"


def backend_of(ctx):
    q = getattr(ctx, "q", None)
    if q is None:
        return "qt"
    if q <= TABLE_LIMIT:
        return "table"
    return "moore" if ctx.subfield_degree > 1 else "poly"


class Tracer:
    """Span self times and call counts, aggregated by name in memory."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = Counter()
        self.counts = Counter()
        self._stack = []  # [name, seconds spent in child spans]

    def active(self, name):
        return any(frame[0] == name for frame in self._stack)

    def call(self, name, fn, args, kwargs):
        frame = [name, 0.0]
        stack = self._stack
        stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = perf_counter() - t0
            stack.pop()
            self.calls[name] += 1
            self.self_s[name] += dur - frame[1]
            if stack:
                stack[-1][1] += dur

    def metrics(self):
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_ms"] = self.self_s[name] * 1e3
        out.update((key, self.counts[key]) for key in COUNTED)
        return out


def _span(tracer, name, fn):
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)

    return traced


def _decompose_span(tracer, fn):
    def traced(*args, **kwargs):
        cert = tracer.call("decompose.decompose", fn, args, kwargs)
        tracer.counts[f"decompose.route.{cert.method}.count"] += 1
        return cert

    return traced


def _verify_span(tracer, fn):
    self_check, request = VERIFY_SPANS

    def traced(*args, **kwargs):
        name = self_check if tracer.active("decompose.decompose") else request
        return tracer.call(name, fn, args, kwargs)

    return traced


def _mul_span(tracer, fn):
    """skew_series.mul, plus the coefficient pairs its windows allow.

    The pair count is computed from the window sizes, not observed: the
    loop visits idx, jdx with i + j below the product's precision.
    """

    def traced(f, g):
        if f.coeffs and isinstance(g, skew.SkewSeries) and g.coeffs:
            room = min(f.prec + g.val, g.prec + f.val) - f.val - g.val
            ng = len(g.coeffs)
            tracer.counts["skew_series.mul.coeff_pairs"] += sum(
                min(ng, room - idx) for idx in range(min(len(f.coeffs), room))
            )
        return tracer.call("skew_series.mul", fn, (f, g), {})

    return traced


def _counted(counts, op, fn, owner_ctx):
    keys = {b: f"field_tower.{b}.{op}.calls" for b in BACKENDS}

    def counted(self, *args):
        counts[keys[backend_of(self if owner_ctx else self.ctx)]] += 1
        return fn(self, *args)

    return counted


@contextmanager
def installed(tracer):
    """Wrap every traced entry point for the duration of the block."""
    saved = []

    def put(owner, attr, wrapper):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    try:
        for module, attr, name in MODULE_SPANS:
            fn = getattr(module, attr)
            if name == "decompose.decompose":
                put(module, attr, _decompose_span(tracer, fn))
            else:
                put(module, attr, _span(tracer, name, fn))
        put(dmod, "verify_certificate", _verify_span(tracer, dmod.verify_certificate))
        for cls, attr, name in CLASS_SPANS:
            fn = cls.__dict__[attr]
            if name == "skew_series.mul":
                put(cls, attr, _mul_span(tracer, fn))
            else:
                put(cls, attr, _span(tracer, name, fn))
        for cls, attr, op in COUNTED_OPS:
            owner_ctx = attr == "sigma"
            put(cls, attr, _counted(tracer.counts, op, cls.__dict__[attr], owner_ctx))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# field micro rows


def _time_ns_per_op(fn, items, reps=5, budget_s=0.01):
    """Median over reps of ns per call, each rep about budget_s long."""
    t0 = perf_counter()
    for item in items:
        fn(item)
    once = max(perf_counter() - t0, 1e-9)
    loops = max(1, int(budget_s / once))
    per_op = []
    for _ in range(reps):
        t0 = perf_counter_ns()
        for _ in range(loops):
            for item in items:
                fn(item)
        per_op.append((perf_counter_ns() - t0) / (loops * len(items)))
    return statistics.median(per_op)


def micro_rows(families, element_texts):
    """ns per add/mul/inv/sigma for each backend on a fixed element list."""
    out = {}
    for backend, fam in families.items():
        ctx = cli.build_ctx(fam.field, fam.sigma)
        elems = [cli.parse_element(ctx, text) for text in element_texts(fam)]
        pairs = list(zip(elems, elems[1:] + elems[:1]))
        ops = {
            "add": (lambda ab: ab[0] + ab[1], pairs),
            "mul": (lambda ab: ab[0] * ab[1], pairs),
            "inv": (lambda a: a.inverse(), elems),
            "sigma": (lambda a: ctx.sigma(a, 1), elems),
        }
        for op, (fn, items) in ops.items():
            out[f"field_tower.{backend}.{op}_ns"] = _time_ns_per_op(fn, items)
    return out
