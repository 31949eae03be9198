"""Layer tracing from outside the engine.

`install` wraps the public entry points of costar's modules (cli,
reduction, radialphase, flatphase, cpn) that the per-layer metrics read,
in every module namespace that holds them, so calls through names
imported with `from ... import` are seen too.  Each wrapped call is a
span; a layer's self time is its span time minus the time of its child
spans.
The transfer-operator orders are counted without spans.  The scalar
layer and the derivative caches are too fine-grained for wrappers (a flat
pass makes about 700k `partial` calls) and are measured with cProfile
instead (`profile_summary`).

Wrappers must be installed before any PhaseSetup is built, because a
setup keeps the kernel and the maps it was built with.
"""

from __future__ import annotations

import cProfile
import functools
import sys
from collections import Counter
from fractions import Fraction
from time import perf_counter

class Tracer:
    """Spans and counters of one operation; reset before each one."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.stack = []
        self.calls = Counter()
        self.total_s = Counter()
        self.self_s = Counter()
        self.group_s = Counter()
        self.group_depth = Counter()
        self.counts = Counter()
        self.by_r = Counter()
        self.by_m = Counter()
        self.m = None

    def export(self):
        return {
            "calls": dict(self.calls),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "group_s": dict(self.group_s),
            "counts": dict(self.counts),
            "by_r": {"%s|r=%d" % k: v for k, v in self.by_r.items()},
            "by_m": {"%s|m=%s" % k: v for k, v in self.by_m.items()},
        }


def span(tracer, name, fn, group=None, order_arg=None, after=None):
    """Wrap fn so every call records a span under name."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t = tracer
        parent = t.stack[-1] if t.stack else None
        frame = [0.0]  # time spent in child spans
        t.stack.append(frame)
        if group is not None:
            t.group_depth[group] += 1
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            t.stack.pop()
            dur = end - start
            t.calls[name] += 1
            t.total_s[name] += dur
            t.self_s[name] += dur - frame[0]
            if parent is not None:
                parent[0] += dur
            if group is not None:
                t.group_depth[group] -= 1
                if not t.group_depth[group]:
                    t.group_s[group] += dur
            if order_arg is not None:
                r = args[order_arg] if len(args) > order_arg else kwargs.get("r")
                t.by_r[(name, r)] += 1
            t.by_m[(name, t.m)] += 1
        if after is not None:
            after(t, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _replace_everywhere(modules, fn, wrapper):
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is fn:
                setattr(mod, attr, wrapper)


def _count_out_terms(tracer, series):
    tracer.counts["radialphase.out_terms"] += sum(len(c.terms) for c in series.coeffs)


def _wrap_transfer_ops(tracer, fn):
    # count the operators T_m applied at the top level, and let kernel and
    # pij calls inside one know their series order m
    def order_scope(op, m):
        @functools.wraps(op)
        def t_m(f):
            saved = tracer.m
            tracer.m = m
            tracer.counts["reduction.transfer_op"] += 1
            tracer.by_m[("reduction.transfer_op", m)] += 1
            try:
                return op(f)
            finally:
                tracer.m = saved

        return t_m

    @functools.wraps(fn)
    def wrapper(setup, order):
        series = fn(setup, order)
        ops = (series.ops[0],) + tuple(
            order_scope(op, m) for m, op in enumerate(series.ops) if m)
        return type(series)(ops)

    wrapper.__wrapped__ = fn
    return wrapper


def _wrap_pr_letters(tracer, fn):
    @functools.wraps(fn)
    def wrapper(setup):
        letters = fn(setup)
        return tuple(span(tracer, "cpn.pr_letter", letter) for letter in letters)

    wrapper.__wrapped__ = fn
    return wrapper


def install(tracer):
    """Wrap the engine's entry points; returns the wrapped originals."""
    from costar import cli, cpn, flatphase, radialphase, reduction

    modules = [m for name, m in sorted(sys.modules.items())
               if name == "costar" or name.startswith("costar.")]
    plain = [
        (cli, "parse_expression", "cli.parse", {"group": "cli.parse"}),
        (cli, "series_lines", "cli.print", {"group": "cli.print"}),
        (cli, "radial_text", "cli.print", {"group": "cli.print"}),
        (reduction, "reduce_star", "reduction.reduce_star",
         {"after": _count_out_terms}),
        (reduction, "star_series", "reduction.star_series", {}),
        (reduction, "in_istar", "reduction.in_istar", {}),
        (radialphase, "pij", "radialphase.pij", {}),
        (radialphase, "prol", "radialphase.prol", {}),
        (radialphase, "wick_kernel", "radialphase.wick_kernel", {"order_arg": 2}),
        (flatphase, "moyal_kernel", "flatphase.moyal_kernel", {"order_arg": 2}),
        (flatphase, "pij", "flatphase.pij", {}),
        (cpn, "b_coeff_engine", "cpn.b_coeff_engine", {}),
    ]
    originals = {}
    for mod, attr, name, opts in plain:
        fn = getattr(mod, attr)
        originals.setdefault(name, fn)
        _replace_everywhere(modules, fn, span(tracer, name, fn, **opts))

    fn = reduction.transfer_ops
    _replace_everywhere(modules, fn, _wrap_transfer_ops(tracer, fn))
    fn = cpn.pr_letters
    _replace_everywhere(modules, fn, _wrap_pr_letters(tracer, fn))

    series_cls = reduction.OperatorSeries
    series_cls.apply = span(tracer, "reduction.transfer_apply", series_cls.apply)
    fun = radialphase.RadialFun
    fun.expansion = span(tracer, "radialphase.expansion", fun.expansion)
    return originals


# ---------------------------------------------------------------------------
# scalar layer through cProfile


def _key(fn):
    code = fn.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def _calls_from(stats, callee, caller):
    # stats values are (cc, nc, tt, ct, callers); callers values (nc, cc, tt, ct)
    entry = stats.get(_key(callee))
    return entry[4].get(_key(caller), (0,))[0] if entry else 0


def profile_summary(prof, originals):
    """Scalar-layer counts and shares and derivative-cache lookups from one
    profiled operation, plus the cProfile call counts of the functions the
    wrappers also count.

    A derivative-cache miss builds exactly one new object in the lookup
    method, so misses are the constructor calls made from it."""
    from costar import flatphase, radialphase, scalar

    prof.create_stats()
    stats = prof.stats
    here = __file__
    total = sum(v[2] for k, v in stats.items() if k[0] != here)
    keys = {
        "gaussian_new": _key(scalar.GaussianRational.__init__),
        "fraction_new": _key(Fraction.__new__),
        "upoly_mul": _key(scalar.UPoly.__mul__),
        "upoly_gcd": _key(scalar.UPoly.gcd),
        "upoly_divmod": _key(scalar.UPoly.divmod),
        "radial_rational_new": _key(scalar.RadialRational.__init__),
    }
    out = {name: stats.get(k, (0, 0, 0.0, 0.0))[1] for name, k in keys.items()}
    canon = stats.get(keys["radial_rational_new"], (0, 0, 0.0, 0.0))[3]
    files = {scalar.__file__, sys.modules["fractions"].__file__}
    own = sum(v[2] for k, v in stats.items() if k[0] in files)
    out["canonical_s"] = canon
    fun, poly = radialphase.RadialFun, flatphase.FlatPoly
    out["radial_dcache_calls"] = stats.get(_key(fun._derivative), (0, 0))[1]
    out["radial_dcache_misses"] = _calls_from(stats, fun.__init__, fun._derivative)
    out["flat_partial_calls"] = stats.get(_key(poly.partial), (0, 0))[1]
    out["flat_partial_misses"] = _calls_from(stats, poly.__init__, poly.partial)
    out["scalar_self_s"] = own
    out["total_s"] = total
    out["profiled_calls"] = {
        name: stats.get(_key(originals[name]), (0, 0))[1]
        for name in ("radialphase.wick_kernel", "flatphase.moyal_kernel",
                     "radialphase.pij", "flatphase.pij")
    }
    return out


def profiled(fn):
    """Run fn under cProfile; returns (result, profile)."""
    prof = cProfile.Profile()
    prof.enable()
    try:
        result = fn()
    finally:
        prof.disable()
    return result, prof
