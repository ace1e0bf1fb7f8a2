"""What the traced run wraps, and the per-layer metrics derived from it.

Each target is wrapped at the name its callers look up: ``fock.tensor``
is called as a module attribute, ``concat`` through the ``fock``
module's globals, ``apply_x`` through both ``fock`` and ``trace``.
The four ``lru_cache`` functions are read through ``cache_info()``
before and after every solve, in traced and untraced runs alike.

Which end-to-end metric each group should move, on which workload:

* words/fock/process counts and self times: ``solve_s`` on
  riemann_integral, and they must not raise it on exact_algebra;
* tm_alpha cache, gl_integrate and hermite.fn_matrix: ``solve_s`` on
  kernel_mc, little change on riemann_integral;
* r cache, QUADPACK calls and spectral.kernel: kernel_mc only;
* matmodel phases, matmuls and computed GFLOP, parallel workers and
  CPU per wall second: ``solve_s`` and ``peak_rss_mb`` on kernel_mc (the
  kernel grid's own resident set may hide a change of the second);
* trace engines, reduction cache and linearize: ``solve_s`` on
  exact_algebra;
* setup.import_s and setup.scipy_modules: ``setup_s`` (a lazy scipy
  import should lower it on exact_algebra only).
"""

from __future__ import annotations

import inspect
import threading
import time
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from tracer import Target

__all__ = ["TARGETS", "CACHES", "Metric", "PER_SOLVE", "PER_RUN"]


@lru_cache(maxsize=None)
def _signature(fn) -> inspect.Signature:
    return inspect.signature(fn)


def _tensor_kept(tracer, fn, args, kwargs, result):
    """Pairs of terms whose concatenation fits the degree cap, and all pairs."""
    bound = _signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    f, g, cap = bound.arguments["f"], bound.arguments["g"], bound.arguments["cap"]
    df = Counter(w.degree for w, _ in f.terms)
    dg = Counter(w.degree for w, _ in g.terms)
    pairs = sum(df.values()) * sum(dg.values())
    kept = pairs if cap is None else sum(
        nf * ng for a, nf in df.items() for b, ng in dg.items() if a + b <= cap)
    tracer.add("fock.tensor.pairs", pairs)
    tracer.add("fock.tensor.kept", kept)


def _gl_count(tracer, fn, args, kwargs):
    """Count nodes handed to the integrand and the tail rounds taken."""
    if not args:
        tracer.broken.add("quadrature.gl_integrate.after")
        return fn(*args, **kwargs)
    f, *rest = args
    calls = 0

    def counted(nodes):
        nonlocal calls
        calls += 1
        tracer.add("quadrature.gl_integrate.nodes", len(nodes))
        return f(nodes)

    result = fn(counted, *rest, **kwargs)
    tracer.add("quadrature.gl_integrate.tail_rounds", calls - 1)
    return result


def _cpu_time(tracer, fn, args, kwargs):
    """Process CPU seconds (every thread) spent inside the call."""
    cpu0 = time.process_time()
    try:
        return fn(*args, **kwargs)
    finally:
        tracer.add("parallel.cpu_s", time.process_time() - cpu0)


def _fan_out(tracer, fn, args, kwargs):
    """ordered_map with each slice as a span parented across threads.

    A slice's self time, once sampling and products are subtracted, is
    the trace contractions plus loop overhead.
    """
    if not args:
        tracer.broken.add("parallel.map.after")
        return fn(*args, **kwargs)
    work, *rest = args
    parent = tracer.current()

    def slice_span(item):
        tracer.distinct("parallel.workers", threading.get_ident())
        with tracer.span("matmodel.contract", parent=parent):
            return work(item)

    return fn(slice_span, *rest, **kwargs)


def _matmuls(tracer, fn, args, kwargs, result):
    """Products built: every memo entry beyond the single letters.

    A complex d x d product costs 8 d^3 real flops; the count is computed
    from sizes, not measured.
    """
    mats = args[0]
    count = len(result) - len(mats)
    dim = mats[0].shape[0]
    tracer.add("matmodel.matmuls", count)
    tracer.add("matmodel.flop", 8.0 * count * dim ** 3)


TARGETS = (
    Target("freenoise.words:Word.sort_key", "words.sort_key", mode="count"),
    Target("freenoise.fock:concat", "words.concat", mode="count"),
    Target("freenoise.fock:tensor", "fock.tensor", after=_tensor_kept),
    Target("freenoise.fock:FockElement.__add__", "fock.add"),
    Target("freenoise.fock:apply_x", "fock.apply_x"),
    Target("freenoise.trace:apply_x", "fock.apply_x"),
    Target("freenoise.fock:norm", "fock.norm"),
    Target("freenoise.fock:inner", "fock.inner"),
    Target("freenoise.process:IntegrandPath.dyadic", "process.path"),
    Target("freenoise.process:riemann_sum", "process.riemann_sum"),
    Target("freenoise.spectral:_tm_and_alpha", "spectral.tm_alpha",
           mode="count", keys=True),
    Target("freenoise.spectral:gl_integrate", "quadrature.gl_integrate",
           around=_gl_count),
    Target("freenoise.spectral:hermite_fn_matrix", "hermite.fn_matrix"),
    Target("freenoise.spectral:_r_cached", "spectral.r", mode="count", keys=True),
    Target("freenoise.spectral:quad_scalar", "quadrature.quad"),
    Target("freenoise.spectral:quad_cos_range", "quadrature.quad"),
    Target("freenoise.spectral:kernel", "spectral.kernel"),
    Target("freenoise.matmodel:estimate_trace_many", "matmodel.estimate",
           around=_cpu_time),
    Target("freenoise.matmodel:ordered_map", "parallel.map", around=_fan_out),
    Target("freenoise.matmodel:sample_generators", "matmodel.sample"),
    Target("freenoise.matmodel:_half_products", "matmodel.products",
           after=_matmuls),
    Target("freenoise.trace:trace_monomial_reduction", "trace.reduction"),
    Target("freenoise.trace:trace_reduction", "trace.reduction", keys=True),
    Target("freenoise.trace:u_mult", "trace.u_mult", mode="count", keys=True),
    Target("freenoise.trace:trace_pairings", "trace.pairings"),
    Target("freenoise.trace:trace_fock", "trace.fock"),
    Target("freenoise.trace:linearize", "chebyshev.linearize"),
)

# metric prefix -> lru_cache function read through cache_info()
CACHES = (
    ("spectral.tm_alpha", "freenoise.spectral:_tm_and_alpha"),
    ("spectral.r", "freenoise.spectral:_r_cached"),
    ("trace.reduction", "freenoise.trace:trace_reduction"),
    ("trace.u_mult", "freenoise.trace:u_mult"),
)


@dataclass(frozen=True)
class Metric:
    """A per-layer metric computed from one traced solve's record.

    ``needs`` names the targets or caches it is derived from, and
    ``<target>.after`` for data a target's hook collects; when any of
    them is missing, or that hook failed, the metric is unmeasured.
    """

    name: str
    unit: str
    needs: tuple[str, ...]
    value: Callable[[dict], float]


def _ratio(num: float, den: float) -> float:
    """num / den, reading 0 when nothing was attempted."""
    return num / den if den else 0.0


# (calls, self seconds, total seconds) of a span name no solve opened
_NO_SPAN = (0, 0.0, 0.0)


def _calls(name):
    return lambda r: r["spans"].get(name, _NO_SPAN)[0]


def _self(name):
    return lambda r: r["spans"].get(name, _NO_SPAN)[1]


def _count(key):
    return lambda r: r["counts"].get(key, 0.0)


def _hit_ratio(cache):
    return lambda r: _ratio(r["caches"][cache][0], sum(r["caches"][cache]))


def _misses(cache):
    return lambda r: r["caches"][cache][1]


_GL_HOOK = ["quadrature.gl_integrate", "quadrature.gl_integrate.after"]
_FAN_HOOK = ["parallel.map", "parallel.map.after"]
_MATMUL_HOOK = ["matmodel.products", "matmodel.products.after"]


def _m(name, unit, needs, value):
    return Metric(name, unit, tuple(needs), value)


PER_SOLVE = (
    _m("words.sort_key.calls", "count", ["words.sort_key"], _count("words.sort_key.calls")),
    _m("words.concat.calls", "count", ["words.concat"], _count("words.concat.calls")),
    _m("fock.tensor.calls", "count", ["fock.tensor"], _calls("fock.tensor")),
    _m("fock.tensor.self_s", "s", ["fock.tensor"], _self("fock.tensor")),
    _m("fock.tensor.kept_ratio", "ratio", ["fock.tensor", "fock.tensor.after"],
       lambda r: _ratio(r["counts"].get("fock.tensor.kept", 0.0),
                        r["counts"].get("fock.tensor.pairs", 0.0))),
    _m("fock.add.calls", "count", ["fock.add"], _calls("fock.add")),
    _m("fock.add.self_s", "s", ["fock.add"], _self("fock.add")),
    _m("fock.apply_x.calls", "count", ["fock.apply_x"], _calls("fock.apply_x")),
    _m("fock.apply_x.self_s", "s", ["fock.apply_x"], _self("fock.apply_x")),
    _m("fock.norm.self_s", "s", ["fock.norm"], _self("fock.norm")),
    _m("fock.inner.self_s", "s", ["fock.inner"], _self("fock.inner")),
    _m("process.path.self_s", "s", ["process.path"], _self("process.path")),
    _m("process.riemann_sum.self_s", "s", ["process.riemann_sum"],
       _self("process.riemann_sum")),
    _m("spectral.tm_alpha.misses", "count", ["spectral.tm_alpha"],
       _misses("spectral.tm_alpha")),
    _m("spectral.tm_alpha.hit_ratio", "ratio", ["spectral.tm_alpha"],
       _hit_ratio("spectral.tm_alpha")),
    _m("quadrature.gl_integrate.calls", "count", ["quadrature.gl_integrate"],
       _calls("quadrature.gl_integrate")),
    _m("quadrature.gl_integrate.self_s", "s", ["quadrature.gl_integrate"],
       _self("quadrature.gl_integrate")),
    _m("quadrature.gl_integrate.nodes", "count", _GL_HOOK,
       _count("quadrature.gl_integrate.nodes")),
    _m("quadrature.gl_integrate.tail_rounds", "count", _GL_HOOK,
       _count("quadrature.gl_integrate.tail_rounds")),
    _m("hermite.fn_matrix.self_s", "s", ["hermite.fn_matrix"], _self("hermite.fn_matrix")),
    _m("spectral.r.misses", "count", ["spectral.r"], _misses("spectral.r")),
    _m("spectral.r.hit_ratio", "ratio", ["spectral.r"], _hit_ratio("spectral.r")),
    _m("quadrature.quad.calls", "count", ["quadrature.quad"], _calls("quadrature.quad")),
    _m("quadrature.quad.self_s", "s", ["quadrature.quad"], _self("quadrature.quad")),
    _m("spectral.kernel.self_s", "s", ["spectral.kernel"], _self("spectral.kernel")),
    _m("matmodel.sample.self_s", "s", ["matmodel.sample"], _self("matmodel.sample")),
    _m("matmodel.products.self_s", "s", ["matmodel.products"], _self("matmodel.products")),
    _m("matmodel.contract.self_s", "s", _FAN_HOOK, _self("matmodel.contract")),
    _m("matmodel.matmuls", "count", _MATMUL_HOOK, _count("matmodel.matmuls")),
    _m("matmodel.gflop_computed", "GFLOP", _MATMUL_HOOK,
       lambda r: r["counts"].get("matmodel.flop", 0.0) / 1e9),
    _m("matmodel.products.gflops", "GFLOP/s_computed", _MATMUL_HOOK,
       lambda r: _ratio(r["counts"].get("matmodel.flop", 0.0) / 1e9,
                        r["spans"].get("matmodel.products", _NO_SPAN)[1])),
    _m("parallel.workers", "count", _FAN_HOOK, _count("parallel.workers")),
    _m("parallel.cpu_per_wall", "ratio", ["matmodel.estimate"],
       lambda r: _ratio(r["counts"].get("parallel.cpu_s", 0.0),
                        r["spans"].get("matmodel.estimate", _NO_SPAN)[2])),
    _m("trace.reduction.self_s", "s", ["trace.reduction"], _self("trace.reduction")),
    _m("trace.pairings.self_s", "s", ["trace.pairings"], _self("trace.pairings")),
    _m("trace.fock.self_s", "s", ["trace.fock"], _self("trace.fock")),
    _m("trace.reduction.hit_ratio", "ratio", ["trace.reduction"],
       _hit_ratio("trace.reduction")),
    _m("trace.u_mult.hit_ratio", "ratio", ["trace.u_mult"], _hit_ratio("trace.u_mult")),
    _m("chebyshev.linearize.calls", "count", ["chebyshev.linearize"],
       _calls("chebyshev.linearize")),
    _m("chebyshev.linearize.self_s", "s", ["chebyshev.linearize"],
       _self("chebyshev.linearize")),
)


# Per-layer metrics of a whole traced run, with their units: keys one
# solve passed to a cached function that an earlier solve also passed,
# traced over untraced median solve time, and the fresh-interpreter
# import time and scipy module count behind setup_s.
PER_RUN = {
    "cache.cross_solve_reuse": "count",
    "tracing.overhead": "ratio",
    "setup.import_s": "s",
    "setup.scipy_modules": "count",
}
