"""Half-line quadrature for spectral integrands.

Two engines share the work:

* a composite Gauss-Legendre rule on graded panels, built for smooth
  oscillatory integrands with a possible power singularity at the
  origin, for integrands that factor into rows times scalar factors:
  every row-factor product is integrated by matrix products of the
  weighted factors against blocks of the rows, so the products
  themselves are never formed; and
* thin wrappers around scipy's adaptive QUADPACK routines for scalar
  integrals, used where an independent error estimate matters.  They
  import scipy on first use, so importing the package does not load it,
  and they judge each value and error estimate themselves, so QUADPACK's
  own warnings are silenced.

The panel layout grades geometrically toward zero (integrable
singularities u^{-b}, b < 1), caps panel width by the oscillation
scale of the integrand and runs from a start to a stop the caller
picks: past the support of its rows, and at the jumps of its factors.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_left, bisect_right
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import QuadratureError

__all__ = [
    "panel_nodes",
    "layout_nodes",
    "gl_integrate",
    "quad_scalar",
    "quad_cos_range",
    "quad_semicircle_moment",
]

_GL_ORDER = 16
_GL_X, _GL_W = leggauss(_GL_ORDER)

# Edges of the graded region: 0, 2^-60, ..., 1/2, 1
_GRADED_EDGES = [0.0] + [2.0 ** -j for j in range(60, -1, -1)]


@lru_cache(maxsize=8)
def panel_nodes(osc_scale: float, stop: float,
                start: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the composite rule on [start, stop].

    osc_scale bounds the panel width away from zero: panels are at most
    ~6 / osc_scale wide so a GL-16 rule resolves the oscillation.  The
    dyadic panels [2^-k, 2^-k+1] below 1 absorb origin singularities;
    only the graded edges strictly between start and stop are kept, so
    no panel straddles either end.  The 8 most recently used layouts
    are kept, as read-only arrays.  A width that no longer advances an
    edge raises QuadratureError.
    """
    if osc_scale <= 0:
        raise QuadratureError("oscillation scale must be positive")
    width = 6.0 / osc_scale
    edges = _graded_edges(start, stop)
    # oscillation-limited region out to stop
    x = edges[-1]
    while x < stop:
        if x + width == x:
            raise QuadratureError(
                f"panel width {width:.3g} does not advance the edge at {x:g}")
        x = min(x + width, stop)
        edges.append(x)
    nodes, weights = _composite_rule(np.asarray(edges))
    keep = weights > 0
    nodes, weights = nodes[keep], weights[keep]
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _graded_edges(start: float, stop: float) -> list[float]:
    """start, then the graded edges strictly between start and stop."""
    return [start] + _GRADED_EDGES[bisect_right(_GRADED_EDGES, start):
                                   bisect_left(_GRADED_EDGES, stop)]


def layout_nodes(osc_scale: float, stop: float, start: float = 0.0) -> float:
    """Node count of panel_nodes(osc_scale, stop, start), to within a
    panel, before any node is built; a float, so a layout too large to
    build still has one."""
    edges = _graded_edges(start, stop)
    panels = len(edges) - 1 + max(stop - edges[-1], 0.0) * osc_scale / 6.0 + 1.0
    return _GL_ORDER * panels


def _composite_rule(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """GL-16 nodes and weights on the panels between consecutive edges."""
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * _GL_X[None, :]).ravel()
    weights = (half[:, None] * _GL_W[None, :]).ravel()
    return nodes, weights


def gl_integrate(f, osc_scale: float, stop: float, start: float = 0.0):
    """Integrals over [start, stop] of every product factors[k] * rows[n].

    f maps the nodes of panel_nodes(osc_scale, stop, start) to a pair
    (blocks, factors): factors has nodes on the last axis and is
    overwritten by factors * weights, and blocks yields the rows in
    consecutive blocks, each with nodes on the last axis and contracted
    before the next is asked for.  The result, indexed (k, n), is
    (factors * weights) @ rows.T, one block of columns per block.  The
    caller picks stop past the support of its rows, and start and stop
    at the jumps of its integrand.  QuadratureError is raised when the
    contraction is not finite.
    """
    nodes, weights = panel_nodes(osc_scale, stop, start)
    blocks, factors = f(nodes)
    with np.errstate(over="ignore", invalid="ignore"):
        factors *= weights
        out = np.concatenate([factors @ rows.T for rows in blocks], axis=1)
    if not np.isfinite(out).all():
        raise QuadratureError(
            f"integrand overflows on ({nodes[0]:.4g}, {nodes[-1]:.4g}): "
            "the contraction is not finite")
    return out


def _quad(what: str, f, a: float, b: float, **options) -> tuple[float, float]:
    """scipy's quad, silenced; a value or error estimate that is not
    finite raises QuadratureError."""
    from scipy.integrate import IntegrationWarning, quad

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, err = quad(f, a, b, **options)
    if not (math.isfinite(val) and math.isfinite(err)):
        raise QuadratureError(f"{what} value {val} or error {err} is not finite")
    return val, err


def _gated(what: str, f, a: float, b: float, abs_tol: float, **options) -> float:
    """_quad with abs_tol as both tolerances; an error estimate above
    50 max(abs_tol, abs_tol |value|) raises QuadratureError."""
    val, err = _quad(what, f, a, b, epsabs=abs_tol, epsrel=abs_tol, limit=400, **options)
    if err > max(abs_tol, abs_tol * abs(val)) * 50:
        raise QuadratureError(
            f"{what} error {err:.2e} too large for integral {val:.6e} on [{a}, {b}]")
    return val


def quad_scalar(f, a: float, b: float, abs_tol: float = 1e-11) -> float:
    """Integral of f over (a, b) by QUADPACK, abs_tol also the relative tolerance."""
    return _gated("quad", f, a, b, abs_tol)


def quad_cos_range(f, omega: float, a: float, b: float,
                   abs_tol: float = 1e-11) -> float:
    """Integral of f(u) cos(omega u) over (a, b), b possibly infinite.

    Dispatches to the QUADPACK oscillatory rules, which take the cosine
    as an analytic weight instead of sampling through the oscillation.
    omega must be nonzero.  The gate is quad_scalar's.
    """
    return _gated("oscillatory quad", f, a, b, abs_tol, weight="cos", wvar=omega)


def quad_semicircle_moment(order: int, radius: float = 2.0) -> float:
    """Moment of the semicircle law by an endpoint-weighted rule.

    The density (2/(pi r^2)) sqrt(r^2 - x^2) carries square-root
    endpoint factors; handing them to the algebraic weight leaves a
    plain monomial the rule integrates to machine accuracy.
    """
    if order < 0:
        raise QuadratureError("moment order must be non-negative")
    try:
        pref = 2.0 / (math.pi * radius * radius)
        if not math.isfinite(pref):
            raise OverflowError(f"the prefactor is {pref}")
        val, err = _quad("moment quad", lambda x: pref * x ** order, -radius, radius,
                         weight="alg", wvar=(0.5, 0.5), epsabs=1e-13, epsrel=1e-11)
    except (OverflowError, ZeroDivisionError) as exc:
        raise QuadratureError(
            f"moment {order} at radius {radius:g} leaves the float range") from exc
    if err > 1e-8 * max(1.0, abs(val)):
        raise QuadratureError(f"moment quad error {err:.2e} too large")
    return val
