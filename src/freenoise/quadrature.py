"""Half-line quadrature for spectral integrands: one family of composite
GL-16 rules, laid on [0, 1] alike (_edges): a power at 0 is taken by a
substitution, panels grade toward 0 and toward a singularity before it,
and each is cut into pieces of at most a given length.  The multiplier
pass takes the whole panels (gl_rule) from a start to a stop the caller
picks, past the support of its rows and at the jumps of its factors, and
contracts rows against scalar factors on them (gl_integrate) by matrix
products of the weighted factors against blocks of the rows, so the
products are never formed.  Scalar integrals of vectorised integrands
(quad_scalar, and quad_cos_range on rotated contours) take each panel
and its halves (_rule), the difference as their error estimate, under
one gate; the semicircle moments come from the Gauss rule of their weight.
"""

from __future__ import annotations

import cmath
import math
import sys
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import QuadratureError

__all__ = [
    "MEMORY_BOUND",
    "bucket",
    "rule_nodes",
    "gl_rule",
    "gl_integrate",
    "quad_scalar",
    "quad_cos_range",
    "quad_semicircle_moment",
]

_GL_ORDER = 16
_GL_X, _GL_W = leggauss(_GL_ORDER)


def _composite_rule(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """GL-16 nodes and weights on the panels between consecutive edges."""
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * _GL_X[None, :]).ravel()
    weights = (half[:, None] * _GL_W[None, :]).ravel()
    return nodes, weights


def bucket(x: float) -> float:
    """2^ceil(log2 x), infinite above the float range; 1 for x = 0.  Nearby
    scales share the layout of their bucket."""
    frac, exp = math.frexp(x)
    return math.ldexp(1.0, exp - (frac == 0.5)) if x <= 2.0 ** 1023 else math.inf


def _edges(power: float, cycles: float, near: float):
    """The panels on [0, 1] of a rule for x^power h(x), h analytic but maybe
    at -near, in x = z^k, k = 1 / (1 + power) for power < 0, which leaves
    k h(z^k): their edges in x, the pieces each is cut into, and k.  Panels
    run 4:1 in x down to 2^-k, so that z^k is smooth on each; 2:1 in z down
    to 2^-60 if the exponent left in z (k, or power >= 0) is fractional;
    double from -near; and are cut into pieces at most 1 / cycles long."""
    k = 1.0 / (1.0 + power) if power < 0 else 1.0
    edges = [0.0] + [4.0 ** -j for j in range(min(int(k // 2), 537) + 1)]  # 0 past 4^-537
    if not float(k if power < 0 else power).is_integer():
        edges += [2.0 ** (-j * k) for j in range(1, min(60, int(1000.0 / k)) + 1)]
    edges += [near * (2.0 ** j - 1.0) for j in range(1, int(-math.log2(near or 1.0)) + 1)]
    edges = np.array(sorted(set(edges)))  # np.unique would load numpy.ma
    return edges, np.maximum(np.ceil(np.diff(edges) * cycles), 1.0), k


def _nodes(edges: np.ndarray, counts: np.ndarray, k: float, halves: bool,
           start: float = 0.0, length: float = 1.0):
    """GL-16 nodes and weights in u = start + length x, start = 0 unless
    k = 1, on every piece of the panels of _edges, by the rule in z; in rows
    of 48, a piece and its halves, if halves.  The pieces are mapped before
    the rule, so that each node is rounded once in u."""
    x = np.concatenate([np.linspace(lo, hi, int(n), endpoint=False) for lo, hi, n
                        in zip(edges[:-1], edges[1:], counts)] + [edges[-1:]])
    z = start + (length * x) ** (1.0 / k)
    nodes, weights = _composite_rule(z)
    if halves:
        rows = [a.reshape(z.size - 1, -1) for a in (nodes, weights) + _composite_rule(
            np.sort(np.concatenate([z, 0.5 * (z[1:] + z[:-1])])))]
        nodes, weights = np.hstack(rows[0::2]), np.hstack(rows[1::2])
    if k != 1.0:  # below z = 2^(-1000 / k) the integrand in z, k h(z^k), is k h(0)
        nodes = np.maximum(nodes, 2.0 ** (-1000.0 / k))
        weights *= k * nodes ** (k - 1.0)
        nodes **= k
    return nodes, weights


def _window(start: float, stop: float, osc: float, power: float):
    """_edges of gl_rule(start, stop, osc, power), on [0, 1]."""
    length = stop - start
    return _edges(power if start == 0.0 else 0.0, osc * length / 6.0, start / length)


def rule_nodes(start: float, stop: float, osc: float, power: float = 0.0) -> float:
    """Node count of gl_rule(start, stop, osc, power), before any node is
    built; a float, so that a rule too large to build still has one."""
    return _GL_ORDER * float(_window(start, stop, osc, power)[1].sum())


def gl_rule(start: float, stop: float, osc: float, power: float = 0.0):
    """GL-16 nodes and weights, new and writable, on the whole panels of
    _rule in u = start + (stop - start) x, 0 <= start < stop, for integrands
    analytic on [start, stop] but for a power u^power > -1 at u = 0: no
    piece wider than 6 / osc, with cycles = osc (stop - start) / 6."""
    return _nodes(*_window(start, stop, osc, power), False, start, stop - start)


def gl_integrate(f, nodes: np.ndarray, weights: np.ndarray):
    """Integrals by the rule (nodes, weights) of every product
    factors[k] * rows[n].

    f maps the nodes to a pair (blocks, factors): factors has nodes on the
    last axis and is overwritten by factors * weights, and blocks yields
    the rows in consecutive blocks, each with nodes on the last axis and
    contracted before the next is asked for.  The result, indexed (k, n),
    is (factors * weights) @ rows.T, one block of columns per block.
    QuadratureError is raised when the contraction is not finite.
    """
    blocks, factors = f(nodes)
    with np.errstate(over="ignore", invalid="ignore"):
        factors *= weights
        out = np.concatenate([factors @ rows.T for rows in blocks], axis=1)
    if not np.isfinite(out).all():
        raise QuadratureError(
            f"integrand overflows on ({nodes[0]:.4g}, {nodes[-1]:.4g}): "
            "the contraction is not finite")
    return out


# The bytes one rule may take, here a scalar rule as 12 arrays of its
# nodes and in spectral a multiplier pass with its rows
MEMORY_BOUND = 256 << 20


@lru_cache(maxsize=16)
def _rule(power: float, cycles: float, near: float):
    """Rows of 48 nodes and weights on [0, 1], GL-16 on each panel of
    _edges(power, cycles, near) and on its halves, read-only.  A rule above
    MEMORY_BOUND raises QuadratureError before it is built."""
    edges, counts, k = _edges(power, cycles, near)
    # a Python float, which overflows to inf without a numpy warning on stderr
    need = 3 * _GL_ORDER * float(counts.sum()) * 8 * 12
    if not need <= MEMORY_BOUND:
        raise QuadratureError(f"a quadrature rule needs {need / 2 ** 20:.3g} MiB, "
                              f"above the bound of {MEMORY_BOUND >> 20} MiB")
    nodes, weights = _nodes(edges, counts, k, halves=True)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _panels(f, a: float, length: float, power: float = 0.0, osc: float = 0.0,
            near: float = 0.0):
    """The integral of f over (a, a + length) by _rule in u = a + length x,
    no panel across 6 radians at frequency osc: by GL-16 on the halves of
    each panel, and the summed differences from the whole panels as its
    error estimate.  QuadratureError if f is not finite."""
    nodes, weights = _rule(float(power), bucket(max(1.0, osc * length / 6.0)),
                           near and 1.0 / bucket(1.0 / near))
    with np.errstate(all="ignore"):
        parts = f(a + length * nodes) * weights * length
    if not np.isfinite(parts).all():
        raise QuadratureError("the integrand is not finite at a node")
    halves = parts[:, _GL_ORDER:].sum(axis=1)
    return halves, float(np.abs(parts[:, :_GL_ORDER].sum(axis=1) - halves).sum())


def _accept(what: str, value: float, err: float, abs_tol: float, a: float, b: float):
    """value, unless err is above 50 max(abs_tol, abs_tol |value|)."""
    if err > max(abs_tol, abs_tol * abs(value)) * 50:
        raise QuadratureError(
            f"{what} error {err:.2e} too large for integral {value:.6e} on [{a}, {b}]")
    return value


def quad_scalar(f, a: float, b: float, abs_tol: float = 1e-11, *,
                power: float = 0.0, osc: float = 0.0) -> float:
    """Integral over (a, b), 0 <= a < b finite, of f, applied elementwise to
    an array of nodes, that is (u - a)^power h(u), power > -1, with h
    analytic on [a, b] but maybe at 0; by _panels, under _accept's gate."""
    halves, err = _panels(f, a, b - a, power, abs(osc), a / (b - a))
    return _accept("quad", float(halves.sum()), err, abs_tol, a, b)


def quad_cos_range(f, omega: float, a: float, b: float,
                   abs_tol: float = 1e-11) -> float:
    """Integral of f(u) cos(omega u) over (a, b), 0 < a < b <= inf, omega != 0,
    for f applied elementwise, real on the real axis and analytic for Re u > 0,
    Im u >= 0, where it grows at most like a power of |u|, and falls faster
    than 1 / |u| if b is infinite.  At each finite end c (b with a minus sign)
        int_c cos(omega u) f(u) du = Re[i e^{i omega c} int_0^inf e^{-omega y} f(c + iy) dy],
    a Laplace integral that does not oscillate (Huybrechs & Vandewalle,
    SIAM J. Numer. Anal. 44 (2006)), taken to e^{-omega y} < e^{-60} or to
    y = c 2^1000, the rest of f's tail then extrapolated into the estimate."""
    omega, value, err = abs(omega), 0.0, 0.0
    if omega == 0.0:
        raise QuadratureError("a cosine range needs a nonzero frequency")
    for c, sign in ((a, 1.0), (b, -1.0)):
        if c < math.inf:
            stop = min(120.0 / bucket(omega), c * 2.0 ** 1000, sys.float_info.max)
            halves, lap_err = _panels(lambda y: np.exp(-omega * y) * f(c + 1j * y), 0.0,
                                      stop, osc=omega, near=c / stop)
            last, before = abs(halves[-1]), abs(halves[-2])
            if stop < 120.0 / bucket(omega) and last:
                lap_err += last * last / (before - last) if before > last else math.inf
            value += sign * (1j * cmath.exp(1j * omega * c) * halves.sum()).real
            err += lap_err
    return _accept("oscillatory quad", value, err, abs_tol, a, b)


def quad_semicircle_moment(order: int, radius: float = 2.0) -> float:
    """Moment of the semicircle law by the n-point Gauss rule of its weight
    (2/pi) sqrt(1 - y^2), exact to degree 2n - 1, n = order // 2 + 1: nodes
    radius cos(k pi / (n + 1)), as sines odd in k to the bit, so that odd
    moments are 0, and weights (2 / (n + 1)) sin^2(k pi / (n + 1))."""
    if order < 0:
        raise QuadratureError("moment order must be non-negative")
    n = order // 2 + 1
    angles = [(n + 1 - 2 * k) * math.pi / (2 * (n + 1)) for k in range(1, n + 1)]
    try:
        return math.fsum(2.0 / (n + 1) * math.cos(x) ** 2 * (radius * math.sin(x)) ** order
                         for x in angles)
    except OverflowError as exc:
        raise QuadratureError(
            f"moment {order} at radius {radius:g} leaves the float range") from exc
