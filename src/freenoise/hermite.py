"""The orthonormal Hermite functions.

With the probabilists' Hermite polynomials h_0 = 1, h_1 = u,
h_{k+1} = u h_k - k h_{k-1}, the Hermite functions are indexed from 1:

    hfn_k(u) = h_{k-1}(sqrt(2) u) e^{-u^2/2} / (pi^{1/4} sqrt((k-1)!))

and form an orthonormal basis of L^2(du).  Evaluation folds the
Gaussian into the recurrence

    hfn_{k+1}(u) = sqrt(2/k) u hfn_k(u) - sqrt((k-1)/k) hfn_{k-1}(u)

which is stable out to k of a few hundred; the raw polynomial recurrence
overflows long before that.

Under the transform fhat(u) = integral e^{-iux} f(x) dx each Hermite
function is an eigenvector:  fhat = sqrt(2 pi) (-i)^{k-1} hfn_k.  The
kernel identity of Mehler, stated here for the Hermite functions,

    sum_{n>=0} hfn_{n+1}(u) hfn_{n+1}(v) s^n
        = pi^{-1/2} (1-s^2)^{-1/2}
          exp(-((1+s^2)(u^2+v^2) - 4 s u v) / (2 (1-s^2)))

holds for |s| < 1.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DivergenceError

__all__ = [
    "hermite_fn",
    "hermite_fn_matrix",
    "fourier_hermite",
    "mehler_closed",
    "mehler_sum",
    "HermiteBasis",
]

_PI_QUARTER = math.pi ** -0.25
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def hermite_fn_matrix(n_max: int, u) -> np.ndarray:
    """Rows 0..n_max-1 hold hfn_1(u)..hfn_{n_max}(u) on the given grid."""
    if n_max < 1:
        raise ValueError("need at least one function")
    u = np.atleast_1d(np.asarray(u, dtype=float))
    shape = (n_max,) + u.shape
    u = u.ravel()
    out = np.empty((n_max, u.size))
    # Rows are filled in place, in the operation order of
    # c * e^{-u u / 2} and c1 * u * hfn_{j} - c2 * hfn_{j-1}, so every
    # row is bit-identical to that formula.
    first = out[0]
    np.multiply(u, -0.5, out=first)
    first *= u
    np.exp(first, out=first)
    first *= _PI_QUARTER
    # Where u > 0 and the Gaussian has underflowed to +0.0, the formula
    # gives +0.0 in every later row as long as u sqrt(2) is finite, so
    # the recurrence runs only between the first and last other nodes.
    with np.errstate(over="ignore"):
        dead = (first == 0.0) & (u > 0.0) & np.isfinite(u * math.sqrt(2.0))
    live = np.flatnonzero(~dead)
    lo, hi = (live[0], live[-1] + 1) if live.size else (0, 0)
    out[1:, :lo] = 0.0
    out[1:, hi:] = 0.0
    u, first = u[lo:hi], first[lo:hi]
    if n_max > 1:
        np.multiply(u, math.sqrt(2.0), out=out[1, lo:hi])
        out[1, lo:hi] *= first
    scratch = np.empty(u.shape)
    for j in range(2, n_max):
        row = out[j, lo:hi]
        np.multiply(u, math.sqrt(2.0 / j), out=row)
        row *= out[j - 1, lo:hi]
        np.multiply(out[j - 2, lo:hi], math.sqrt((j - 1) / j), out=scratch)
        row -= scratch
    return out.reshape(shape)


def hermite_fn(k: int, u):
    """hfn_k(u), k >= 1; hfn_1(0) = pi^{-1/4}."""
    if k < 1:
        raise ValueError("Hermite functions are indexed from 1")
    scalar = np.isscalar(u) or np.asarray(u).ndim == 0
    vals = hermite_fn_matrix(k, u)[k - 1]
    return float(vals[0]) if scalar else vals


def fourier_hermite(k: int, u) -> complex | np.ndarray:
    """Fourier transform value of hfn_k: sqrt(2 pi) (-i)^{k-1} hfn_k(u).

    Real for k = 1 mod 4 and k = 3 mod 4, purely imaginary otherwise;
    checked in the tests against direct numerical Fourier integrals.
    """
    phase = (-1j) ** ((k - 1) % 4)
    vals = _SQRT_2PI * phase * hermite_fn(k, u)
    return complex(vals) if np.isscalar(vals) or np.asarray(vals).ndim == 0 else vals


def mehler_closed(u: float, v: float, s: float) -> float:
    """Closed form of the Hermite-function kernel sum; requires |s| < 1."""
    if abs(s) >= 1.0:
        raise DivergenceError("Mehler kernel diverges for |s| >= 1")
    one = 1.0 - s * s
    expo = -((1.0 + s * s) * (u * u + v * v) - 4.0 * s * u * v) / (2.0 * one)
    return math.pi ** -0.5 * one ** -0.5 * math.exp(expo)


def mehler_sum(u: float, v: float, s: float, n_terms: int = 400) -> float:
    """Partial sum over n < n_terms of hfn_{n+1}(u) hfn_{n+1}(v) s^n."""
    if abs(s) >= 1.0:
        raise DivergenceError("Mehler kernel diverges for |s| >= 1")
    if n_terms < 1:
        raise ValueError("need at least one term")
    grid = hermite_fn_matrix(n_terms, np.array([u, v]))
    powers = s ** np.arange(n_terms)
    return float(np.sum(grid[:, 0] * grid[:, 1] * powers))


class HermiteBasis:
    """The Hermite functions hfn_1..hfn_{max_index} and their Gram matrix."""

    def __init__(self, max_index: int):
        if max_index < 1:
            raise ValueError("need at least one basis function")
        self.max_index = max_index

    def gram(self) -> np.ndarray:
        """Integrals of hfn_j hfn_k via Gauss-Hermite, exact at this size.

        The Gaussian factors of the pair are exactly the e^{-x^2} weight,
        so the remaining polynomial part is integrated exactly once the
        node count exceeds the top polynomial degree.
        """
        nodes = max(2 * self.max_index + 2, 40)
        x, w = np.polynomial.hermite.hermgauss(nodes)
        # polynomial parts: p_k(x) = hfn_k(x) e^{x^2/2}, same recurrence
        p = np.empty((self.max_index, x.size))
        p[0] = _PI_QUARTER * np.ones_like(x)
        if self.max_index > 1:
            p[1] = math.sqrt(2.0) * x * p[0]
        for j in range(2, self.max_index):
            p[j] = math.sqrt(2.0 / j) * x * p[j - 1] - math.sqrt((j - 1) / j) * p[j - 2]
        return (p * w) @ p.T
