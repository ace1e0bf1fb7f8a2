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

from .errors import DivergenceError, ValidationError

__all__ = [
    "EXACT_TO",
    "ZERO_PAST",
    "check_index_bound",
    "hermite_fn_blocks",
    "hermite_fn_matrix",
    "mehler_closed",
    "mehler_sum",
]

_PI_QUARTER = math.pi ** -0.25

# Largest index of the recurrence.  Above ~750 the first row underflows
# before the turning point sqrt(2n), and the rows it seeds read 0 where
# hfn_n is O(0.1); at 512 the flat multiplier still matches the Hermite
# functions to 5e-14.
_N_MAX_BOUND = 512

# Up to u = 37.6 the seed pi^{-1/4} e^{-u^2/2} is a normal float and every
# row is exact to rounding; past it the seed is subnormal and loses bits.
EXACT_TO = 37.6

# From u = 38.61 on, e^{-u^2/2} underflows to +0.0, and so does every row
# the recurrence builds from it; hfn_1(38.6) is still about 4.9e-324.
ZERO_PAST = 38.61


def check_index_bound(n_max: int) -> None:
    """Raise ValidationError when n_max is above 512, the largest index
    the recurrence resolves."""
    if n_max > _N_MAX_BOUND:
        raise ValidationError(f"n_max {n_max} is above {_N_MAX_BOUND}, the bound "
                              "of the Hermite recurrence")


def hermite_fn_matrix(n_max: int, u) -> np.ndarray:
    """Rows 0..n_max-1 hold hfn_1(u)..hfn_{n_max}(u) on the given grid,
    for 1 <= n_max <= 512: the one block of hermite_fn_blocks."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    rows, = hermite_fn_blocks(n_max, u.ravel(), n_max)
    return rows.reshape((n_max,) + u.shape)


def hermite_fn_blocks(n_max: int, u: np.ndarray, block: int):
    """Rows 0..n_max-1 of hermite_fn_matrix(n_max, u) on a 1-D grid, in
    consecutive blocks of `block` rows, the last one possibly shorter.

    Every block is written into one buffer of min(n_max, block) rows,
    plus two carry rows for the recurrence when n_max > block, so a
    block must be used before the next is asked for.  The rows are the
    same bits whatever the block.
    """
    if n_max < 1:
        raise ValueError("need at least one function")
    check_index_bound(n_max)
    carry = 2 if n_max > block else 0
    buf = np.empty((min(n_max, block) + carry, u.size))
    scratch = np.empty(u.shape)
    for lo in range(0, n_max, block):
        if lo:
            buf[:2] = buf[-2:]
        # Rows are filled in place, in the operation order of
        # c * e^{-u u / 2} and c1 * u * hfn_{j} - c2 * hfn_{j-1}, so every
        # row is bit-identical to that formula.
        for j in range(lo, min(lo + block, n_max)):
            at = carry + j - lo
            row = buf[at]
            if j == 0:
                np.multiply(u, -0.5, out=row)
                row *= u
                np.exp(row, out=row)
                row *= _PI_QUARTER
            elif j == 1:
                np.multiply(u, math.sqrt(2.0), out=row)
                row *= buf[at - 1]
            else:
                np.multiply(u, math.sqrt(2.0 / j), out=row)
                row *= buf[at - 1]
                np.multiply(buf[at - 2], math.sqrt((j - 1) / j), out=scratch)
                row -= scratch
        yield buf[carry:carry + min(block, n_max - lo)]


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

