"""Chebyshev polynomials of the second kind and the semicircle law.

U_n satisfies U_0 = 1, U_1 = 2x, U_{n+1} = 2x U_n - U_{n-1} and is
orthonormal for the weight (2/pi) sqrt(1 - x^2) on [-1, 1].  For the
semicircle law of radius r the orthonormal family is p_n(x) = U_n(x/r);
the default operator convention in this package is radius 2, where the
p_n are monic with integer coefficients (p_2 = x^2 - 1, p_3 = x^3 - 2x).

The product rule U_m U_n = sum_{k=0}^{min(m,n)} U_{|m-n|+2k} has all
coefficients equal to one (Clebsch-Gordan for SU(2)), so ``linearize``
returns just its degrees.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

__all__ = [
    "u_poly",
    "orthonormal_poly",
    "linearize",
    "poly_mul",
    "semicircle_moment",
    "catalan",
]


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


@lru_cache(maxsize=None)
def u_poly(n: int) -> tuple[int, ...]:
    """Monomial coefficients of U_n, low degree first."""
    if n < 0:
        raise ValueError("degree must be non-negative")
    if n == 0:
        return (1,)
    if n == 1:
        return (0, 2)
    prev2 = u_poly(n - 2)
    prev1 = u_poly(n - 1)
    out = [0] * (n + 1)
    for j, c in enumerate(prev1):
        out[j + 1] += 2 * c
    for j, c in enumerate(prev2):
        out[j] -= c
    return tuple(out)


def orthonormal_poly(n: int) -> tuple[int, ...]:
    """Integer coefficients of U_n(x / 2): 2^j divides the x^j coefficient of U_n."""
    return tuple(c >> j for j, c in enumerate(u_poly(n)))


def linearize(m: int, n: int) -> range:
    """Degrees of U_m U_n = sum of U_d, d = |m-n|, |m-n|+2, ..., m+n."""
    if m < 0 or n < 0:
        raise ValueError("degrees must be non-negative")
    return range(abs(m - n), m + n + 1, 2)


def poly_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return tuple(out)


def semicircle_moment(k: int, radius: Fraction | int | float = 2) -> Fraction:
    """k-th moment of the semicircle law of the given radius, exact.

    The density is (2/(pi r^2)) sqrt(r^2 - x^2); odd moments vanish and
    moment 2n is C_n (r/2)^{2n}.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if radius == math.inf:
        raise ValueError("radius must be finite")
    if k < 0:
        raise ValueError("moment order must be non-negative")
    if k % 2 == 1:
        return Fraction(0)
    n = k // 2
    half = Fraction(radius) / 2
    return catalan(n) * half ** (2 * n)
