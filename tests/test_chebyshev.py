import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate as si

from chebyshev_oracle import eval_u, semicircle_density
from freenoise.chebyshev import (
    catalan,
    linearize,
    orthonormal_poly,
    poly_mul,
    semicircle_moment,
    u_poly,
)
from freenoise.errors import QuadratureError
from freenoise.quadrature import quad_semicircle_moment

degrees = st.integers(0, 40)


def _eval_poly(coeffs, x):
    return sum(float(c) * x ** k for k, c in enumerate(coeffs))


@given(st.integers(0, 12), st.floats(0.05, math.pi - 0.05))
def test_u_poly_matches_sine_ratio(n, theta):
    # U_n(cos t) = sin((n+1)t)/sin(t), the defining trigonometric identity;
    # monomial evaluation loses digits past degree ~15, so keep n modest here
    x = math.cos(theta)
    expected = math.sin((n + 1) * theta) / math.sin(theta)
    assert _eval_poly(u_poly(n), x) == pytest.approx(expected, abs=1e-9 * (n + 1))


@given(st.integers(0, 60), st.floats(0.05, math.pi - 0.05))
def test_eval_u_matches_sine_ratio(n, theta):
    # the recurrence evaluator stays accurate at degrees where the
    # monomial form has already lost most of its precision
    x = math.cos(theta)
    expected = math.sin((n + 1) * theta) / math.sin(theta)
    assert eval_u(n, x) == pytest.approx(expected, abs=1e-10 * (n + 1) ** 2)


@given(degrees, degrees)
def test_linearize_structure(m, n):
    degrees = linearize(m, n)
    lo, hi = abs(m - n), m + n
    assert tuple(degrees) == tuple(range(lo, hi + 1, 2))
    assert len(degrees) == min(m, n) + 1


@given(degrees, degrees)
def test_linearize_equals_product(m, n):
    # every coefficient of the product rule is one
    expanded = [0] * (m + n + 1)
    for deg in linearize(m, n):
        for k, c in enumerate(u_poly(deg)):
            expanded[k] += c
    assert tuple(expanded) == poly_mul(u_poly(m), u_poly(n))


def test_eval_u_matches_coefficients():
    ys = np.linspace(-0.99, 0.99, 7)
    for n in (0, 1, 4, 9):
        direct = [_eval_poly(u_poly(n), y) for y in ys]
        assert np.allclose(eval_u(n, ys), direct, atol=1e-10)


def test_catalan_prefix():
    assert [catalan(n) for n in range(8)] == [1, 1, 2, 5, 14, 42, 132, 429]


def test_orthonormal_poly_is_monic_integer():
    for n in range(9):
        coeffs = orthonormal_poly(n)
        assert coeffs[-1] == 1
        assert all(c.denominator == 1 for c in coeffs)


def test_semicircle_moments_are_catalan():
    for n in range(9):
        assert semicircle_moment(2 * n, 2) == catalan(n)
        assert semicircle_moment(2 * n + 1, 2) == 0


def test_semicircle_moments_scale_with_radius():
    for n in range(6):
        assert semicircle_moment(2 * n, Fraction(3)) == catalan(n) * Fraction(3, 2) ** (2 * n)


@pytest.mark.parametrize("radius", [2.0, 3.0])
def test_moment_quadrature_agrees(radius):
    for k in range(11):
        quad = quad_semicircle_moment(k, radius)
        assert quad == pytest.approx(float(semicircle_moment(k, radius)), abs=1e-9)


def orthonormal_check(m, n, tol=1e-12):
    """Adaptive quadrature of p_m p_n against the radius-2 semicircle law;
    near delta_{mn}."""

    def integrand(x):
        y = x / 2.0
        return float(eval_u(m, y) * eval_u(n, y)) * float(semicircle_density(x))

    val, err = si.quad(integrand, -2.0, 2.0, epsabs=tol * 0.1, epsrel=1e-13, limit=400)
    if err > tol:
        raise QuadratureError(
            f"orthonormality quadrature for ({m},{n}) reached error {err:g} > tol {tol:g}")
    return val


def test_orthonormal_check_clean():
    for m in range(6):
        for n in range(6):
            val = orthonormal_check(m, n)
            assert val == pytest.approx(1.0 if m == n else 0.0, abs=1e-10)
