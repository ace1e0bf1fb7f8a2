import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate as si
from scipy import special as sp

from freenoise.errors import DivergenceError
from freenoise.hermite import (
    HermiteBasis,
    fourier_hermite,
    hermite_fn,
    hermite_fn_matrix,
    mehler_closed,
    mehler_sum,
)
from freenoise.quadrature import _composite_rule, panel_nodes


@given(st.integers(1, 25), st.floats(-5.0, 5.0))
def test_hermite_fn_matches_scipy(k, u):
    # hfn_k is the (k-1)-th normalized oscillator eigenfunction, so the
    # physicists' polynomial with weight (2^j j! sqrt(pi))^{-1/2} e^{-u^2/2}
    j = k - 1
    scale = (2.0 ** j * math.factorial(j) * math.sqrt(math.pi)) ** -0.5
    expected = scale * math.exp(-0.5 * u * u) * sp.eval_hermite(j, u)
    assert hermite_fn(k, u) == pytest.approx(expected, rel=1e-9, abs=1e-12)


def test_hermite_fn_matrix_shape_and_first_rows():
    u = np.linspace(-2.0, 2.0, 7)
    grid = hermite_fn_matrix(3, u)
    assert grid.shape == (3, 7)
    assert np.allclose(grid[0], math.pi ** -0.25 * np.exp(-0.5 * u * u))
    assert np.allclose(grid[1], math.sqrt(2.0) * u * grid[0])


def test_hermite_fn_l2_normalized():
    for k in (1, 2, 5, 12):
        val, err = si.quad(lambda x: hermite_fn(k, x) ** 2, -np.inf, np.inf)
        assert val == pytest.approx(1.0, abs=1e-9)


def test_gram_is_identity():
    basis = HermiteBasis(10)
    assert np.allclose(basis.gram(), np.eye(10), atol=1e-12)


def _allocating_fn_matrix(n_max, u):
    """The row formula hermite_fn_matrix fills in place, one temporary per op."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    out = np.empty((n_max,) + u.shape)
    out[0] = math.pi ** -0.25 * np.exp(-0.5 * u * u)
    if n_max > 1:
        out[1] = math.sqrt(2.0) * u * out[0]
    for j in range(2, n_max):
        out[j] = math.sqrt(2.0 / j) * u * out[j - 1] - math.sqrt((j - 1) / j) * out[j - 2]
    return out


@pytest.mark.parametrize("n_max", [1, 2, 3, 400])
def test_in_place_fill_is_bit_identical(n_max):
    nodes, _ = panel_nodes(2.0 * math.sqrt(400) + 2.0, tail_stop=40.0)
    u = np.concatenate([nodes, [2.0 ** -60, 0.0, -0.3, -7.25], -nodes[::97]])
    assert hermite_fn_matrix(n_max, u).tobytes() == _allocating_fn_matrix(n_max, u).tobytes()


def test_underflowed_columns_are_bit_identical():
    # gl_integrate's first tail span at n_max 400, where the Gaussian
    # has underflowed at every node, and a mixed grid whose negative,
    # infinite and nan nodes keep the full recurrence
    stop = math.sqrt(801.0) + 12.0
    n_panels = math.ceil(stop / (6.0 / (2.0 * math.sqrt(400) + 2.0)))
    tail, _ = _composite_rule(np.linspace(stop, 2.0 * stop, n_panels + 1))
    assert stop < tail[0] and tail[-1] < 2.0 * stop
    # u sqrt(2) overflows at 1.5e308, where the formula gives nan
    mixed = np.array([50.0, 1.0, -50.0, 60.0, np.inf, 38.0, np.nan, -np.inf,
                      0.0, -0.0, 1e300, 2.0 ** -1074, 39.0, -1e300, 1.5e308, 45.0])
    for u in (tail, mixed, mixed.reshape(4, 4), mixed[::-1]):
        with np.errstate(over="ignore", invalid="ignore"):
            got = hermite_fn_matrix(400, u)
            want = _allocating_fn_matrix(400, u)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert not hermite_fn_matrix(400, tail)[1:].any()


def test_fourier_hermite_matches_numeric_transform():
    # oracle: direct integral of hfn_k(x) e^{-iux} over the real line
    for k in (1, 2, 3, 4, 5):
        for u in (0.0, 0.7, -1.3):
            re, _ = si.quad(lambda x: hermite_fn(k, x) * math.cos(u * x),
                            -15.0, 15.0, limit=200)
            im, _ = si.quad(lambda x: -hermite_fn(k, x) * math.sin(u * x),
                            -15.0, 15.0, limit=200)
            got = fourier_hermite(k, u)
            assert got.real == pytest.approx(re, abs=1e-9)
            assert got.imag == pytest.approx(im, abs=1e-9)


def test_fourier_hermite_phase_pattern():
    u = 0.4
    base = math.sqrt(2.0 * math.pi)
    for k, phase in ((1, 1.0), (2, -1j), (3, -1.0), (4, 1j), (5, 1.0)):
        assert fourier_hermite(k, u) == pytest.approx(
            base * phase * hermite_fn(k, u), abs=1e-12)


@given(st.floats(-2.5, 2.5), st.floats(-2.5, 2.5),
       st.floats(-0.8, 0.8))
def test_mehler_sum_matches_closed_form(u, v, s):
    assert mehler_sum(u, v, s) == pytest.approx(mehler_closed(u, v, s),
                                                abs=1e-10)


def test_mehler_rejects_unit_parameter():
    with pytest.raises(DivergenceError):
        mehler_closed(0.0, 0.0, 1.0)
    with pytest.raises(DivergenceError):
        mehler_sum(0.0, 0.0, -1.0)


def test_high_index_recurrence_stays_bounded():
    # the normalized recurrence is numerically stable; values never blow
    # up and the sup stays below the k = 1 peak by monotone envelope decay
    u = np.linspace(-25.0, 25.0, 2001)
    grid = hermite_fn_matrix(200, u)
    assert np.all(np.isfinite(grid))
    assert np.max(np.abs(grid)) <= math.pi ** -0.25 + 1e-12


def test_index_validation():
    with pytest.raises(ValueError):
        hermite_fn(0, 0.0)
    with pytest.raises(ValueError):
        hermite_fn_matrix(0, np.zeros(3))
