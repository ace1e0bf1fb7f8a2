import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate as si
from scipy import special as sp

from freenoise.errors import DivergenceError, ValidationError
from freenoise.hermite import (
    EXACT_TO,
    ZERO_PAST,
    hermite_fn_blocks,
    hermite_fn_matrix,
    mehler_closed,
    mehler_sum,
)
from freenoise.quadrature import _composite_rule, gl_rule


def hermite_fn(k, u):
    """hfn_k(u) at one point, the last row of hermite_fn_matrix(k, u)."""
    return float(hermite_fn_matrix(k, u)[k - 1, 0])


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
    # the trapezoid rule on a uniform grid converges geometrically for
    # these entire, Gaussian-decaying products; criterion 12 checks the
    # same matrix by Gauss-Hermite
    u, step = np.linspace(-20.0, 20.0, 801, retstep=True)
    rows = hermite_fn_matrix(10, u)
    assert np.allclose(step * rows @ rows.T, np.eye(10), atol=1e-12)


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
    nodes, _ = gl_rule(0.0, 40.0, 2.0 * math.sqrt(400) + 2.0)
    u = np.concatenate([nodes, [2.0 ** -60, 0.0, -0.3, -7.25], -nodes[::97]])
    assert hermite_fn_matrix(n_max, u).tobytes() == _allocating_fn_matrix(n_max, u).tobytes()


@pytest.mark.parametrize("n_max", [1, 63, 64, 65, 128, 400, 512])
def test_row_blocks_are_the_rows_of_the_matrix(n_max):
    # 64 rows at a time, the last block shorter, every block written into
    # one buffer of min(n_max, 64) rows and two carry rows when n_max > 64
    nodes, _ = gl_rule(0.0, ZERO_PAST, 2.0 * math.sqrt(400) + 2.0)
    u = np.concatenate([nodes, [0.0, -0.3, 40.0]])
    views, copies = [], []
    for block in hermite_fn_blocks(n_max, u, 64):
        views.append(block)
        copies.append(block.copy())
    assert [len(b) for b in copies] == [min(64, n_max - lo) for lo in range(0, n_max, 64)]
    assert np.concatenate(copies).tobytes() == hermite_fn_matrix(n_max, u).tobytes()
    assert {id(v.base) for v in views} == {id(views[0].base)}
    assert views[0].base.shape == (min(n_max, 64) + 2 * (n_max > 64), u.size)


def test_underflowed_columns_are_bit_identical():
    # a span past ZERO_PAST, (40.3, 80.6] at the panel width of n_max 400,
    # where the Gaussian has underflowed at every node, and a mixed grid
    # with negative, infinite and nan nodes
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


def test_every_row_is_positive_zero_from_zero_past_on():
    # the multiplier layout stops at ZERO_PAST: no row it leaves out is
    # anything but +0.0, and the Gaussian has not underflowed at 38.6
    assert ZERO_PAST == 38.61
    rows = hermite_fn_matrix(512, [ZERO_PAST, 40.0, 1e3])
    assert not rows.any() and not np.signbit(rows).any()
    assert hermite_fn_matrix(1, [38.6])[0, 0] > 0.0


def test_the_seed_is_a_normal_float_up_to_exact_to():
    # the multiplier pass refuses an integrand that still matters past
    # EXACT_TO, where the seed of every row turns subnormal and loses bits
    tiny = np.finfo(float).tiny
    assert hermite_fn_matrix(1, [EXACT_TO])[0, 0] >= tiny > hermite_fn_matrix(1, [37.7])[0, 0]


def test_hermite_functions_are_fourier_eigenvectors():
    # direct integral of hfn_k(x) e^{-iux} over the real line against
    # sqrt(2 pi) (-i)^{k-1} hfn_k(u), the phase pattern the multiplier
    # pass in spectral relies on
    for k in (1, 2, 3, 4, 5):
        for u in (0.0, 0.7, -1.3):
            re, _ = si.quad(lambda x: hermite_fn(k, x) * math.cos(u * x),
                            -15.0, 15.0, limit=200)
            im, _ = si.quad(lambda x: -hermite_fn(k, x) * math.sin(u * x),
                            -15.0, 15.0, limit=200)
            want = math.sqrt(2.0 * math.pi) * (-1j) ** (k - 1) * hermite_fn(k, u)
            assert re == pytest.approx(want.real, abs=1e-9)
            assert im == pytest.approx(want.imag, abs=1e-9)


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
        hermite_fn_matrix(0, np.zeros(3))


def test_blocks_refuse_an_empty_index_range():
    # the range check is hermite.check_index_bound's, and it runs when the
    # generator is first iterated
    blocks = hermite_fn_blocks(0, np.zeros(3), 64)
    with pytest.raises(ValidationError, match="n_max must be >= 1"):
        next(blocks)


def test_recurrence_refuses_indices_above_its_bound():
    # at n = 1000 the rows seeded by an underflowed first row read 0.0
    # where hfn_1000(40) is about 0.17
    with pytest.raises(ValidationError, match="n_max 1000 is above 512"):
        hermite_fn_matrix(1000, [40.0])
    assert np.isfinite(hermite_fn_matrix(512, [40.0])).all()
