import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import freenoise
from freenoise.errors import QuadratureError
from freenoise.quadrature import (
    gl_integrate,
    layout_nodes,
    panel_nodes,
    quad_cos_range,
    quad_scalar,
)


def test_gl_integrate_extends_the_tail_until_it_settles():
    # integral of exp(-u / 40) over (0, inf) is 40; the tail past the
    # initial stop at 60 needs several doublings
    assert gl_integrate(lambda u: (np.exp(-u / 40.0), np.ones_like(u)),
                        1.0) == pytest.approx(40.0, rel=1e-10)


def test_gl_integrate_raises_when_the_tail_does_not_settle():
    # the eighth doubling, (7680, 15360], still adds 13 % of the total
    # integral of exp(-u / 4000)
    with pytest.raises(QuadratureError, match="in 8 doublings past 60"):
        gl_integrate(lambda u: (np.exp(-u / 4000.0), np.ones_like(u)), 1.0)


@pytest.mark.parametrize("osc, stop", [
    (18.0, 30.0), (2.0 * math.sqrt(512) + 17.0, math.sqrt(1025.0) + 12.0),
    (2.0 * math.sqrt(400) + 1.0 + 2.0 ** 10, 40.3), (0.1, 60.0)])
def test_layout_node_count_is_known_before_the_layout_is_built(osc, stop):
    nodes, weights = panel_nodes(osc, stop)
    assert abs(layout_nodes(osc, stop) - len(nodes)) <= 16
    # kept and shared read-only: a caller cannot change a later pass
    assert panel_nodes(osc, stop)[0] is nodes
    assert not nodes.flags.writeable and not weights.flags.writeable


def test_panel_width_that_cannot_advance_an_edge_raises():
    # a width below half an ulp of 1 would append the same edge forever
    with pytest.raises(QuadratureError, match="does not advance"):
        panel_nodes(6.0 / 1e-17, 30.0)


def test_gl_integrate_contracts_every_factor_against_every_row():
    # rows e^{-u/40}, e^{-u}; factors 1, u: result[k, n] = int factor_k row_n
    def integrand(u):
        return np.stack([np.exp(-u / 40.0), np.exp(-u)]), np.stack([np.ones_like(u), u])

    got = gl_integrate(integrand, 1.0)
    assert got.shape == (2, 2)
    assert got == pytest.approx(np.array([[40.0, 1.0], [1600.0, 1.0]]), rel=1e-10)


def test_gl_integrate_skips_a_span_whose_rows_are_all_zero():
    # rows e^{-u/10} cut to exactly 0 from u = 120, so the second tail
    # span (120, 240] is all zero: returning None there gives the same
    # bytes, and a factor that overflows there still raises
    def rows(u):
        return np.where(u < 120.0, np.exp(-u / 10.0), 0.0)[None, :]

    def integrand(skip, overflow):
        def f(u):
            factors = np.stack([np.ones_like(u), np.where(u > 150.0, overflow, u)])
            return (None if skip and u.min() >= 120.0 else rows(u)), factors
        return f

    full = gl_integrate(integrand(False, 1.0), 1.0)
    cut = np.exp(-12.0)
    assert full == pytest.approx(np.array([[10.0 * (1.0 - cut)], [100.0 * (1.0 - 13.0 * cut)]]),
                                 rel=1e-10)
    assert gl_integrate(integrand(True, 1.0), 1.0).tobytes() == full.tobytes()
    for skip in (False, True):
        with pytest.raises(QuadratureError, match="not finite"):
            gl_integrate(integrand(skip, np.inf), 1.0)


def test_importing_the_package_does_not_load_scipy_integrate():
    # no scipy module at all: quadrature and the matrix model import it
    # on first use
    src = Path(freenoise.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, freenoise, freenoise.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_quad_scalar_raises_on_a_nan_result():
    # QUADPACK returns (nan, nan), and nan fails every comparison
    with pytest.raises(QuadratureError):
        quad_scalar(lambda u: math.nan, 0.0, 1.0)


def test_quad_cos_range_raises_on_a_nan_error_estimate():
    # at a subnormal frequency QAWF reaches its cycle limit and returns nan
    with pytest.raises(QuadratureError):
        quad_cos_range(lambda u: 1.0 / (u * u), 5e-324, 1.0, math.inf)
