import json
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


@pytest.mark.parametrize("osc, stop", [
    (18.0, 30.0), (2.0 * math.sqrt(512) + 17.0, math.sqrt(1025.0) + 12.0),
    (2.0 * math.sqrt(400) + 1.0 + 2.0 ** 10, 40.3), (0.1, 60.0)])
def test_layout_node_count_is_known_before_the_layout_is_built(osc, stop):
    nodes, weights = panel_nodes(osc, stop)
    assert abs(layout_nodes(osc, stop) - len(nodes)) <= 16
    # kept and shared read-only: a caller cannot change a later pass
    assert panel_nodes(osc, stop)[0] is nodes
    assert not nodes.flags.writeable and not weights.flags.writeable


@pytest.mark.parametrize("start, stop", [(0.0, 0.7), (0.0, 5.3), (0.3, 5.3), (1e-3, 1.0),
                                         (1.5, 38.61), (2.5, 2.6), (3.0, 3.0)])
def test_a_windowed_layout_starts_and_stops_at_its_ends(start, stop):
    # no panel straddles either end, so a jump of the integrand there is
    # an end of the rule, which GL-16 integrates to rounding
    osc = 2.0 * math.sqrt(16) + 2.0
    nodes, weights = panel_nodes(osc, stop, start)
    assert abs(layout_nodes(osc, stop, start) - len(nodes)) <= 16
    assert np.all((nodes > start) & (nodes < stop))
    assert math.fsum(weights) == pytest.approx(stop - start, rel=1e-14, abs=0.0)
    # e^u over the window, where it would jump to 0 past both ends
    def integrand(u):
        return [np.exp(u)[None, :]], np.ones((1, u.size))

    got = gl_integrate(integrand, osc, stop, start)[0, 0]
    assert got == pytest.approx(math.exp(stop) - math.exp(start), rel=1e-14, abs=0.0)


def test_panel_width_that_cannot_advance_an_edge_raises():
    # a width below half an ulp of 1 would append the same edge forever
    with pytest.raises(QuadratureError, match="does not advance"):
        panel_nodes(6.0 / 1e-17, 30.0)


def test_gl_integrate_contracts_every_factor_against_every_row():
    # rows e^{-u/40}, e^{-u}; factors 1, u: result[k, n] = int_0^60 factor_k row_n
    def integrand(u):
        return [np.stack([np.exp(-u / 40.0), np.exp(-u)])], np.stack([np.ones_like(u), u])

    got = gl_integrate(integrand, 1.0, 60.0)
    assert got.shape == (2, 2)
    cut = math.exp(-1.5)
    assert got == pytest.approx(np.array([[40.0 * (1.0 - cut), 1.0],
                                          [1600.0 * (1.0 - 2.5 * cut), 1.0]]), rel=1e-10)


def test_gl_integrate_raises_when_the_contraction_is_not_finite():
    # a factor that overflows where the row is 0 still gives inf * 0 = nan
    def integrand(u):
        rows = np.where(u < 20.0, np.exp(-u), 0.0)[None, :]
        return [rows], np.where(u > 25.0, np.inf, 1.0)[None, :]

    with pytest.raises(QuadratureError, match="not finite"):
        gl_integrate(integrand, 1.0, 30.0)


def test_gl_integrate_raises_when_only_a_later_block_is_not_finite():
    # the rows of the first two blocks are finite, the third's are not
    def integrand(u):
        rows = np.exp(-u)[None, :]
        return [rows, rows, np.where(u > 25.0, np.inf, 1.0)[None, :]], np.ones((1, u.size))

    with pytest.raises(QuadratureError, match="not finite"):
        gl_integrate(integrand, 1.0, 30.0)


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


def test_each_layer_imports_only_what_it_uses():
    # the package root re-exports nothing, so it loads no submodule, and
    # the exact trace engines load neither numpy nor the numeric layers
    src = Path(freenoise.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, json, freenoise; "
         "layers = lambda: sorted(m for m in sys.modules if m.startswith('freenoise.')); "
         "root = layers(); import freenoise.trace; "
         "print(json.dumps([root, layers(), 'numpy' in sys.modules]))"],
        env=env, capture_output=True, text=True, check=True)
    root, layers, numpy = json.loads(out.stdout)
    assert root == []
    assert "freenoise.trace" in layers and not numpy
    assert not {f"freenoise.{m}" for m in ("spectral", "process", "matmodel", "hermite",
                                          "quadrature", "parallel")} & set(layers)


def test_quad_scalar_raises_on_a_nan_result():
    # QUADPACK returns (nan, nan), and nan fails every comparison
    with pytest.raises(QuadratureError):
        quad_scalar(lambda u: math.nan, 0.0, 1.0)


def test_quad_cos_range_raises_on_a_nan_error_estimate():
    # at a subnormal frequency QAWF reaches its cycle limit and returns nan
    with pytest.raises(QuadratureError):
        quad_cos_range(lambda u: 1.0 / (u * u), 5e-324, 1.0, math.inf)

