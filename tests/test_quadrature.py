import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate as si
from scipy import special as ssp

import freenoise
from freenoise.errors import QuadratureError
from freenoise.quadrature import (
    _GL_X,
    _rule,
    gl_integrate,
    gl_rule,
    quad_cos_range,
    quad_scalar,
    rule_nodes,
)


@pytest.mark.parametrize("osc, stop", [
    (18.0, 30.0), (2.0 * math.sqrt(512) + 17.0, math.sqrt(1025.0) + 12.0),
    (2.0 * math.sqrt(400) + 1.0 + 2.0 ** 10, 40.3), (0.1, 60.0)])
def test_layout_node_count_is_known_before_the_layout_is_built(osc, stop):
    # the count from the edges alone is that of the rule once built, with
    # or without a power at 0, and no panel is wider than 6 / osc
    for power in (0.0, 0.2, -0.25, -0.95):
        nodes, weights = gl_rule(0.0, stop, osc, power)
        assert rule_nodes(0.0, stop, osc, power) == len(nodes)
        panels = nodes.reshape(-1, 16)
        widths = (panels[:, -1] - panels[:, 0]) / (_GL_X[-1] - _GL_X[0])
        assert np.all(widths <= 6.0 / osc * (1.0 + 1e-12))
        assert math.fsum(weights) == pytest.approx(stop, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("start, stop", [(0.0, 0.7), (0.0, 5.3), (0.3, 5.3), (1e-3, 1.0),
                                         (1.5, 38.61), (2.5, 2.6)])
def test_a_windowed_layout_starts_and_stops_at_its_ends(start, stop):
    # no panel straddles either end, so a jump of the integrand there is
    # an end of the rule, which GL-16 integrates to rounding
    osc = 2.0 * math.sqrt(16) + 2.0
    nodes, weights = gl_rule(start, stop, osc)
    assert rule_nodes(start, stop, osc) == len(nodes)
    assert np.all((nodes > start) & (nodes < stop))
    assert math.fsum(weights) == pytest.approx(stop - start, rel=1e-14, abs=0.0)
    # e^u over the window, where it would jump to 0 past both ends
    def integrand(u):
        return [np.exp(u)[None, :]], np.ones((1, u.size))

    got = gl_integrate(integrand, nodes, weights)[0, 0]
    assert got == pytest.approx(math.exp(stop) - math.exp(start), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("power", [-0.95, -0.5, 0.2])
@pytest.mark.parametrize("start", [0.0, 1e-3, 0.3])
def test_the_rule_takes_a_power_at_zero_in_or_before_its_window(start, power):
    # u^power cos(u) on (start, 5.3): at start = 0 by the substitution, and
    # before a window that starts past 0 by panels that double from 0
    stop, osc = 5.3, 10.0
    nodes, weights = gl_rule(start, stop, osc, power)

    def integrand(u):
        return [(u ** power * np.cos(u))[None, :]], np.ones((1, u.size))

    def from_zero(x):  # QUADPACK's algebraic weight u^power on (0, x)
        return si.quad(np.cos, 0.0, x, weight="alg", wvar=(power, 0.0), epsabs=0.0,
                       epsrel=1e-13)[0] if x else 0.0

    got = gl_integrate(integrand, nodes, weights)[0, 0]
    assert got == pytest.approx(from_zero(stop) - from_zero(start), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("power", [0.0, 0.2, -0.25, -0.95])
def test_the_pass_rule_is_the_whole_panels_of_the_scalar_rule(power):
    # one rule family: on (0, 1) with 8 cycles, a power of two as _panels
    # rounds it, the pass's rule has the bits of the first 16 nodes and
    # weights of each row of _rule; on (0.25, 1.25) it is _rule's moved
    # there, to rounding, since its pieces move before their nodes form
    nodes, weights = gl_rule(0.0, 1.0, 48.0, power)
    rows = _rule(power, 8.0, 0.0)
    assert nodes.tobytes() == rows[0][:, :16].ravel().tobytes()
    assert weights.tobytes() == rows[1][:, :16].ravel().tobytes()
    nodes, weights = gl_rule(0.25, 1.25, 48.0, power)
    rows = _rule(0.0, 8.0, 0.25)
    assert np.max(np.abs(nodes - (0.25 + rows[0][:, :16].ravel()))) <= 4 * np.spacing(1.25)
    assert np.allclose(weights, rows[1][:, :16].ravel(), rtol=1e-14, atol=0.0)


def test_a_rule_too_large_to_build_still_has_a_node_count():
    # pieces below half an ulp of the window, which an earlier layout
    # appended without end, and an infinite oscillation scale
    assert rule_nodes(0.0, 30.0, 6.0 / 1e-17) == pytest.approx(16 * 3e18, rel=1e-12)
    assert rule_nodes(0.0, 30.0, math.inf) == math.inf


def test_a_power_near_minus_one_grades_only_down_to_the_float_range():
    # the 4:1 panels run down to 2^-k, k = 1 / (1 + power) = 1e7 here (b
    # of 2 - 2e-7 for the pass, 1 - 1e-7 for r), but 4^-j is 0 past
    # j = 537: some 540 edges are formed, not a list of 5e6 (160 MB)
    tracemalloc.start()
    try:
        count = rule_nodes(0.0, 1.0, 6.0, -(1.0 - 1e-7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count <= 16 * 600 and peak <= 1 << 20


def test_gl_integrate_contracts_every_factor_against_every_row():
    # rows e^{-u/40}, e^{-u}; factors 1, u: result[k, n] = int_0^60 factor_k row_n
    def integrand(u):
        return [np.stack([np.exp(-u / 40.0), np.exp(-u)])], np.stack([np.ones_like(u), u])

    got = gl_integrate(integrand, *gl_rule(0.0, 60.0, 1.0))
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
        gl_integrate(integrand, *gl_rule(0.0, 30.0, 1.0))


def test_gl_integrate_raises_when_only_a_later_block_is_not_finite():
    # the rows of the first two blocks are finite, the third's are not
    def integrand(u):
        rows = np.exp(-u)[None, :]
        return [rows, rows, np.where(u > 25.0, np.inf, 1.0)[None, :]], np.ones((1, u.size))

    with pytest.raises(QuadratureError, match="not finite"):
        gl_integrate(integrand, *gl_rule(0.0, 30.0, 1.0))


def test_importing_the_package_does_not_load_scipy_integrate():
    # no scipy module at all: no module of the package imports it
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


def test_no_subcommand_of_the_quadrature_layers_loads_scipy_integrate():
    # r, the kernel, the semicircle moments and the multiplier pass run on
    # the package's own rules, and the matrix model on numpy's eigvalsh
    src = Path(freenoise.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    script = (
        "import contextlib, io, sys\n"
        "from freenoise.cli import run\n"
        "for argv in (['rfun', '--density', 'fbm', '--H', '0.3', '--t', '0.5'],\n"
        "             ['kernel', '--t', '1', '--s', '0.5'], ['moments'], ['tmcoeff'],\n"
        "             ['simulate', '--word', 'z0^2 z1 z0 z1',\n"
        "              '--dim', '8', '--samples', '2']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert run(argv) == 0, argv\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_no_module_in_the_package_imports_scipy():
    src = Path(freenoise.__file__).resolve().parent
    imports = [(path.name, line.strip()) for path in sorted(src.glob("*.py"))
               for line in path.read_text().splitlines()
               if re.match(r"\s*(from|import)\s+scipy\b", line)]
    assert imports == []


def test_quad_scalar_raises_on_a_nan_result():
    # an integrand that is nan at every node has no value and no estimate
    with pytest.raises(QuadratureError, match="not finite"):
        quad_scalar(lambda u: math.nan, 0.0, 1.0)


def test_quad_cos_range_raises_on_a_nan_error_estimate():
    # a nan far out on the rotated contour makes the estimate nan
    with pytest.raises(QuadratureError, match="not finite"):
        quad_cos_range(lambda u: np.where(u.imag > 50.0, np.nan, 1.0 / (u * u)),
                       1e-3, 1.0, math.inf)


@pytest.mark.parametrize("omega", [5e-324, 1e-300, 1e-9, 0.3, 1.0, 12.0, 100.0])
def test_quad_cos_range_on_an_unbounded_range_is_the_cosine_integral(omega):
    # int_1^inf cos(omega u) / u^2 du = cos(omega) - omega (pi / 2 - Si(omega)),
    # which QUADPACK's Fourier rule refused at a subnormal frequency
    want = math.cos(omega) - omega * (math.pi / 2 - ssp.sici(omega)[0])
    got = quad_cos_range(lambda u: 1.0 / (u * u), omega, 1.0, math.inf, 1e-12)
    assert abs(got - want) <= 50e-12


@pytest.mark.parametrize("omega", [20.0, 100.0])
def test_quad_cos_range_on_a_bounded_range_rotates_at_both_ends(omega):
    # int_1^50 cos(omega u) / u^2 du = [-cos(omega u) / u]_1^50 - omega [Si(omega u)]_1^50
    want = (math.cos(omega) - math.cos(50.0 * omega) / 50.0
            - omega * (ssp.sici(50.0 * omega)[0] - ssp.sici(omega)[0]))
    got = quad_cos_range(lambda u: 1.0 / (u * u), omega, 1.0, 50.0, 1e-12)
    assert abs(got - want) <= 50e-12


@pytest.mark.parametrize("power", [-0.99, -0.5, 0.0, 0.4, 2.0])
@pytest.mark.parametrize("osc", [0.0, 40.0])
def test_quad_scalar_takes_the_power_at_the_start(power, osc):
    # int_0^2 u^power cos(osc u) du, by its series for osc = 0 and against
    # QUADPACK's algebraic weight otherwise
    got = quad_scalar(lambda u: u ** power * np.cos(osc * u), 0.0, 2.0, 1e-13,
                      power=power, osc=osc)
    if osc == 0.0:
        want = 2.0 ** (power + 1) / (power + 1)
    else:
        want = si.quad(lambda u: math.cos(osc * u), 0.0, 2.0, weight="alg",
                       wvar=(power, 0.0), epsabs=1e-13, epsrel=1e-13, limit=400)[0]
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
