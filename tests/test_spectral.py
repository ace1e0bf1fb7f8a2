import dataclasses
import math

import numpy as np
import pytest
from scipy import integrate as si
from scipy import special as ssp

from freenoise.errors import DivergenceError, QuadratureError, ValidationError
from freenoise.hermite import hermite_fn, hermite_fn_matrix
from freenoise.quadrature import _composite_rule, panel_nodes
from freenoise.spectral import (
    _HALF_LINE_PREF,
    SpectralDensity,
    _osc_scale,
    _tail_stop,
    _tm_and_alpha,
    alpha_vector,
    certify_tail,
    dual_route_kernel,
    fit_power_law,
    fit_sqrt_exponential,
    frequency_cutoff,
    kernel,
    parse_density_config,
    r_function,
    tm_values,
)
from freenoise.words import WeightSequence


def test_constructors_classify_growth():
    assert SpectralDensity.lebesgue().growth == "polynomial"
    assert SpectralDensity.exponential(2.0).growth == "exponential"
    rough = SpectralDensity.fbm(0.25)
    smooth = SpectralDensity.fbm(0.75)
    assert rough.class_index == 1 and rough.origin_exponent == 0.0
    assert smooth.class_index == 0 and smooth.origin_exponent == 0.5


def test_density_validation():
    with pytest.raises(ValidationError):
        SpectralDensity(kind="nope")
    with pytest.raises(ValidationError):
        SpectralDensity(kind="lebesgue", scale=0.0)
    with pytest.raises(ValidationError):
        SpectralDensity.fbm(1.0)
    with pytest.raises(ValidationError):
        SpectralDensity.custom(origin_exponent=2.0)
    with pytest.raises(ValidationError):
        SpectralDensity.exponential(rate=0.0)
    with pytest.raises(ValidationError):
        SpectralDensity.custom(class_index=-1)
    with pytest.raises(ValidationError):
        SpectralDensity(kind="lebesgue", cutoff_low=2.0, cutoff_high=1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValidationError):
            SpectralDensity(kind="lebesgue", scale=bad)
        with pytest.raises(ValidationError):
            SpectralDensity.fbm(0.3, scale=bad)
        with pytest.raises(ValidationError):
            SpectralDensity.exponential(rate=bad)
        with pytest.raises(ValidationError):
            SpectralDensity.exponential(scale=bad)


# u = 0, negative u, both cutoff edges and their neighbours in floats,
# and points far enough out that the exponential kind overflows.
_EDGES = (0.5, 3.0)
_AT_GRID = [0.0, 1e-300, 0.3, 1.0, 2.5, 37.0, 700.0, 710.0, 800.0, 1e10, 1e200]
_AT_GRID += [v for e in _EDGES
             for v in (e, math.nextafter(e, 0.0), math.nextafter(e, math.inf))]
_AT_GRID += [-u for u in _AT_GRID]


@pytest.mark.parametrize("dens", [
    SpectralDensity.lebesgue(),
    SpectralDensity.fbm(0.3),
    SpectralDensity.fbm(0.75),
    SpectralDensity.exponential(1.0),
    SpectralDensity.custom(origin_exponent=0.5, class_index=1),
    SpectralDensity.custom(origin_exponent=0.5, class_index=1,
                           cutoff_low=_EDGES[0], cutoff_high=_EDGES[1]),
    dataclasses.replace(SpectralDensity.fbm(0.75), cutoff_low=_EDGES[0],
                        cutoff_high=_EDGES[1]),
], ids=lambda d: f"{d.label()}[{d.cutoff_low:g},{d.cutoff_high:g}]")
def test_scalar_evaluator_matches_the_vector_one(dens):
    # equal, or within 2 ulp where libm pow and numpy's pow may round apart
    ulps = 2 if dens.kind in ("fbm", "custom") else 0
    vector = dens(np.array(_AT_GRID))
    for u, want in zip(_AT_GRID, vector):
        got = dens.at(u)
        assert type(got) is float
        assert math.isinf(got) == math.isinf(want) and (got == 0.0) == (want == 0.0)
        assert got == want or abs(got - want) <= ulps * math.ulp(want), u


def test_exponential_density_is_never_clamped():
    # e^{60 u / 2} overflows inside the panels, so the pass refuses
    # instead of integrating a clamped density
    for rate in (40.0, 60.0):
        with pytest.raises(QuadratureError, match="not finite"):
            tm_values(SpectralDensity.exponential(rate), 1.0, 64)
    # sqrt(m) is formed directly, so rate 20 stays finite where m overflows
    assert np.all(np.isfinite(tm_values(SpectralDensity.exponential(20.0), 1.0, 64)))
    assert math.isinf(SpectralDensity.exponential(60.0)(np.array([20.0]))[0])


def test_density_pointwise_values():
    u = np.array([0.5, 1.0, 3.0])
    assert np.allclose(SpectralDensity.lebesgue()(u), 1.0)
    f = SpectralDensity.fbm(0.25)
    assert np.allclose(f(u), np.abs(u) ** 0.5)
    c = SpectralDensity.custom(origin_exponent=0.5, class_index=1)
    assert np.allclose(c(u), u ** -0.5 * (1.0 + u * u) ** 1.25)
    windowed = SpectralDensity(kind="lebesgue", cutoff_low=0.8, cutoff_high=2.0)
    assert np.allclose(windowed(u), [0.0, 1.0, 0.0])


def test_parse_density_config_round_trip():
    dens = parse_density_config("""
        # covariance weight
        kind = fbm
        H = 0.3
        C1 = 2.0
    """)
    assert dens.kind == "fbm"
    assert dens.hurst == pytest.approx(0.3)
    assert dens.scale == pytest.approx(2.0)
    assert dens.class_index == 1

    custom = parse_density_config(
        "kind = custom\nb = 0.5\nN = 2\ncutoffs = 0.1, 40")
    assert custom.origin_exponent == pytest.approx(0.5)
    assert custom.class_index == 2
    assert custom.cutoff_low == pytest.approx(0.1)
    assert custom.cutoff_high == pytest.approx(40.0)


def test_parse_density_config_errors():
    with pytest.raises(ValidationError):
        parse_density_config("H = 0.5")
    with pytest.raises(ValidationError):
        parse_density_config("kind = fbm\nH = abc")
    with pytest.raises(ValidationError):
        parse_density_config("kind = lebesgue\nwhat = 1")
    with pytest.raises(ValidationError):
        parse_density_config("kind = lebesgue\ncutoffs = 1")
    with pytest.raises(ValidationError):
        parse_density_config("kind = weird")
    with pytest.raises(ValidationError):
        parse_density_config("no equals sign here")


def test_lebesgue_multiplier_is_identity():
    # with unit weight the multiplier reproduces the Hermite function
    leb = SpectralDensity.lebesgue()
    for t in (0.0, 0.3, 1.1, 2.7):
        got = tm_values(leb, t, 8)
        expected = [hermite_fn(n, t) for n in range(1, 9)]
        assert np.allclose(got, expected, atol=1e-12)


def test_alpha_lebesgue_matches_quadrature():
    leb = SpectralDensity.lebesgue()
    got = alpha_vector(leb, 0.9, 5)
    for n in (1, 2, 5):
        expected, _ = si.quad(lambda s: hermite_fn(n, s), 0.0, 0.9)
        assert got[n - 1] == pytest.approx(expected, abs=1e-10)
    assert np.all(alpha_vector(leb, 0.0, 6) == 0.0)


_FLAT_TIMES = (0.3, 1.0, 2.5, 7.0, 12.0)


@pytest.mark.parametrize("t", _FLAT_TIMES)
def test_flat_multiplier_is_the_hermite_function_to_n_400(t):
    leb = SpectralDensity.lebesgue()
    expected = hermite_fn_matrix(400, [t])[:, 0]
    assert np.max(np.abs(tm_values(leb, t, 400) - expected)) <= 5e-14


@pytest.mark.parametrize("t", _FLAT_TIMES)
def test_flat_alpha_is_the_integral_of_the_hermite_function_to_n_400(t):
    x, w = np.polynomial.legendre.leggauss(200)
    nodes = 0.5 * t * (x + 1.0)
    expected = hermite_fn_matrix(400, nodes) @ (0.5 * t * w)
    leb = SpectralDensity.lebesgue()
    assert np.max(np.abs(alpha_vector(leb, t, 400) - expected)) <= 1e-12


def _stacked_reference(dens, t, n_max):
    """tm and alpha with every integrand product formed, then contracted.

    The same panels and tail doublings as gl_integrate, but the four
    (n_max x nodes) integrands are built and stacked before the
    weighted sum over the nodes.
    """
    def integrand(nodes):
        base = hermite_fn_matrix(n_max, nodes) * np.sqrt(dens(nodes))
        half = np.sin(0.5 * t * nodes)
        factors = (np.cos(t * nodes), np.sin(t * nodes),
                   np.sin(t * nodes) / nodes, 2.0 * half * half / nodes)
        return np.stack([base * g for g in factors])

    osc, stop = _osc_scale(n_max, t), _tail_stop(n_max)
    nodes, weights = panel_nodes(osc, tail_stop=stop)
    total = integrand(nodes) @ weights
    start, span = stop, stop
    while True:
        n_panels = max(int(np.ceil(span * osc / 6.0)), 1)
        nodes, weights = _composite_rule(np.linspace(start, start + span, n_panels + 1))
        piece = integrand(nodes) @ weights
        total = total + piece
        if np.max(np.abs(piece)) <= 1e-11 * np.max(np.abs(total)):
            break
        start, span = start + span, 2.0 * span
    cos_i, sin_i, s_i, k_i = _HALF_LINE_PREF * total
    sign = np.array([1.0, 1.0, -1.0, -1.0])[np.arange(n_max) % 4]
    even = np.arange(n_max) % 2 == 0
    return (sign * np.where(even, cos_i, sin_i), sign * np.where(even, s_i, k_i))


@pytest.mark.parametrize("n_max", [64, 400])
@pytest.mark.parametrize("dens", [SpectralDensity.lebesgue(), SpectralDensity.fbm(0.3),
                                  SpectralDensity.fbm(0.75)], ids=lambda d: d.label())
def test_multiplier_pass_matches_the_stacked_integrand(dens, n_max):
    for t in (0.7, 3.1):
        tm, al = _tm_and_alpha(dens, t, n_max)
        ref_tm, ref_al = _stacked_reference(dens, t, n_max)
        assert np.max(np.abs(tm - ref_tm)) <= 1e-13
        assert np.max(np.abs(al - ref_al)) <= 1e-13


def test_alpha_prime_is_the_multiplier():
    f = SpectralDensity.fbm(0.6)
    h = 1e-4
    for t in (0.5, 1.2):
        diff = (alpha_vector(f, t + h, 3) - alpha_vector(f, t - h, 3)) / (2.0 * h)
        assert tm_values(f, t, 3) == pytest.approx(diff, abs=1e-7)


def test_fbm_r_function_closed_form():
    # r(t) = C_H |t|^{2H} with C_H = -Gamma(-2H) cos(pi H) / pi, derived
    # from the standard |e^{iut}-1|^2 |u|^{1-2H} integral via the gamma
    # function; the three constants below were computed from scipy's
    # gamma independently of the quadrature path under test
    frozen = {0.25: 0.797884560802865,
              0.6: 0.477155494265922,
              0.75: 0.531923040535244}
    for hurst, c_frozen in frozen.items():
        c_gamma = -ssp.gamma(-2.0 * hurst) * math.cos(math.pi * hurst) / math.pi
        assert c_gamma == pytest.approx(c_frozen, rel=1e-12)
        dens = SpectralDensity.fbm(hurst)
        assert r_function(dens, 1.0) == pytest.approx(c_frozen, rel=1e-9)
        # the power law fixes every other time through scaling
        assert r_function(dens, 2.0) == pytest.approx(
            c_frozen * 2.0 ** (2.0 * hurst), rel=1e-8)
    assert r_function(SpectralDensity.fbm(0.5), -1.5) == r_function(
        SpectralDensity.fbm(0.5), 1.5)


def test_lebesgue_r_and_kernel():
    leb = SpectralDensity.lebesgue()
    assert r_function(leb, 1.3) == pytest.approx(0.65, abs=1e-9)
    for t, s in ((0.4, 0.7), (1.0, 1.0), (2.5, 0.3)):
        assert kernel(leb, t, s) == pytest.approx(min(t, s), abs=1e-8)
    assert kernel(leb, 0.0, 1.0) == 0.0


def test_kernel_positive_semidefinite():
    dens = SpectralDensity.fbm(0.6)
    times = [0.2, 0.5, 0.9, 1.4, 2.0]
    gram = np.array([[kernel(dens, t, s) for s in times] for t in times])
    assert np.allclose(gram, gram.T, atol=1e-10)
    assert np.linalg.eigvalsh(gram).min() >= -1e-9


def test_dual_route_converges_to_kernel():
    # coefficient-route truncation error shrinks as the cutoff grows
    for dens in (SpectralDensity.lebesgue(), SpectralDensity.fbm(0.6)):
        exact = kernel(dens, 0.7, 0.4)
        errs = [abs(dual_route_kernel(dens, 0.7, 0.4, n) - exact)
                for n in (8, 64, 256)]
        assert errs[1] < errs[0]
        assert errs[2] < errs[1]
        assert errs[2] < 0.02


def test_kernel_divergence_guards():
    with pytest.raises(DivergenceError):
        kernel(SpectralDensity.exponential(1.0), 1.0, 1.0)
    with pytest.raises(DivergenceError):
        r_function(SpectralDensity.custom(class_index=1), 1.0)
    with pytest.raises(DivergenceError):
        r_function(SpectralDensity.custom(origin_exponent=1.5), 1.0)


def test_frequency_cutoff_bounds_the_tail():
    dens = SpectralDensity.fbm(0.75)
    tol = 1e-8
    cut = frequency_cutoff(dens, tol)
    tail, _ = si.quad(lambda u: 4.0 * dens(u) / u ** 2, cut, np.inf)
    assert tail <= tol * 1.01
    capped = SpectralDensity(kind="lebesgue", cutoff_high=7.0)
    assert frequency_cutoff(capped) == 7.0


def test_fit_power_law_recovers_synthetic_exponent():
    n = np.arange(4, 80)
    fit = fit_power_law(n, 3.0 * n ** -0.7)
    assert fit.exponent == pytest.approx(-0.7, abs=1e-9)
    assert math.exp(fit.log_scale) == pytest.approx(3.0, rel=1e-9)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_sqrt_exponential_recovers_synthetic_rate():
    n = np.arange(4, 80)
    fit = fit_sqrt_exponential(n, 2.0 * np.exp(-0.3 * np.sqrt(n)))
    assert fit.exponent == pytest.approx(-0.3, abs=1e-9)
    assert math.exp(fit.log_scale) == pytest.approx(2.0, rel=1e-9)


def test_fit_needs_enough_points():
    with pytest.raises(ValidationError):
        fit_power_law([1.0, 2.0], [1.0, 2.0])


def test_certify_tail_statuses():
    leb = SpectralDensity.lebesgue()
    assert certify_tail(leb, 3, 1.0).status == "certified"
    assert certify_tail(leb, 2, 1.0).status == "uncertified"
    rough = SpectralDensity.fbm(0.25)
    assert certify_tail(rough, 3, 1.0).status == "uncertified"
    assert certify_tail(rough, 4, 1.0).status == "certified"
    grow = SpectralDensity.exponential(1.0)
    assert certify_tail(grow, 3, 1.0).status == "failed"
    assert certify_tail(grow, 3, 1.0,
                        seq=WeightSequence.exponential()).status == "certified"


def test_certify_tail_report_fields():
    rep = certify_tail(SpectralDensity.lebesgue(), 3, 1.0)
    assert rep.certified
    assert rep.level == 3
    assert rep.tail_bound < math.inf
    assert rep.weighted_partial > 0.0
    assert rep.partial_checkpoints[-1][0] == rep.n_max
    # checkpoints are partial sums of non-negative terms
    vals = [v for _, v in rep.partial_checkpoints]
    assert vals == sorted(vals)


def test_certify_tail_validation():
    leb = SpectralDensity.lebesgue()
    with pytest.raises(ValidationError):
        certify_tail(leb, -1, 1.0)
    with pytest.raises(ValidationError):
        certify_tail(leb, 3, 1.0, n_max=8)
    with pytest.raises(ValidationError):
        certify_tail(leb, 3, 1.0, seq=WeightSequence.custom([2.0, 4.0]))
