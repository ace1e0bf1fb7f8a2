import dataclasses
import hashlib
import math

import numpy as np
import pytest
from scipy import integrate as si
from scipy import special as ssp

from freenoise import spectral
from freenoise.errors import DivergenceError, QuadratureError, ValidationError
from freenoise.hermite import hermite_fn, hermite_fn_matrix
from freenoise.quadrature import _composite_rule, panel_nodes
from freenoise.spectral import (
    _HALF_LINE_PREF,
    SpectralDensity,
    _osc_scale,
    _r_cached,
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


_DENSITIES = [
    SpectralDensity.lebesgue(),
    SpectralDensity.fbm(0.3),
    SpectralDensity.fbm(0.75),
    SpectralDensity.exponential(1.0),
    SpectralDensity.custom(origin_exponent=0.5, class_index=1),
    SpectralDensity.custom(origin_exponent=0.5, class_index=1,
                           cutoff_low=_EDGES[0], cutoff_high=_EDGES[1]),
    dataclasses.replace(SpectralDensity.fbm(0.75), cutoff_low=_EDGES[0],
                        cutoff_high=_EDGES[1]),
]


def _density_id(dens):
    return f"{dens.label()}[{dens.cutoff_low:g},{dens.cutoff_high:g}]"


@pytest.mark.parametrize("dens", _DENSITIES, ids=_density_id)
def test_scalar_evaluator_matches_the_vector_one(dens):
    # equal, or within 2 ulp where libm pow and numpy's pow may round apart
    ulps = 2 if dens.kind in ("fbm", "custom") else 0
    vector = dens(np.array(_AT_GRID))
    for u, want in zip(_AT_GRID, vector):
        got = dens.at(u)
        assert type(got) is float
        assert math.isinf(got) == math.isinf(want) and (got == 0.0) == (want == 0.0)
        assert got == want or abs(got - want) <= ulps * math.ulp(want), u
    # the root is sqrt(m) bit for bit, except that the exponential factor
    # is halved instead of rooted
    grid = np.array(_AT_GRID)
    if dens.kind == "exponential":
        u = np.abs(grid)
        with np.errstate(over="ignore"):
            want = math.sqrt(dens.scale) * np.exp(0.5 * dens.rate * u)
        want = np.where((u >= dens.cutoff_low) & (u <= dens.cutoff_high), want, 0.0)
    else:
        want = np.sqrt(vector)
    assert np.array_equal(dens.root(grid), want)


# tm_values(dens, 1.0, 8) and r_function(dens, 1.5) as float.hex, taken
# from the per-kind evaluators before they became one formula; None
# marks a covariance that diverges.  The multiplier pass is a BLAS
# product, so a different BLAS build may move a last bit of tm.
_FROZEN = {
    "lebesgue[0,inf]": (
        ["0x1.d283bd5be9db6p-2", "0x1.49e02a22b61c1p-1", "0x1.49e02a22b61c2p-2",
         "-0x1.0d57a33d5d99ap-2", "-0x1.dc226d2886986p-2", "-0x1.e1d0706d250edp-5",
         "0x1.8fe09bd12e497p-2", "0x1.0d80ab07dd9a8p-2"],
        "0x1.7ffffffffeff3p-1"),
    "fbm(H=0.3)[0,inf]": (
        ["0x1.72e47ec4f8e83p-2", "0x1.576731f6b4e51p-1", "0x1.3fa42cf432185p-2",
         "-0x1.59b0fae4afd58p-2", "-0x1.355de92da2c8fp-1", "-0x1.47fe8027ec257p-4",
         "0x1.eb7b63acd69d1p-2", "0x1.57c887e04249ep-2"],
        "0x1.c3af329bcc721p-1"),
    "fbm(H=0.75)[0,inf]": (
        ["0x1.499725c057184p-1", "0x1.3da2e26b7898ep-1", "0x1.923787abf8f7cp-2",
         "-0x1.6bb01bf5657bcp-3", "-0x1.1c4dad7e73144p-2", "-0x1.fd424862a2c91p-6",
         "0x1.63dd74fd31c05p-2", "0x1.9bd48b9489b79p-3"],
        "0x1.f454378578a48p-1"),
    "exponential(rate=1)[0,inf]": (
        ["0x1.0ef213d49d8bcp-1", "0x1.4951ee010b88cp+0", "0x1.adc002494f54bp-1",
         "-0x1.d03f73320f536p-1", "-0x1.f3d94f851494ep+0", "-0x1.50a7e4756a35fp-2",
         "0x1.17c1739118f8ep+1", "0x1.bdd7adef3dd61p+0"],
        None),
    "custom[0,inf]": (
        ["0x1.617a617214af4p-1", "0x1.298596d963bdep+0", "0x1.8c7e0c2135340p-1",
         "-0x1.78e274bb25034p-1", "-0x1.5a39717b5e4b0p+0", "-0x1.6146ce8c01099p-3",
         "0x1.7c155967f3bcdp+0", "0x1.06ae632232956p+0"],
        None),
    "custom[0.5,3]": (
        ["0x1.e0a50803b839ep-3", "0x1.1f7895485aa42p+0", "0x1.9baa6030ea7b7p-2",
         "-0x1.b1a0057b7eaa3p-1", "-0x1.1e801eea373c9p+0", "0x1.2863397127e04p-4",
         "0x1.cbaf6f685223cp-3", "0x1.137387b24c2e4p-3"],
        "0x1.cf20d1ceec043p+0"),
    "fbm(H=0.75)[0.5,3]": (
        ["0x1.9a6da5f0aa321p-3", "0x1.28e2b280230d1p-1", "0x1.9696a3eed5a89p-4",
         "-0x1.e10857ad7972ep-3", "-0x1.9165ec87aadf1p-2", "-0x1.99d484209c3f5p-6",
         "-0x1.2eb9847c6e06fp-5", "0x1.6f4b63dcb714ap-7"],
        "0x1.c6701377e3eaap-2"),
}


@pytest.mark.parametrize("dens", _DENSITIES, ids=_density_id)
def test_multiplier_and_r_are_frozen(dens):
    tm_hex, r_hex = _FROZEN[_density_id(dens)]
    assert [float(v).hex() for v in tm_values(dens, 1.0, 8)] == tm_hex
    if r_hex is None:
        with pytest.raises(DivergenceError):
            r_function(dens, 1.5)
    else:
        assert r_function(dens, 1.5).hex() == r_hex


# SHA-256 of the bytes of tm_values and alpha_vector at n_max 400,
# recorded before tail spans past the Gaussian underflow were skipped:
# (density, t) -> (tm, alpha).
_FROZEN_N400 = {
    ("lebesgue", 0.5): (
        "be8a93a02eabfea2c2d79f855c2a57df8edcb47b31634915dadf6b70c02d6c69",
        "157e3397b1eea671936f54936801500d7166f7fd2849c84fef80448ffb048eea"),
    ("lebesgue", 2.5): (
        "19c74361a1f9b63a99509031299be8d8d1e15389ebd43bf86947c95d35b641f3",
        "c3e11e2b10795390fd922e79a86e8ad2180d7adc886bfb3f07b12b8d2754b7f7"),
    ("fbm(H=0.3)", 0.5): (
        "4408063105731f59554cba62c6deae8ce94dec8cf752c082570f46c509fa1289",
        "44b1d854aa78b8655c6ab2da8c2508dabe1334f2b473ddeef26ab12da8cc20fd"),
    ("fbm(H=0.3)", 2.5): (
        "4ba0994de8c9625ee08a9cdb7189ee69b2624747e589c1c919784c610dd143db",
        "3931eb195d14988ac23c5631b9f1994eb5ee3226854a7cb03b23a9d8ee250427"),
    ("fbm(H=0.75)", 0.5): (
        "951ede7b7a73eee21eef525c37db8a5b567ead1b286ec4983fb45b8aa20984df",
        "ebbbd3619f6502b85fd806ff12e605de419c61902175bf118d2e648b91a56c9a"),
    ("fbm(H=0.75)", 2.5): (
        "200034d164c163b918e896085e7708c99e9453ab5f064a7d6d027014d67f4d06",
        "9e192feac354f912a63a5145e68dcdd8e769f3c0a6dbaccacc200e53ca02e4ac"),
}


@pytest.mark.parametrize("dens", [SpectralDensity.lebesgue(), SpectralDensity.fbm(0.3),
                                  SpectralDensity.fbm(0.75)], ids=lambda d: d.label())
def test_skipping_underflowed_tail_spans_changes_no_bit(dens, monkeypatch):
    # at n_max 400 the first tail span, (40.3, 80.6], is wholly past the
    # Gaussian underflow; the pass must give the recorded bytes, and the
    # same bytes when that span is contracted like any other
    for t in (0.5, 2.5):
        tm, al = tm_values(dens, t, 400), alpha_vector(dens, t, 400)
        digests = tuple(hashlib.sha256(v.tobytes()).hexdigest() for v in (tm, al))
        assert digests == _FROZEN_N400[(dens.label(), t)]
        with monkeypatch.context() as m:
            m.setattr(spectral, "hermite_vanishes", lambda u: False)
            full_tm, full_al = _tm_and_alpha.__wrapped__(dens, t, 400)
        assert (tm.tobytes(), al.tobytes()) == (full_tm.tobytes(), full_al.tobytes())


def test_skipped_tail_span_still_checks_for_overflow():
    # at rate 18, sqrt(m) = e^{9 u} overflows only past u = 78.9, inside
    # the first tail span at n_max 400, where every Hermite row is 0
    with pytest.raises(QuadratureError, match=r"\(40\.3\d*, 80\.6\d*\)"):
        tm_values(SpectralDensity.exponential(18.0), 1.0, 400)
    assert np.all(np.isfinite(tm_values(SpectralDensity.exponential(16.0), 1.0, 400)))


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
    # the CLI's kind names, exp among them
    assert parse_density_config("kind = exp\nC2 = 2.5") == SpectralDensity.exponential(2.5)


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
    # the config follows the flags' rules: N is an integer, fbm needs H
    with pytest.raises(ValidationError, match="N"):
        parse_density_config("kind = custom\nN = 0.9")
    with pytest.raises(ValidationError, match="needs --H"):
        parse_density_config("kind = fbm")


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


def test_r_of_minus_t_reuses_r_of_t():
    # r is even, so r(-t) is read from the entry r(t) wrote
    dens = SpectralDensity.fbm(0.65)
    misses = _r_cached.cache_info().misses
    assert r_function(dens, 0.8125) == r_function(dens, -0.8125)
    assert _r_cached.cache_info().misses == misses + 1


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
