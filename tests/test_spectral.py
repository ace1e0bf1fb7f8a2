import dataclasses
import gc
import hashlib
import math
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy import integrate as si
from scipy import special as ssp

from freenoise import acceptance, spectral
from freenoise.errors import DivergenceError, QuadratureError, ValidationError
from freenoise.hermite import ZERO_PAST, hermite_fn_matrix
from freenoise.quadrature import _composite_rule, gl_rule
from freenoise.spectral import (
    _HALF_LINE_PREF,
    SpectralDensity,
    _osc_scale,
    _r_cached,
    _tm_and_alpha,
    alpha_vector,
    build_density,
    certify_tail,
    density_settings,
    dual_route_kernel,
    fit_growth,
    frequency_cutoff,
    kernel,
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
        SpectralDensity("custom", origin_exponent=2.0)
    with pytest.raises(ValidationError):
        SpectralDensity.exponential(rate=0.0)
    with pytest.raises(ValidationError):
        SpectralDensity("custom", class_index=-1)
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
    SpectralDensity("custom", origin_exponent=0.5, class_index=1),
    dataclasses.replace(SpectralDensity("custom", origin_exponent=0.5, class_index=1),
                        cutoff_low=_EDGES[0], cutoff_high=_EDGES[1]),
    dataclasses.replace(SpectralDensity.fbm(0.75), cutoff_low=_EDGES[0],
                        cutoff_high=_EDGES[1]),
]


def _density_id(dens):
    return f"{dens.label()}[{dens.cutoff_low:g},{dens.cutoff_high:g}]"


@pytest.mark.parametrize("dens", _DENSITIES, ids=_density_id)
def test_scalar_evaluator_matches_the_vector_one(dens):
    # over_square, the law that r's tail evaluates off the real axis, is
    # m(u) / u^2 on it inside the window, where that is a normal float; it
    # is real there, and its values at conjugate points are conjugate
    grid = np.array([u for u in _AT_GRID if dens.cutoff_low <= u <= dens.cutoff_high
                     and u > 0.0])
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        want = dens(grid) / grid ** 2
    with np.errstate(over="ignore", invalid="ignore"):
        got = dens.over_square(grid)
    normal = np.isfinite(want) & (want > 1e-300)
    assert np.all(got.imag[normal] == 0.0)
    assert np.allclose(got.real[normal], want[normal], rtol=1e-12, atol=0.0)
    z = np.array([1.0 + 0.5j, 0.2 + 3.0j, 40.0 + 1e3j])
    assert np.array_equal(dens.over_square(z.conj()), dens.over_square(z).conj())
    # the principal branches of u^power and (1 + u^2)^bracket
    direct = dens.scale * z ** (dens._power - 2.0) * (1.0 + z * z) ** dens._bracket \
        * np.exp(dens.rate * z)
    assert np.allclose(dens.over_square(z), direct, rtol=1e-12, atol=0.0)
    # the root is the law with every exponent halved, bit for bit, and
    # sqrt(m) to 4 ulp wherever that is a normal float
    grid = np.array(_AT_GRID)
    u = np.abs(grid)
    with np.errstate(divide="ignore", over="ignore"):
        want = math.sqrt(dens.scale) * u ** (0.5 * dens._power) \
            * (1.0 + u * u) ** (0.5 * dens._bracket)
        if dens.rate:
            want = want * np.exp(0.5 * dens.rate * u)
        rooted = np.sqrt(dens(grid))
    want = np.where((u >= dens.cutoff_low) & (u <= dens.cutoff_high), want, 0.0)
    assert np.array_equal(dens.root(grid), want)
    normal = np.isfinite(rooted) & (rooted >= sys.float_info.min)
    assert normal.sum() >= 10
    assert np.all(np.abs(want[normal] - rooted[normal]) <= 4.0 * np.spacing(rooted[normal]))


# tm_values(dens, 1.0, 8) and r_function(dens, 1.5) as float.hex, taken
# from the per-kind evaluators before they became one formula; None
# marks a covariance that diverges.  The multiplier pass is a BLAS
# product, so a different BLAS build may move a last bit of tm.  The r
# values were re-recorded when r moved from QUADPACK to the package's
# Gauss-Legendre rules: each is now within 1 ulp of its closed form
# (lebesgue, fbm) or of the QUADPACK oracle of the window (test below),
# where the QUADPACK values had missed the closed forms by 4.6e-13 to
# 1.2e-12.  The tm values were re-recorded when the pass moved onto r's
# rule family, which takes the power of sqrt(m) at 0 by substitution and
# cuts every panel to 6 / osc: each moved by at most 4.5e-15 of itself
# (1.8e-15 absolute), the flat row is still the Hermite functions to
# 3.3e-16, and the windowed rows still agree with _windowed_reference to
# 2.0e-16 of the largest entry.
_FROZEN = {
    "lebesgue[0,inf]": (
        ["0x1.d283bd5be9db6p-2", "0x1.49e02a22b61c3p-1", "0x1.49e02a22b61c1p-2",
         "-0x1.0d57a33d5d999p-2", "-0x1.dc226d2886984p-2", "-0x1.e1d0706d25113p-5",
         "0x1.8fe09bd12e49ep-2", "0x1.0d80ab07dd9a7p-2"],
        "0x1.8000000000000p-1"),
    "fbm(H=0.3)[0,inf]": (
        ["0x1.72e47ec4f8e83p-2", "0x1.576731f6b4e51p-1", "0x1.3fa42cf432185p-2",
         "-0x1.59b0fae4afd58p-2", "-0x1.355de92da2c8ep-1", "-0x1.47fe8027ec269p-4",
         "0x1.eb7b63acd69d1p-2", "0x1.57c887e0424a1p-2"],
        "0x1.c3af329bcf301p-1"),
    "fbm(H=0.75)[0,inf]": (
        ["0x1.499725c057184p-1", "0x1.3da2e26b7898ep-1", "0x1.923787abf8f7cp-2",
         "-0x1.6bb01bf5657b8p-3", "-0x1.1c4dad7e73143p-2", "-0x1.fd424862a2cb3p-6",
         "0x1.63dd74fd31c08p-2", "0x1.9bd48b9489b7dp-3"],
        "0x1.f454378577499p-1"),
    "exponential(rate=1)[0,inf]": (
        ["0x1.0ef213d49d8bbp-1", "0x1.4951ee010b88cp+0", "0x1.adc002494f54ap-1",
         "-0x1.d03f73320f536p-1", "-0x1.f3d94f851494dp+0", "-0x1.50a7e4756a36ep-2",
         "0x1.17c1739118f92p+1", "0x1.bdd7adef3dd61p+0"],
        None),
    "custom[0,inf]": (
        ["0x1.617a617214af6p-1", "0x1.298596d963bddp+0", "0x1.8c7e0c213533ep-1",
         "-0x1.78e274bb25032p-1", "-0x1.5a39717b5e4afp+0", "-0x1.6146ce8c010adp-3",
         "0x1.7c155967f3bcep+0", "0x1.06ae632232956p+0"],
        None),
    # the windowed rows were re-recorded once the panels were laid over
    # the window: they agree with _windowed_reference to 3e-16 of the
    # largest entry, where the earlier values, from panels that straddled
    # the cutoffs, missed it by 4.1e-2 and 1.9e-2
    "custom[0.5,3]": (
        ["0x1.e20bdcd14b41dp-3", "0x1.1f5f5ea40b26fp+0", "0x1.932dea14f0cd1p-2",
         "-0x1.b068586b79b6bp-1", "-0x1.1689063af5c97p+0", "0x1.10fe271a3167fp-4",
         "0x1.6c4fb020e936cp-3", "0x1.1cf88b181db0ep-3"],
        "0x1.cf20d1ceec043p+0"),
    "fbm(H=0.75)[0.5,3]": (
        ["0x1.9ac268da23a4cp-3", "0x1.28d6ca992d26dp-1", "0x1.8e91df8e16ca6p-4",
         "-0x1.dfe1fafce8df5p-3", "-0x1.89df0e251fc48p-2", "-0x1.afed441a4744ap-6",
         "-0x1.88dbe874fba01p-5", "0x1.93440674ea5c7p-7"],
        "0x1.c6701377e3eabp-2"),
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
# (density, t) -> (tm, alpha), recorded on the pass's rule, that of r
# (the osc_scale of t = 0.5 uses B = 1, of t = 2.5 uses B = 4), with the
# rows contracted 64 at a time.  Re-recorded when the pass left its own
# graded panels for that rule: tm moved by at most 2.6e-14 and alpha by
# 6.0e-15 of the largest entry.
_FROZEN_N400 = {
    ("lebesgue", 0.5): (
        "5b37644a120414b15f8ef92e9cf8baa8caca76348e2d471679c8b9fcfe109d91",
        "884936a009e2c05bfad5361627850502dffdc00924a4c179cfe83477fa99e16c"),
    ("lebesgue", 2.5): (
        "7250dccb23066bb19a6f5883609ba0baaac5b8ca2b128df5255ebd8d9f66dc70",
        "5649eb7383494e4fe7463ea6c57754d787f56b4ceaddf0d804da12d1110b1cad"),
    ("fbm(H=0.3)", 0.5): (
        "942b769d6b725a43e4652f142988ba6a7e6ffe2cb0cb4d49d46847c2356ceaf9",
        "c0f9cbd4b5a5b097b30863279e13974fb4be98ad9166ad9eaf3ad18d5377cf99"),
    ("fbm(H=0.3)", 2.5): (
        "ccd05b083acf168d54de4185de5fe8609dc2821fcdb5e3edd91fba7efa4990be",
        "aea5844357d388a40bb066bc837edc64643d75c7e3613023ecc2ba6250778434"),
    ("fbm(H=0.75)", 0.5): (
        "d39cf6dd024cc4654e6066730a0136b465a00c1c5f38bbdd0f196602a939ee8c",
        "40a20a794b0a902e539562b64c764c169bedfa168a86c90fa35d4e86bacf4a99"),
    ("fbm(H=0.75)", 2.5): (
        "82e17c830245d3cb631aca25b78ee581ba86f1a0f6123e6dfcc54a8819b23643",
        "6b3a7baf0239bd0d45b3614be00051eafba9f20804a9a18e2f7b1e0ffa8bbc34"),
}


@pytest.mark.parametrize("dens", [SpectralDensity.lebesgue(), SpectralDensity.fbm(0.3),
                                  SpectralDensity.fbm(0.75)], ids=lambda d: d.label())
def test_skipping_underflowed_tail_spans_changes_no_bit(dens, monkeypatch):
    # the rule stops at ZERO_PAST; at n_max 400 the pass must give the
    # recorded bytes, and the same bytes when its rule runs on through
    # the span (ZERO_PAST, 80.6], where every row is +0.0
    def longer(start, stop, osc, power):
        nodes, weights = gl_rule(start, stop, osc, power)
        tail, tail_weights = gl_rule(stop, 80.6, osc)
        return np.concatenate([nodes, tail]), np.concatenate([weights, tail_weights])

    for t in (0.5, 2.5):
        tm, al = tm_values(dens, t, 400), alpha_vector(dens, t, 400)
        digests = tuple(hashlib.sha256(v.tobytes()).hexdigest() for v in (tm, al))
        assert digests == _FROZEN_N400[(dens.label(), t)]
        spectral._RECORD.clear()
        with monkeypatch.context() as m:
            m.setattr(spectral, "gl_rule", longer)
            full_tm, full_al = _tm_and_alpha.__wrapped__(dens, t, 400)
        spectral._RECORD.clear()
        assert (tm.tobytes(), al.tobytes()) == (full_tm.tobytes(), full_al.tobytes())


@pytest.mark.parametrize("t, bucket", [
    (0.0, 1.0), (0.5, 1.0), (1.0, 1.0), (1.0 + 2.0 ** -40, 2.0), (-2.0, 2.0),
    (2.0 + 2.0 ** -40, 4.0), (3.999, 4.0), (4.0, 4.0), (5e-324, 1.0), (1e300, 2.0 ** 997)])
def test_panel_layout_depends_on_t_only_through_its_power_of_two_bucket(t, bucket):
    assert bucket >= abs(t)
    assert _osc_scale(64, t) == 2.0 * 8.0 + bucket + 1.0


def _count_hermite_calls(monkeypatch):
    calls = []
    real = spectral.hermite_fn_blocks
    monkeypatch.setattr(spectral, "hermite_fn_blocks",
                        lambda n, u, block: calls.append(len(u)) or real(n, u, block))
    spectral._RECORD.clear()
    spectral._require_resolved_edge.cache_clear()
    return calls


def test_times_of_one_bucket_share_their_hermite_rows(monkeypatch):
    # the 64 tags of a dyadic integral over [a, a + 1), a < 0.1, fall in
    # two buckets of one layout each: 2 Hermite matrices, not 64
    leb = SpectralDensity.lebesgue()
    times = 0.0371 + np.arange(64) / 64.0
    calls = _count_hermite_calls(monkeypatch)
    shared = [_tm_and_alpha.__wrapped__(leb, t, 64) for t in times]
    assert len(calls) == 2 and len(spectral._RECORD) == 1
    # rows rebuilt on every pass give the same bits
    fresh = []
    for t in times:
        spectral._RECORD.clear()
        fresh.append(_tm_and_alpha.__wrapped__(leb, t, 64))
    assert len(calls) == 2 + 64
    for (tm, al), (tm0, al0) in zip(shared, fresh):
        assert (tm.tobytes(), al.tobytes()) == (tm0.tobytes(), al0.tobytes())


@pytest.mark.parametrize("dens", [SpectralDensity.lebesgue(), SpectralDensity.fbm(0.3),
                                  SpectralDensity.fbm(0.75), SpectralDensity.exponential(2.0)],
                         ids=lambda d: d.label())
def test_row_blocks_agree_with_the_whole_row_matrix(dens, monkeypatch):
    # at n_max 400 the rows are contracted 64 at a time; one block of all
    # 400 rows is the whole matrix, which only reorders the rounding
    for t in (0.3, 0.7, 1.0, 2.5, 7.0):
        blocked = _tm_and_alpha.__wrapped__(dens, t, 400)
        with monkeypatch.context() as m:
            m.setattr(spectral, "_BLOCK_ROWS", 400)
            whole = _tm_and_alpha.__wrapped__(dens, t, 400)
        for have, want in zip(blocked, whole):
            assert np.max(np.abs(have - want)) <= 1e-14 * np.max(np.abs(want))


def _kept(dens, t, n_max):
    """The record a pass at (dens, t, n_max) keeps: the one record, keyed
    by the density, n_max and the rule, which reads t through osc_scale."""
    (key, record), = spectral._RECORD.items()
    assert key == (dens, n_max, (0.0, ZERO_PAST, _osc_scale(n_max, t), 0.5 * dens._power))
    return record


def test_only_the_latest_layout_is_kept_and_only_under_4_mib(monkeypatch):
    leb = SpectralDensity.lebesgue()
    _count_hermite_calls(monkeypatch)
    _tm_and_alpha.__wrapped__(leb, 0.5, 64)
    first = weakref.ref(_kept(leb, 0.5, 64)[3])
    _tm_and_alpha.__wrapped__(leb, 1.5, 64)
    gc.collect()
    assert first() is None
    nodes, weights, root, rows = _kept(leb, 1.5, 64)
    assert nodes.shape == weights.shape == root.shape
    assert rows.shape == (64, root.size)
    assert rows.nbytes <= spectral._KEEP_BYTES == 4 << 20
    # kept read-only: a caller cannot change a later pass
    assert not any(a.flags.writeable for a in (nodes, weights, root, rows))
    # at n_max 400 the rows alone are about 14 MB: only the root is kept
    _tm_and_alpha.__wrapped__(leb, 0.5, 400)
    nodes, weights, root, rows = _kept(leb, 0.5, 400)
    assert rows is None and not root.flags.writeable


def test_the_kept_record_is_keyed_by_the_density(monkeypatch):
    # lebesgue and fbm(0.3) passes alternate on one oscillation scale, so
    # each pass misses the record of the other; every pass has the bits of
    # a pass from an empty record
    leb, rough = SpectralDensity.lebesgue(), SpectralDensity.fbm(0.3)
    passes = [(dens, t) for t in (0.3, 0.5, 0.7, 0.9) for dens in (leb, rough)]
    calls = _count_hermite_calls(monkeypatch)
    warm = [_tm_and_alpha.__wrapped__(dens, t, 64) for dens, t in passes]
    assert len(calls) == len(passes)
    for (dens, t), (tm, al) in zip(passes, warm):
        spectral._RECORD.clear()
        tm0, al0 = _tm_and_alpha.__wrapped__(dens, t, 64)
        assert (tm.tobytes(), al.tobytes()) == (tm0.tobytes(), al0.tobytes())


def _folded_reference(rate, t, n_max, stop=60.0):
    """tm and alpha of exponential(rate) from Hermite rows seeded with
    e^{-u^2/2 + rate u/2}, which stay exact well past ZERO_PAST, on the
    pass's rule run on to stop."""
    nodes, weights = gl_rule(0.0, stop, _osc_scale(n_max, t))
    rows = np.empty((n_max, nodes.size))
    rows[0] = math.pi ** -0.25 * np.exp(nodes * (0.5 * rate - 0.5 * nodes))
    rows[1] = math.sqrt(2.0) * nodes * rows[0]
    for j in range(2, n_max):
        rows[j] = math.sqrt(2.0 / j) * nodes * rows[j - 1] - math.sqrt((j - 1) / j) * rows[j - 2]
    half = np.sin(0.5 * t * nodes)
    factors = np.stack([np.cos(t * nodes), np.sin(t * nodes),
                        np.sin(t * nodes) / nodes, 2.0 * half * half / nodes])
    ints = _HALF_LINE_PREF * (factors * weights) @ rows.T
    sign = np.array([1.0, 1.0, -1.0, -1.0])[np.arange(n_max) % 4]
    odd = np.arange(n_max) % 2 == 1
    return sign * np.where(odd, ints[1], ints[0]), sign * np.where(odd, ints[3], ints[2])


@pytest.mark.parametrize("n_max, resolved, refused, overflows", [
    (16, (20.0, 30.0, 36.0), (), (37.0, 40.0)),
    (64, (20.0, 30.0, 36.0), (), (37.0, 40.0)),
    (400, (20.0, 30.0, 31.4), (31.5, 36.0, 37.0), (40.0,)),
    (512, (10.0, 18.0, 18.4), (18.6, 30.0, 36.0, 37.0), (40.0,))],
    ids=["16", "64", "400", "512"])
def test_exponential_pass_is_refused_where_its_rows_are_inexact(n_max, resolved, refused,
                                                                overflows):
    # sqrt(m) = e^{rate u / 2} overflows on the layout (0, 38.61] when
    # rate > 2 x 709.78 / 38.61 = 36.77, whatever n_max
    for rate in overflows:
        with pytest.raises(QuadratureError, match="not finite"):
            _tm_and_alpha.__wrapped__(SpectralDensity.exponential(rate), 1.0, n_max)
    # from n_max ~340 on the integrand at 37.6, past which the rows lose
    # bits, passes 1e-11 of its peak at a lower rate: 31.4 at n_max 400
    # and 18.5 at 512
    for rate in refused:
        with pytest.raises(QuadratureError, match="the Hermite rows lose bits"):
            _tm_and_alpha.__wrapped__(SpectralDensity.exponential(rate), 1.0, n_max)
    # a pass it accepts agrees with rows that are exact past ZERO_PAST
    for rate in resolved:
        for t in (0.5, 1.0, 2.5):
            got = _tm_and_alpha.__wrapped__(SpectralDensity.exponential(rate), t, n_max)
            for have, want in zip(got, _folded_reference(rate, t, n_max)):
                assert np.max(np.abs(have - want)) <= 1e-11 * np.max(np.abs(want))


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
    c = SpectralDensity("custom", origin_exponent=0.5, class_index=1)
    assert np.allclose(c(u), u ** -0.5 * (1.0 + u * u) ** 1.25)
    windowed = SpectralDensity(kind="lebesgue", cutoff_low=0.8, cutoff_high=2.0)
    assert np.allclose(windowed(u), [0.0, 1.0, 0.0])


def test_parse_density_config_round_trip():
    dens = build_density(**density_settings("""
        # covariance weight
        kind = fbm
        H = 0.3
        C1 = 2.0
    """))
    assert dens.kind == "fbm"
    assert dens.hurst == pytest.approx(0.3)
    assert dens.scale == pytest.approx(2.0)
    assert dens.class_index == 1

    custom = build_density(**density_settings(
        "kind = custom\nb = 0.5\nN = 2\ncutoffs = 0.1, 40"))
    assert custom.origin_exponent == pytest.approx(0.5)
    assert custom.class_index == 2
    assert custom.cutoff_low == pytest.approx(0.1)
    assert custom.cutoff_high == pytest.approx(40.0)
    # the CLI's kind names, exp among them
    assert build_density(**density_settings("kind = exp\nC2 = 2.5")) \
        == SpectralDensity.exponential(2.5)


def test_parse_density_config_errors():
    with pytest.raises(ValidationError):
        build_density(**density_settings("H = 0.5"))
    with pytest.raises(ValidationError):
        build_density(**density_settings("kind = fbm\nH = abc"))
    with pytest.raises(ValidationError):
        build_density(**density_settings("kind = lebesgue\nwhat = 1"))
    with pytest.raises(ValidationError):
        build_density(**density_settings("kind = lebesgue\ncutoffs = 1"))
    with pytest.raises(ValidationError):
        build_density(**density_settings("kind = weird"))
    with pytest.raises(ValidationError):
        build_density(**density_settings("no equals sign here"))
    # the config follows the flags' rules: N is an integer, fbm needs H
    with pytest.raises(ValidationError, match="N"):
        build_density(**density_settings("kind = custom\nN = 0.9"))
    with pytest.raises(ValidationError, match="needs --H"):
        build_density(**density_settings("kind = fbm"))


def test_config_keys_are_the_keys_of_the_settings_table():
    # every config key of the table reaches its setting, with its
    # conversion; cutoffs is the pair of the two cutoff keys
    for name, row in spectral.DENSITY_SETTINGS.items():
        settings = density_settings(f"kind = lebesgue\n{row.key} = 1")
        assert settings[name] == row.convert("1")
    assert density_settings("kind = lebesgue\ncutoffs = 1, 2") == {
        "cutoff_low": 1.0, "cutoff_high": 2.0, "density": "lebesgue"}
    for key in ("hurst", "scale", "rate", "origin_exponent", "density"):
        with pytest.raises(ValidationError, match="unknown config keys"):
            density_settings(f"kind = lebesgue\n{key} = 1")


def test_build_density_takes_none_for_a_setting_not_given():
    assert build_density(density="lebesgue", H=None, rate=None, class_index=None) \
        == SpectralDensity.lebesgue()
    assert build_density(density="exp", H=None) == SpectralDensity.exponential(1.0)
    rough = build_density(density="fbm", H=0.25, origin_exponent=None)
    assert rough == SpectralDensity.fbm(0.25) and rough.class_index == 1
    # the class still holds fbm's derived b and N, so replace keeps working
    assert dataclasses.replace(rough, hurst=0.75) == SpectralDensity.fbm(0.75)
    with pytest.raises(ValidationError, match="unknown density settings"):
        build_density(hurst=0.3)


def test_lebesgue_multiplier_is_identity():
    # with unit weight the multiplier reproduces the Hermite function
    leb = SpectralDensity.lebesgue()
    for t in (0.0, 0.3, 1.1, 2.7):
        got = tm_values(leb, t, 8)
        expected = hermite_fn_matrix(8, t)[:, 0]
        assert np.allclose(got, expected, atol=1e-12)


def test_alpha_lebesgue_matches_quadrature():
    leb = SpectralDensity.lebesgue()
    got = alpha_vector(leb, 0.9, 5)
    for n in (1, 2, 5):
        expected, _ = si.quad(lambda s: hermite_fn_matrix(n, s)[n - 1, 0], 0.0, 0.9)
        assert got[n - 1] == pytest.approx(expected, abs=1e-10)
    assert np.all(alpha_vector(leb, 0.0, 6) == 0.0)


# with the edges of the power-of-two buckets that fix the panel layout
_FLAT_TIMES = (0.3, 1.0, 2.5, 7.0, 12.0, 1.0 + 2.0 ** -40, 2.0, 2.0 + 2.0 ** -40, 4.0)


@pytest.mark.parametrize("t", _FLAT_TIMES)
def test_flat_multiplier_is_the_hermite_function_to_n_400(t):
    leb = SpectralDensity.lebesgue()
    expected = hermite_fn_matrix(400, [t])[:, 0]
    assert np.max(np.abs(tm_values(leb, t, 400) - expected)) <= 5e-14


@pytest.mark.parametrize("t", _FLAT_TIMES)
def test_flat_multiplier_is_the_hermite_function_at_the_n_max_bound(t):
    # 512 is the largest n_max that a multiplier pass accepts
    leb = SpectralDensity.lebesgue()
    expected = hermite_fn_matrix(512, [t])[:, 0]
    assert np.max(np.abs(tm_values(leb, t, 512) - expected)) <= 5e-14
    with pytest.raises(ValidationError, match="above 512"):
        tm_values(leb, t, 513)


@pytest.mark.parametrize("n_max, message", [(0, "n_max must be >= 1"), (-3, "n_max must be >= 1"),
                                            (513, "n_max 513 is above 512")])
def test_coefficient_vectors_refuse_an_index_out_of_range(n_max, message):
    # hermite.check_index_bound is the one owner of the range; alpha_vector
    # asks it before its t = 0 branch, which builds no pass
    leb = SpectralDensity.lebesgue()
    for t in (0.0, 1.0):
        for vector in (tm_values, alpha_vector):
            with pytest.raises(ValidationError, match=message):
                vector(leb, t, n_max)
    with pytest.raises(ValidationError, match=message):
        spectral.tm_sup_over_t(leb, n_max, [0.0, 1.0])


@pytest.mark.parametrize("t", [30.0, 100.0, 1000.0])
def test_flat_multiplier_at_a_large_time_is_the_hermite_function(t):
    # no panel of the rule spans more than 6 radians of cos(t u): graded
    # panels up to [1/2, 1] spanned t / 2 of them, and tm_1 read -1.2e-3 at
    # t = 100, where h_1 is 0.  Past u = 12 every h_n, n <= 16, is below
    # 1e-22, so alpha is the integral of h_n over [0, 12]
    leb = SpectralDensity.lebesgue()
    tm, al = _tm_and_alpha.__wrapped__(leb, t, 16)
    assert np.max(np.abs(tm - hermite_fn_matrix(16, [t])[:, 0])) <= 5e-14
    x, w = np.polynomial.legendre.leggauss(200)
    expected = hermite_fn_matrix(16, 6.0 * (x + 1.0)) @ (6.0 * w)
    assert np.max(np.abs(al - expected)) <= 1e-12


def _first_row_reference(b, t):
    """tm_1 and alpha_1 of custom(b) at t by mpmath at 30 digits: below
    u = 1 in u = v^k, k = 1 / (1 - b / 2), which takes u^(-b/2) of sqrt(m)
    into the smooth k g(v^k), and the smooth rest above u = 1 as it is."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        b, t = mpmath.mpf(b), mpmath.mpf(t)
        k = 1 / (1 - b / 2)
        pref = 2 / mpmath.sqrt(2 * mpmath.pi) * mpmath.pi ** mpmath.mpf(-0.25)
        out = []
        for factor in (lambda u: mpmath.cos(t * u), lambda u: mpmath.sin(t * u) / u):
            def g(u, factor=factor):  # sqrt(m) h_1 times the factor, over u^(-b/2)
                return (1 + u * u) ** (b / 4) * mpmath.exp(-u * u / 2) * factor(u)

            head = mpmath.quad(lambda v: k * g(v ** k), [0, 1])
            tail = mpmath.quad(lambda u: u ** (-b / 2) * g(u), [1, 4, 10, 40])
            out.append(float(pref * (head + tail)))
    return out


@pytest.mark.parametrize("b", [0.5, 1.0, 1.5, 1.8, 1.9, 1.99])
def test_origin_power_is_taken_by_substitution(b):
    # sqrt(m) ~ u^(-b/2) at 0: graded panels down to 2^-60 missed tm_1 by
    # 9.0e-2 at b = 1.9 and 0.79 at b = 1.99, and sqrt(m) itself overflowed
    # at the rule's node floor 2^-1000 from b = 1.8 on
    dens = SpectralDensity("custom", origin_exponent=b)
    tm, al = _tm_and_alpha.__wrapped__(dens, 1.0, 4)
    want_tm, want_al = _first_row_reference(b, 1.0)
    assert abs(tm[0] - want_tm) <= 1e-12 * abs(want_tm)
    assert abs(al[0] - want_al) <= 1e-12 * abs(want_al)


def test_layout_above_the_budget_is_rejected_before_it_is_built(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the layout was built")

    monkeypatch.setattr(spectral, "gl_rule", refuse)
    monkeypatch.setattr(spectral, "gl_integrate", refuse)
    leb = SpectralDensity.lebesgue()
    for t, n_max in [(1e6, 4), (1e18, 16), (-1e300, 512), (1.7e308, 1)]:
        with pytest.raises(ValidationError, match="above the bound of 256 MiB"):
            _tm_and_alpha.__wrapped__(leb, t, n_max)


def test_largest_tier_one_layout_is_within_the_budget():
    # lebesgue at t = 12 and n_max 512: 401 panels, 26 MiB counted
    nodes, _ = gl_rule(0.0, ZERO_PAST, _osc_scale(512, 12.0))
    assert len(nodes) == 401 * 16
    assert len(nodes) * (512 + spectral._PASS_ARRAYS) * 8 <= 256 << 20


def _traced_pass_peak(dens, t, n_max):
    """Peak traced bytes of one pass from an empty record, after the edge
    check of (dens, n_max) has run, and its node count."""
    _tm_and_alpha.__wrapped__(dens, 0.25, n_max)
    spectral._RECORD.clear()
    tracemalloc.start()
    try:
        _tm_and_alpha.__wrapped__(dens, t, n_max)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    (record,) = spectral._RECORD.values()
    return peak, record[0].size


@pytest.mark.parametrize("n_max, bucket", [(4, 2.0 ** 14), (512, 2.0 ** 9)])
def test_largest_accepted_pass_peaks_within_the_budget(n_max, bucket):
    # the largest bucket a pass accepts at n_max: every array it holds
    # counts toward the 256 MiB.  The 4 rows of n_max 4 are one block,
    # held whole; at n_max 512 a pass holds one block of 64 rows, two
    # carry rows and the node-length arrays
    leb = SpectralDensity.lebesgue()
    with pytest.raises(ValidationError, match="above the bound of 256 MiB"):
        _tm_and_alpha.__wrapped__(leb, 2.0 * bucket, n_max)
    peak, nodes = _traced_pass_peak(leb, bucket, n_max)
    if n_max <= spectral._BLOCK_ROWS:
        assert 128 << 20 < peak <= 256 << 20
    else:
        assert peak <= (spectral._BLOCK_ROWS + 2 + spectral._PASS_ARRAYS) * nodes * 8


def test_a_new_record_drops_the_old_one_before_it_is_built():
    # flat density at n_max 64 over times that cross t = 1, from the B = 1
    # record into the B = 2 one: the first is gone before the second is
    # built, so the sequence peaks where one pass from an empty record does
    # (holding both read 1.83 -> 3.08 MiB in one process)
    leb = SpectralDensity.lebesgue()

    def peak(times):
        spectral._RECORD.clear()
        tracemalloc.start()
        try:
            for t in times:
                _tm_and_alpha.__wrapped__(leb, t, 64)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    _tm_and_alpha.__wrapped__(leb, 1.5, 64)  # the edge check, outside the trace
    alone = peak([1.5])
    assert peak([0.25, 0.5, 0.75, 1.0, 1.25, 1.5]) <= 1.2 * alone


def test_pass_above_the_kept_rows_holds_one_block():
    # lebesgue at t = 0.5 and n_max 400: 4,336 nodes, so the whole row
    # matrix is 13.9 MB; a pass holds one 64-row block, two carry rows
    # and the node-length arrays, 2.8 MB
    peak, nodes = _traced_pass_peak(SpectralDensity.lebesgue(), 0.5, 400)
    assert nodes == 4336
    assert peak <= (spectral._BLOCK_ROWS + 2 + spectral._PASS_ARRAYS) * nodes * 8


@pytest.mark.parametrize("t", _FLAT_TIMES)
def test_flat_alpha_is_the_integral_of_the_hermite_function_to_n_400(t):
    x, w = np.polynomial.legendre.leggauss(200)
    nodes = 0.5 * t * (x + 1.0)
    expected = hermite_fn_matrix(400, nodes) @ (0.5 * t * w)
    leb = SpectralDensity.lebesgue()
    assert np.max(np.abs(alpha_vector(leb, t, 400) - expected)) <= 1e-12


def _stacked_reference(dens, t, n_max):
    """tm and alpha with every integrand product formed, then contracted.

    The pass's rule up to its own stop, past which
    spans of doubling length are added until one contributes less than
    1e-11 of the total; the four (n_max x nodes) integrands are built
    and stacked before the weighted sum over the nodes.
    """
    def integrand(nodes):
        base = hermite_fn_matrix(n_max, nodes) * np.sqrt(dens(nodes))
        half = np.sin(0.5 * t * nodes)
        factors = (np.cos(t * nodes), np.sin(t * nodes),
                   np.sin(t * nodes) / nodes, 2.0 * half * half / nodes)
        return np.stack([base * g for g in factors])

    osc, stop = _osc_scale(n_max, t), max(30.0, math.sqrt(2.0 * n_max + 1.0) + 12.0)
    nodes, weights = gl_rule(0.0, stop, osc, 0.5 * dens._power)
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


def _windowed_reference(dens, t, n_max):
    """tm and alpha of a windowed density by adaptive QUADPACK.

    scipy's quad_vec integrates the four factors times the Hermite rows
    over the window [cutoff_low, min(cutoff_high, ZERO_PAST)] with
    its own Gauss-Kronrod subdivision, independent of the panel layout.
    """
    def integrand(u):
        half = math.sin(0.5 * t * u)
        factors = np.array([math.cos(t * u), math.sin(t * u), math.sin(t * u) / u,
                            2.0 * half * half / u])
        return np.outer(factors, hermite_fn_matrix(n_max, u)[:, 0]) * math.sqrt(float(dens(u)))

    stop = min(dens.cutoff_high, ZERO_PAST)
    total = si.quad_vec(integrand, dens.cutoff_low, stop, epsabs=1e-15, epsrel=1e-15,
                        norm="max", limit=2000)[0]
    cos_i, sin_i, s_i, k_i = _HALF_LINE_PREF * total
    sign = np.array([1.0, 1.0, -1.0, -1.0])[np.arange(n_max) % 4]
    even = np.arange(n_max) % 2 == 0
    return (sign * np.where(even, cos_i, sin_i), sign * np.where(even, s_i, k_i))


@pytest.mark.parametrize("dens", [
    # low = 0, high below 1 and below ZERO_PAST
    SpectralDensity("lebesgue", cutoff_high=0.7),
    SpectralDensity("lebesgue", cutoff_high=5.3),
    # 0 < low < 1, with the edges of the frozen rows
    SpectralDensity("custom", cutoff_low=0.3, cutoff_high=5.3),
    SpectralDensity("custom", origin_exponent=0.5, class_index=1, cutoff_low=0.5,
                    cutoff_high=3.0),
    SpectralDensity("fbm", hurst=0.75, cutoff_low=0.5, cutoff_high=3.0),
    # low > 1, high above ZERO_PAST
    SpectralDensity("fbm", hurst=0.75, cutoff_low=1.5, cutoff_high=50.0),
    SpectralDensity("exponential", rate=1.0, cutoff_low=2.5, cutoff_high=45.0),
], ids=_density_id)
def test_windowed_multiplier_matches_quadpack(dens):
    # a cutoff inside a GL-16 panel is a jump the rule does not resolve:
    # laid over (0, ZERO_PAST] whatever the window, the panels missed
    # this reference by 1e-4 to 1e-2 of the largest entry
    for t in (1.0, 3.0):
        tm, al = _tm_and_alpha.__wrapped__(dens, t, 16)
        ref_tm, ref_al = _windowed_reference(dens, t, 16)
        assert np.max(np.abs(tm - ref_tm)) <= 1e-13 * np.max(np.abs(ref_tm))
        assert np.max(np.abs(al - ref_al)) <= 1e-13 * np.max(np.abs(ref_al))


@pytest.mark.parametrize("low, high", [(0.0, 5.3), (0.3, 5.3), (0.5, 3.0), (1.5, 50.0),
                                       (2.5, 45.0)])
def test_windowed_flat_r_is_the_sine_integral_form(low, high):
    # r(t) = (1/pi) [t (Si(t high) - Si(t low)) - (1 - cos t high) / high
    #                + (1 - cos t low) / low], the last term 0 at low = 0
    dens = SpectralDensity("lebesgue", cutoff_low=low, cutoff_high=high)
    for t in (5e-324, 1e-300, 1e-6, 0.3, 1.0, 4.0, 12.0, 100.0):
        si_high, si_low = ssp.sici(t * high)[0], ssp.sici(t * low)[0]
        at_low = (1.0 - math.cos(t * low)) / low if low else 0.0
        want = (t * (si_high - si_low) - (1.0 - math.cos(t * high)) / high + at_low) / math.pi
        assert abs(r_function(dens, t) - want) <= 1e-10


def test_alpha_prime_is_the_multiplier():
    f = SpectralDensity.fbm(0.6)
    h = 1e-4
    for t in (0.5, 1.2):
        diff = (alpha_vector(f, t + h, 3) - alpha_vector(f, t - h, 3)) / (2.0 * h)
        assert tm_values(f, t, 3) == pytest.approx(diff, abs=1e-7)


def _probabilists_hermite(k):
    # integer coefficients of He_k, lowest power first, by
    # He_{m+1} = x He_m - m He_{m-1}
    prev, cur = [0], [1]
    for m in range(k):
        nxt = [0] + cur
        for j, c in enumerate(prev):
            nxt[j] -= m * c
        prev, cur = cur, nxt
    return cur


def _fbm_closed_form(mp, n, hurst, t):
    """tm_n(t) and alpha_n(t) of fbm(H) from the monomials of hfn_n.

    sqrt(m) hfn_n = e^{-u^2/2} sum_j c_j u^{s_j - 1} with s_j = j + 3/2 - H,
    and each term integrates in closed form (Gradshteyn-Ryzhik 3.952):
    int_0^inf u^{s-1} e^{-u^2/2} cos(ut) du = 2^{s/2-1} G(s/2) 1F1(s/2; 1/2; -t^2/2)
    and the sine with 1F1((s+1)/2; 3/2; .).  alpha_n = int_0^t tm_n takes
    sin(ut)/u for cos(ut) and (1 - cos(ut))/u for sin(ut), the same
    integrals at s - 1.
    """
    t = mp.mpf(t)

    def cos_int(s, t):
        return 2 ** (s / 2 - 1) * mp.gamma(s / 2) * mp.hyp1f1(s / 2, 0.5, -t * t / 2)

    def sin_int(s, t):
        return t * 2 ** ((s - 1) / 2) * mp.gamma((s + 1) / 2) \
            * mp.hyp1f1((s + 1) / 2, 1.5, -t * t / 2)

    tm = alpha = mp.mpf(0)
    for j, c in enumerate(_probabilists_hermite(n - 1)):
        if c:
            s = j + mp.mpf(1.5) - mp.mpf(hurst)
            coef = c * mp.sqrt(2) ** j
            if n % 2:
                tm += coef * cos_int(s, t)
                alpha += coef * sin_int(s - 1, t)
            else:
                tm += coef * sin_int(s, t)
                alpha += coef * (cos_int(s - 1, 0) - cos_int(s - 1, t))
    # the half-line prefactor, the norm of hfn_n and the phase (-i)^{n-1}
    pref = 2 / mp.sqrt(2 * mp.pi) * mp.pi ** mp.mpf(-0.25) / mp.sqrt(mp.factorial(n - 1)) \
        * (1 if (n - 1) % 4 < 2 else -1)
    return float(pref * tm), float(pref * alpha)


@pytest.mark.parametrize("hurst", [0.3, 0.75])
def test_fbm_multiplier_matches_its_closed_form(hurst):
    mpmath = pytest.importorskip("mpmath")
    orders = (1, 2, 3, 7, 16, 33, 64)
    dens = SpectralDensity.fbm(hurst)
    with mpmath.workdps(40):
        for t in (0.5, 1.0, 2.5):
            tm, alpha = tm_values(dens, t, 64), alpha_vector(dens, t, 64)
            for n in orders:
                want_tm, want_alpha = _fbm_closed_form(mpmath.mp, n, hurst, t)
                assert abs(tm[n - 1] - want_tm) <= 1e-13
                assert abs(alpha[n - 1] - want_alpha) <= 1e-12


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


def _closed_form_r(hurst, t):
    """r(t) = |t|^{2H} / (2 Gamma(2H + 1) sin(pi H)); |t| / 2 for H = 1/2."""
    return abs(t) ** (2.0 * hurst) / (2.0 * math.gamma(2.0 * hurst + 1.0)
                                      * math.sin(math.pi * hurst))


def _r_or_refused(dens, t, abs_tol=1e-9):
    """r(t), or None where the program exits 3."""
    try:
        return r_function(dens, t, abs_tol)
    except QuadratureError:
        return None


# r must be within 50 abs_tol of its reference or be refused, and may be
# refused only at the first two times
_ORACLE_TIMES = (1e-300, 5e-324, 1e-9, 1e-4, 0.3, 1.0, 12.0, 100.0)


@pytest.mark.parametrize("hurst", [0.5, 0.1, 0.3, 0.75, 0.9])
def test_r_matches_its_closed_form(hurst):
    dens = SpectralDensity.lebesgue() if hurst == 0.5 else SpectralDensity.fbm(hurst)
    for i, t in enumerate(_ORACLE_TIMES):
        got = _r_or_refused(dens, t)
        assert got is not None or i < 2, t
        assert got is None or abs(got - _closed_form_r(hurst, t)) <= 50e-9, t


@pytest.mark.parametrize("b", [0.5, 0.9, 0.99])
def test_custom_r_matches_quadpack_with_the_algebraic_weight(b):
    # m(u) = u^-b (1 + u^2)^{b/2}: the head against QUADPACK's weight u^-b
    # on (0, 1), the tail against its plain and Fourier rules on (1, inf)
    dens = SpectralDensity("custom", origin_exponent=b)

    def amp(u):
        return (1.0 + u * u) ** (0.5 * b) * u ** -b / (u * u)

    opts = dict(epsabs=1e-13, epsrel=1e-13, limit=400)
    mass = si.quad(amp, 1.0, math.inf, **opts)[0]
    for t in (0.3, 1.0, 3.0, 12.0):
        head = si.quad(lambda u: 2.0 * (math.sin(0.5 * t * u) / u if u else 0.5 * t) ** 2
                       * (1.0 + u * u) ** (0.5 * b), 0.0, 1.0, weight="alg",
                       wvar=(-b, 0.0), **opts)[0]
        wave = si.quad(amp, 1.0, math.inf, weight="cos", wvar=t, epsabs=1e-13, limlst=100)[0]
        got = _r_or_refused(dens, t)
        assert got is not None and abs(got - (head + mass - wave) / math.pi) <= 50e-9, t


@pytest.mark.parametrize("dens", [dataclasses.replace(d, cutoff_low=_EDGES[0],
                                                      cutoff_high=_EDGES[1])
                                  for d in (SpectralDensity.fbm(0.75), SpectralDensity(
                                      "custom", origin_exponent=0.5, class_index=1))],
                         ids=_density_id)
def test_windowed_r_matches_quadpack(dens):
    # the frozen r(1.5) of the windowed densities, by adaptive QUADPACK
    want = si.quad(lambda u: 2.0 * (math.sin(0.75 * u) / u) ** 2 * float(dens(u)),
                   *_EDGES, epsabs=1e-13, epsrel=1e-13, limit=400)[0] / math.pi
    assert abs(r_function(dens, 1.5) - want) <= 1e-15


# the times and densities of a scan that found r(5e-324) = 7.07e-17 for the
# windowed custom density, where r is of order t^2
_SCAN_TIMES = (5e-324, 1e-320, 1e-310, 1e-307, 1e-300, 1e-200, 1e-100, 1e-20, 1e-9,
               1e-4, 1.0, 12.0)
_SCAN_WINDOWED = SpectralDensity("custom", origin_exponent=0.5, cutoff_low=0.1,
                                 cutoff_high=40.0)


def _windowed_scan_reference(t):
    """r of the windowed custom density: t^2 / (2 pi) times the integral of
    m for t <= 1e-4, where the next term is below 1e-13, else QUADPACK."""
    dens = _SCAN_WINDOWED
    opts = dict(epsabs=1e-14, epsrel=1e-13, limit=1000)
    if t <= 1e-4:
        return t * t / (2.0 * math.pi) * si.quad(lambda u: float(dens(u)), 0.1, 40.0,
                                                 **opts)[0]
    return si.quad(lambda u: 2.0 * (math.sin(0.5 * t * u) / u) ** 2 * float(dens(u)),
                   0.1, 40.0, **opts)[0] / math.pi


@pytest.mark.parametrize("dens", [SpectralDensity.lebesgue(), SpectralDensity.fbm(0.3),
                                  SpectralDensity.fbm(0.75), _SCAN_WINDOWED],
                         ids=_density_id)
def test_r_at_tiny_and_ordinary_times_is_right_or_refused(dens):
    for t in _SCAN_TIMES:
        got = _r_or_refused(dens, t)
        if got is None:
            continue
        want = _windowed_scan_reference(t) if dens is _SCAN_WINDOWED \
            else _closed_form_r(dens.hurst or 0.5, t)
        assert abs(got - want) <= 50e-9, t
    # a bounded window is taken on the real axis, with no cancellation
    if dens is _SCAN_WINDOWED:
        assert r_function(dens, 5e-324) == 0.0


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


@pytest.mark.parametrize("kind, settings, unused", [
    ("lebesgue", {"origin_exponent": 1.5}, "origin_exponent"),
    ("lebesgue", {"class_index": 3}, "class_index"),
    ("lebesgue", {"hurst": 0.3}, "hurst"),
    ("lebesgue", {"rate": 1.0}, "rate"),
    ("exponential", {"rate": 1.0, "class_index": 4}, "class_index"),
    ("exponential", {"rate": 1.0, "origin_exponent": 0.5}, "origin_exponent"),
    ("exponential", {"rate": 1.0, "hurst": 0.5}, "hurst"),
    ("custom", {"hurst": 0.3}, "hurst"),
    ("fbm", {"hurst": 0.3, "rate": 1.0}, "rate"),
])
def test_a_kind_rejects_parameters_its_law_does_not_use(kind, settings, unused):
    # refused, not ignored: b and N would reclassify the density (its
    # process level, its divergence verdicts) without changing m
    with pytest.raises(ValidationError, match=f"kind {kind!r} has no {unused}"):
        SpectralDensity(kind, **settings)


def test_a_kind_accepts_unused_parameters_at_their_defaults():
    for kind, rate in (("lebesgue", 0.0), ("exponential", 1.0)):
        dens = SpectralDensity(kind, hurst=None, rate=rate, origin_exponent=0.0,
                               class_index=0)
        assert (dens.origin_exponent, dens.class_index) == (0.0, 0)


@pytest.mark.parametrize("make", [
    lambda: build_density(density="custom", class_index=0.9),
    lambda: build_density(density="custom", class_index=1.9),
    lambda: SpectralDensity(kind="custom", class_index=0.9),
    lambda: SpectralDensity(kind="custom", class_index=math.nan),
])
def test_a_class_index_that_is_not_an_integer_is_refused(make):
    # N is the integer of the growth bound |u|^{2N}: 0.9 was kept as a
    # tail exponent of 1.8, or floored to 0 by build_density
    with pytest.raises(ValidationError, match="class index must be an integer"):
        make()


def test_build_density_converts_text_and_passes_numbers_as_given():
    assert build_density(density="custom", class_index="2").class_index == 2
    whole = build_density(density="custom", class_index=2.0)
    assert whole == SpectralDensity("custom", class_index=2) and type(whole.class_index) is int
    assert build_density(density="exp", rate="2.5") == SpectralDensity.exponential(2.5)


def test_kernel_divergence_guards():
    with pytest.raises(DivergenceError):
        kernel(SpectralDensity.exponential(1.0), 1.0, 1.0)
    with pytest.raises(DivergenceError):
        r_function(SpectralDensity("custom", class_index=1), 1.0)
    with pytest.raises(DivergenceError):
        r_function(SpectralDensity("custom", origin_exponent=1.5), 1.0)


def test_frequency_cutoff_bounds_the_tail():
    dens = SpectralDensity.fbm(0.75)
    tol = 1e-8
    cut = frequency_cutoff(dens, tol)
    tail, _ = si.quad(lambda u: 4.0 * dens(u) / u ** 2, cut, np.inf)
    assert tail <= tol * 1.01
    capped = SpectralDensity(kind="lebesgue", cutoff_high=7.0)
    assert frequency_cutoff(capped) == 7.0


@pytest.mark.parametrize("dens", [SpectralDensity.fbm(0.001), SpectralDensity.lebesgue(1e300),
                                  SpectralDensity.lebesgue(1e308)],
                         ids=["fbm-0.001", "scale-1e300", "scale-1e308"])
def test_frequency_cutoff_past_the_float_range_is_inf(dens):
    # U = (tol (1 - a) / (4 scale))^(1 / (a - 1)) overflows for fbm(0.001)
    # and scale 1e300; at scale 1e308, 4 scale is already inf
    assert frequency_cutoff(dens) == math.inf


def test_fit_power_law_recovers_synthetic_exponent():
    n = np.arange(4, 80)
    fit = fit_growth("power", n, 3.0 * n ** -0.7)
    assert fit.kind == "power"
    assert fit.exponent == pytest.approx(-0.7, abs=1e-9)
    assert math.exp(fit.log_scale) == pytest.approx(3.0, rel=1e-9)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_sqrt_exponential_recovers_synthetic_rate():
    n = np.arange(4, 80)
    fit = fit_growth("sqrt-exponential", n, 2.0 * np.exp(-0.3 * np.sqrt(n)))
    assert fit.kind == "sqrt-exponential"
    assert fit.exponent == pytest.approx(-0.3, abs=1e-9)
    assert math.exp(fit.log_scale) == pytest.approx(2.0, rel=1e-9)


def test_fit_growth_refuses_an_unknown_law():
    with pytest.raises(ValidationError, match="unknown growth law 'linear'"):
        fit_growth("linear", [1.0, 2.0, 3.0], [1.0, 2.0, 3.0])


def test_flat_density_supremum_decays_at_the_plancherel_rotach_rate():
    # a companion to criterion 10a, which leaves that check as it is: the
    # flat density's sup over t of |tm_n(t)| decays like n^(-1/12), the
    # Plancherel-Rotach rate of the Hermite functions at the edge of
    # their oscillatory range (Szego, Orthogonal Polynomials, 8.22);
    # measured -0.092 over n = 12..60
    fit = spectral.sup_growth_fit(SpectralDensity.lebesgue(), 60, acceptance._SUP_GRID, 12)[1]
    assert abs(fit.exponent + 1.0 / 12.0) <= 0.03


def test_sup_growth_fit_picks_the_fit_of_the_growth_class():
    grid = np.linspace(0.0, 6.0, 13)
    for dens, kind in ((SpectralDensity.fbm(0.75), "power"),
                       (SpectralDensity.exponential(1.0), "sqrt-exponential")):
        sups, got = spectral.sup_growth_fit(dens, 20, grid, 8)
        ns = np.arange(1, 21)
        assert sups.tolist() == spectral.tm_sup_over_t(dens, 20, grid).tolist()
        assert got.kind == kind
        assert got == fit_growth(kind, ns[ns >= 8], sups[ns >= 8])


# sup_growth_fit's exponent and R^2 at the settings of criteria 10a and
# 10b (n_max 60, acceptance._SUP_GRID, fit from n = 12), as hex floats,
# recorded when the fit became one function of its law
_FROZEN_GROWTH = {
    "lebesgue": ("-0x1.7972c434aefa5p-4", "0x1.fecb87d00035ep-1"),
    "fbm(H=0.25)": ("-0x1.ca36607e91c22p-5", "0x1.d197070f57f69p-1"),
    "fbm(H=0.75)": ("-0x1.08b01278e024cp-3", "0x1.d98e5b0c0730bp-1"),
    "exponential(rate=1)": ("0x1.3b10be5dd8b98p-1", "0x1.ff85a06cd9721p-1"),
}


@pytest.mark.parametrize("dens", [SpectralDensity.lebesgue(), SpectralDensity.fbm(0.25),
                                  SpectralDensity.fbm(0.75), SpectralDensity.exponential(1.0)],
                         ids=lambda d: d.label())
def test_sup_growth_fit_is_frozen(dens):
    fit = spectral.sup_growth_fit(dens, 60, acceptance._SUP_GRID, 12)[1]
    assert (fit.exponent.hex(), fit.r_squared.hex()) == _FROZEN_GROWTH[dens.label()]


def test_fit_needs_enough_points():
    with pytest.raises(ValidationError):
        fit_growth("power", [1.0, 2.0], [1.0, 2.0])


@pytest.mark.parametrize("n_max", [16, 64, 200])
@pytest.mark.parametrize("dens", [SpectralDensity.lebesgue(), SpectralDensity.fbm(0.25),
                                  SpectralDensity.fbm(0.75)], ids=lambda d: d.label())
def test_tail_certificate_bounds_the_tail_it_certifies(dens, n_max):
    # the certified bound against the tail itself at t = 1, computed out
    # to the Hermite bound 512: sum over n_max < n <= 512 of
    # |tm_n(1)|^2 (2n)^-p; measured tail / bound 0.17 to 0.75
    p = dens.class_index + 3
    report = certify_tail(dens, p, 1.0, n_max=n_max)
    assert report.certified
    n = np.arange(n_max + 1, 513)
    tail = math.fsum(tm_values(dens, 1.0, 512)[n_max:] ** 2 * (2.0 * n) ** -float(p))
    assert 0.0 < tail <= report.tail_bound


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


@pytest.mark.parametrize("dens, seq, kind, status", [
    (SpectralDensity.lebesgue(), WeightSequence.linear(), "power", None),
    (SpectralDensity.exponential(1.0), WeightSequence.linear(), "sqrt-exponential", "failed"),
    (SpectralDensity.exponential(1.0), WeightSequence.exponential(), "sqrt-exponential",
     "certified"),
    (SpectralDensity.lebesgue(), WeightSequence.exponential(), "sqrt-exponential", None),
], ids=["lebesgue-2n", "exp-2n", "exp-2^n", "lebesgue-2^n"])
def test_certify_tail_fits_by_the_law_of_the_class_and_weights(dens, seq, kind, status):
    # the certificate holds the one fit it made, of the upper half of the
    # coefficients, by the law that the density and the weights pick
    rep = certify_tail(dens, 3, 1.0, n_max=64, seq=seq)
    ns = np.arange(33, 65)
    assert rep.fit == fit_growth(kind, ns, tm_values(dens, 1.0, 64)[32:])
    if status is not None:
        assert rep.status == status


def test_certify_tail_validation():
    leb = SpectralDensity.lebesgue()
    with pytest.raises(ValidationError):
        certify_tail(leb, -1, 1.0)
    with pytest.raises(ValidationError):
        certify_tail(leb, 3, 1.0, n_max=8)
