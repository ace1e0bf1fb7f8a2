import dataclasses

import pytest

from freenoise import fock
from freenoise.errors import (
    LevelTooLowError,
    UncertifiedError,
    ValidationError,
)
from freenoise.fock import FockElement, basis_vector, norm, vacuum, vage_constant
from freenoise.process import (
    IntegrandPath,
    ProcessState,
    apply_process,
    apply_whitenoise,
    covariance,
    derivative_errors,
    riemann_sum,
    stochastic_integral,
)
from freenoise.spectral import SpectralDensity, alpha_vector, dual_route_kernel, kernel
from freenoise.words import WeightSequence, normalize


def test_default_level_is_class_index_plus_three():
    assert ProcessState(SpectralDensity.lebesgue()).level == 3
    assert ProcessState(SpectralDensity.fbm(0.25)).level == 4
    assert ProcessState(SpectralDensity.fbm(0.75)).level == 3


@pytest.mark.parametrize("hurst", [0.25, 0.3, 0.5, 0.75])
def test_fbm_classification_follows_h_on_every_route(hurst):
    # the preset, the plain constructor and a replaced H all classify
    # from H, so the level a state picks never comes from a stale class
    preset = SpectralDensity.fbm(hurst)
    b = max(0.0, 2.0 * hurst - 1.0)
    n = 0 if hurst >= 0.5 else 1
    assert (preset.origin_exponent, preset.class_index) == (b, n)
    for other in (SpectralDensity(kind="fbm", hurst=hurst),
                  dataclasses.replace(SpectralDensity.fbm(0.75), hurst=hurst),
                  dataclasses.replace(SpectralDensity.fbm(0.25), hurst=hurst)):
        assert other == preset
        assert (other.origin_exponent, other.class_index) == (b, n)
        assert ProcessState(other).level == n + 3


def test_low_level_rejected_at_construction():
    with pytest.raises(LevelTooLowError):
        ProcessState(SpectralDensity.lebesgue(), level=2)
    with pytest.raises(LevelTooLowError):
        ProcessState(SpectralDensity.fbm(0.25), level=3)


def test_small_truncation_rejected():
    with pytest.raises(ValidationError):
        ProcessState(SpectralDensity.lebesgue(), n_max=8)


def test_uncertified_state_refuses_to_act():
    # exponential growth defeats the linear weights, and that is only
    # discovered at certification time, not at construction
    state = ProcessState(SpectralDensity.exponential(1.0), n_max=64, level=3)
    assert state.certificate().status == "failed"
    with pytest.raises(UncertifiedError):
        apply_process(state, 0.5, vacuum())
    with pytest.raises(UncertifiedError):
        apply_whitenoise(state, 0.5, vacuum())


def test_exponential_weights_certify_exponential_density():
    state = ProcessState(SpectralDensity.exponential(1.0), n_max=64,
                         level=3, seq=WeightSequence.exponential())
    assert state.certificate().certified
    out = apply_whitenoise(state, 0.5, vacuum())
    assert not out.is_zero()


def test_process_vanishes_at_time_zero():
    state = ProcessState(SpectralDensity.lebesgue(), n_max=32)
    assert apply_process(state, 0.0, vacuum()).is_zero()


def test_covariance_matches_dual_route_exactly():
    state = ProcessState(SpectralDensity.lebesgue(), n_max=200)
    got = covariance(state, 0.7, 0.4)
    assert got == pytest.approx(
        dual_route_kernel(state.density, 0.7, 0.4, 200), abs=1e-12)
    assert covariance(state, 0.4, 0.7) == pytest.approx(got, abs=1e-12)


def test_covariance_approximates_kernel():
    for dens in (SpectralDensity.lebesgue(), SpectralDensity.fbm(0.6)):
        state = ProcessState(dens, n_max=200)
        assert covariance(state, 0.7, 0.4) == pytest.approx(
            kernel(dens, 0.7, 0.4), abs=0.05)


def test_derivative_errors_fall_with_the_step():
    state = ProcessState(SpectralDensity.lebesgue(), n_max=24)
    errs = derivative_errors(state, 0.8, (1e-2, 1e-3))
    assert 5.0 < errs[0] / errs[1] < 20.0
    with pytest.raises(ValidationError):
        derivative_errors(state, 0.8, (1e-2, 0.0))


def test_path_validation():
    e = vacuum()
    with pytest.raises(ValidationError):
        IntegrandPath((), ())
    with pytest.raises(ValidationError):
        IntegrandPath((0.0, 1.0), (e,))
    with pytest.raises(ValidationError):
        IntegrandPath((0.0, 0.0), (e, e))
    with pytest.raises(ValidationError):
        IntegrandPath.dyadic(lambda t: e, 1.0, 1.0, 3)


def test_dyadic_path_uses_left_tags():
    path = IntegrandPath.dyadic(lambda t: vacuum(), 0.0, 1.0, 3)
    assert path.times == tuple(j / 8 for j in range(8))
    assert path.value_at(0.0) is path.values[0]
    with pytest.raises(ValidationError):
        path.value_at(1.0)
    with pytest.raises(ValidationError):
        path.value_at(0.3)


def test_riemann_sum_additive_over_matching_partitions():
    state = ProcessState(SpectralDensity.lebesgue(), n_max=32)
    path = IntegrandPath.dyadic(lambda t: vacuum() + basis_vector(normalize([0])) * t,
                                0.0, 1.0, 3)
    f = vacuum()
    whole = riemann_sum(state, path, f, 0.0, 1.0, 8)
    left = riemann_sum(state, path, f, 0.0, 0.5, 4)
    right = riemann_sum(state, path, f, 0.5, 1.0, 4)
    diff = whole - (left + right)
    assert norm(diff) == pytest.approx(0.0, abs=1e-12)


def test_single_term_obeys_product_bound():
    state = ProcessState(SpectralDensity.lebesgue(), n_max=32)
    y = vacuum() + basis_vector(normalize([1, 0])) * 0.5
    path = IntegrandPath((0.25,), (y,))
    f = vacuum() + basis_vector(normalize([2])) * 0.3
    term = riemann_sum(state, path, f, 0.25, 0.75, 1)
    p = float(state.level)
    q = p + 2.0
    b = vage_constant(2.0, state.seq).b
    wf = apply_whitenoise(state, 0.25, f)
    bound = 0.5 * b * norm(y, -p, state.seq) * norm(wf, -q, state.seq)
    assert norm(term, -q, state.seq) <= bound + 1e-12


def test_integral_levels_and_q_validation():
    state = ProcessState(SpectralDensity.lebesgue(), n_max=32)
    path = IntegrandPath.dyadic(lambda t: vacuum(), 0.0, 1.0, 6)
    with pytest.raises(ValidationError):
        stochastic_integral(state, path, vacuum(), 0.0, 1.0, 2)
    with pytest.raises(LevelTooLowError):
        stochastic_integral(state, path, vacuum(), 0.0, 1.0, 4, q=4)


def test_integral_of_constant_integrand_converges():
    state = ProcessState(SpectralDensity.lebesgue(), n_max=32)
    path = IntegrandPath.dyadic(lambda t: vacuum(), 0.0, 1.0, 6)
    res = stochastic_integral(state, path, vacuum(), 0.0, 1.0, 6)
    assert res.converged
    assert res.level_q == res.level_p + 2
    # first-order refinement: successive distances shrink by about half
    assert all(0.3 <= r <= 0.6 for r in res.ratios[-3:])
    # the letter-i coefficient tends to alpha_{i+1}(1) - alpha_{i+1}(0)
    w0 = normalize([0])
    exact = alpha_vector(state.density, 1.0, 1)[0]
    err_value = abs(res.value.coeff(w0).real - exact)
    err_extrap = abs(res.extrapolated.coeff(w0).real - exact)
    assert err_value < 5e-3
    assert err_extrap < 1e-4
    assert err_extrap < err_value


def test_integral_declares_nothing_with_too_few_levels():
    # 3 levels leave only two ratios, not enough for the rule of three
    state = ProcessState(SpectralDensity.lebesgue(), n_max=32)
    path = IntegrandPath.dyadic(lambda t: vacuum(), 0.0, 1.0, 3)
    res = stochastic_integral(state, path, vacuum(), 0.0, 1.0, 3)
    assert not res.converged
    assert len(res.distances) == 3
    assert len(res.ratios) == 2


def test_zero_integrand_gives_zero_integral():
    state = ProcessState(SpectralDensity.lebesgue(), n_max=32)
    path = IntegrandPath.dyadic(lambda t: FockElement(), 0.0, 1.0, 4)
    res = stochastic_integral(state, path, vacuum(), 0.0, 1.0, 4)
    assert res.converged
    assert res.value.is_zero()


def _tensor_loop(state, path, f, a, b, n_intervals, cap):
    """The per-tag loop riemann_sum replaces: sum_j step * tensor(Y(u_j), W(u_j) f)."""
    step = (b - a) / n_intervals
    total = FockElement()
    for j in range(n_intervals):
        u = a + j * step
        total = total + step * fock.tensor(path.value_at(u),
                                           apply_whitenoise(state, u, f), cap)
    return total


def _mixed_integrand(t):
    # vacuum, degree-1 and degree-2 terms, always listed in this order
    return (vacuum() * (1.0 + t)
            + basis_vector(normalize([0])) * complex(t, -0.5)
            + basis_vector(normalize([1])) * (0.25 - t * t)
            + basis_vector(normalize([0, 2])) * complex(0.3, t)
            + basis_vector(normalize([2, 1])) * (t - 0.7))


# f = z2 gives W f degree-0 and degree-2 parts; adding the vacuum gives it
# a degree-1 part too, so z0 (x) z2, z0 z2 (x) 1 and 1 (x) z0 z2 share a word
@pytest.mark.parametrize("f", [
    basis_vector(normalize([2])) * 0.8,
    vacuum() * 0.5 + basis_vector(normalize([2])) * (0.3 - 0.6j),
])
@pytest.mark.parametrize("cap", [12, 3])
def test_riemann_sum_equals_per_tag_tensor_loop(f, cap):
    state = ProcessState(SpectralDensity.lebesgue(), n_max=16, degree_cap=cap)
    grid = IntegrandPath.dyadic(_mixed_integrand, 0.0, 1.0, 3)
    # the tag at 0.375 carries the zero element
    values = tuple(FockElement() if t == 0.375 else v
                   for t, v in zip(grid.times, grid.values))
    path = IntegrandPath(grid.times, values)
    for n in (1, 2, 8):
        got = riemann_sum(state, path, f, 0.0, 1.0, n)
        want = _tensor_loop(state, path, f, 0.0, 1.0, n, cap)
        assert got.as_dict() == want.as_dict()
        full = _tensor_loop(state, path, f, 0.0, 1.0, n, None)
        discarded = full - want
        assert got.dropped_mass == pytest.approx(norm(discarded) ** 2, rel=1e-12)
        assert (got.dropped_mass > 0) == (cap == 3)


def test_every_built_key_is_a_word():
    # a plain-tuple key would print as "(0, 1)" rather than "z0 z1"
    from freenoise.trace import monomial_to_uwords
    from freenoise.words import Word

    def keys_are_words(keys):
        keys = list(keys)
        assert keys and all(type(w) is Word for w in keys)

    state = ProcessState(SpectralDensity.lebesgue(), n_max=16, degree_cap=6)
    f = vacuum() + basis_vector(normalize([0, 1])) * 0.5
    g = basis_vector(normalize([1])) * 2.0 + vacuum()
    keys_are_words(fock.tensor(f, g).coeffs)
    keys_are_words(fock.creation([0.5, 1.0], f).coeffs)
    keys_are_words(fock.annihilation([0.5, 1.0], f).coeffs)
    keys_are_words(fock.apply_x([0.5, 1.0], f).coeffs)
    keys_are_words((f + g).coeffs)
    path = IntegrandPath.dyadic(_mixed_integrand, 0.0, 1.0, 2)
    keys_are_words(riemann_sum(state, path, f, 0.0, 1.0, 4).coeffs)
    keys_are_words(monomial_to_uwords([0, 0, 1, 1, 0]))
