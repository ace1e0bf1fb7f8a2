import dataclasses
import itertools
import math
import time

import numpy as np
import pytest

from fock_oracle import annihilation, creation
from freenoise import fock, process, spectral
from freenoise.chebyshev import orthonormal_poly
from freenoise.errors import (
    LevelTooLowError,
    NonCauchyError,
    UncertifiedError,
    ValidationError,
)
from freenoise.fock import FockElement, basis_vector, norm, vacuum, vage_constant
from freenoise.process import (
    IntegrandPath,
    ProcessState,
    apply_process,
    apply_whitenoise,
    derivative_errors,
    riemann_sum,
    stochastic_integral,
)
from freenoise.spectral import SpectralDensity, alpha_vector, dual_route_kernel, kernel
from freenoise.words import WeightSequence, Word, normalize


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
    assert out.coeffs


def test_process_vanishes_at_time_zero():
    state = ProcessState(SpectralDensity.lebesgue(), n_max=32)
    assert not apply_process(state, 0.0, vacuum()).coeffs


def test_covariance_matches_dual_route_exactly():
    # the process vectors X(t) Omega pair to the coefficient-route kernel
    state = ProcessState(SpectralDensity.lebesgue(), n_max=200)
    x = {t: apply_process(state, t, vacuum()) for t in (0.7, 0.4)}
    got = fock.inner(x[0.7], x[0.4]).real
    assert got == pytest.approx(
        dual_route_kernel(state.density, 0.7, 0.4, 200), abs=1e-12)
    assert fock.inner(x[0.4], x[0.7]).real == pytest.approx(got, abs=1e-12)


def test_covariance_approximates_kernel():
    for dens in (SpectralDensity.lebesgue(), SpectralDensity.fbm(0.6)):
        state = ProcessState(dens, n_max=200)
        pairing = fock.inner(apply_process(state, 0.7, vacuum()),
                             apply_process(state, 0.4, vacuum())).real
        assert pairing == pytest.approx(kernel(dens, 0.7, 0.4), abs=0.05)


def test_derivative_errors_fall_with_the_step():
    state = ProcessState(SpectralDensity.lebesgue(), n_max=24)
    errs = derivative_errors(state, 0.8, (1e-2, 1e-3))
    assert 5.0 < errs[0] / errs[1] < 20.0
    with pytest.raises(ValidationError):
        derivative_errors(state, 0.8, (1e-2, 0.0))


def test_path_validation():
    # dyadic, the one constructor, refuses an empty, reversed or
    # non-finite interval, and one too short for distinct tags
    e = vacuum()
    for a, b in ((1.0, 1.0), (1.0, 0.0), (math.nan, 1.0), (0.0, math.inf), (-1e308, 1e308)):
        with pytest.raises(ValidationError, match="need finite a < b"):
            IntegrandPath.dyadic(lambda t: e, a, b, 3)
    with pytest.raises(ValidationError, match="distinct tags"):
        IntegrandPath.dyadic(lambda t: e, 1e16, 1e16 + 2.0, 3)


def test_dyadic_path_uses_left_tags():
    state = ProcessState(SpectralDensity.lebesgue(), n_max=16)
    path = IntegrandPath.dyadic(lambda t: vacuum(), 0.0, 1.0, 3)
    assert path.times == tuple(j / 8 for j in range(8))
    assert path.words == (Word(()),) and path.rows.tolist() == [[1.0]] * 8
    # the right end 1.0 and 0.3 are not tags
    for a, b, n, t in ((0.5, 1.5, 2, "1.0"), (0.3, 0.55, 1, "0.3")):
        with pytest.raises(ValidationError, match=f"not sampled at t = {t}$"):
            riemann_sum(state, path, vacuum(), a, b, n)


def _digit_letters(t, step):
    """The letters 4i + d_i, d_i the base-4 digits of the index t / step."""
    k = round(t / step)
    return [4 * i + (k >> 2 * i) % 4 for i in range(7)]


def test_each_tag_of_a_fine_grid_reads_its_own_row(monkeypatch):
    # the tag step is 6.1e-13: an absolute tolerance of 1e-9 would span
    # over a thousand samples, and the lookup is exact.  Path and noise
    # both carry the base-4 digits of the tag's index, so the sum is that
    # of Y(u_j) (x) Y(u_j) only if tag j reads row j: a tag that read
    # another row would put a word (4i + d, 4i + d') with d != d' into it
    state = ProcessState(SpectralDensity.lebesgue(), n_max=16)
    step = 1e-8 / (1 << 14)

    def digits(t):
        return FockElement({Word((i,)): 1.0 for i in _digit_letters(t, step)})

    def digit_rows(state, tags, f):
        rows = np.zeros((len(tags), 28))
        for row, u in zip(rows, tags):
            row[_digit_letters(u, step)] = 1.0
        return [Word((i,)) for i in range(28)], rows

    path = IntegrandPath.dyadic(digits, 0.0, 1e-8, 14)
    monkeypatch.setattr(process, "_noise_rows", digit_rows)
    got = riemann_sum(state, path, vacuum(), 0.0, 1e-8, 1 << 14).coeffs
    assert all(w[0] // 4 != w[1] // 4 or w[0] == w[1] for w in got)
    assert all(got[Word((i, i))] == step * (1 << 12) for i in range(28))
    mid = 0.5 * (path.times[5] + path.times[6])
    with pytest.raises(ValidationError, match="not sampled"):
        riemann_sum(state, path, vacuum(), mid, mid + step, 1)


def test_path_rows_are_its_samples_over_first_seen_words():
    # _uneven_integrand lists z3 first at the tags 1 and 2 mod 4, so the
    # first-seen order is not the order of any one sample
    path = IntegrandPath.dyadic(_uneven_integrand, 0.0, 1.0, 4)
    samples = [_uneven_integrand(t) for t in path.times]
    assert path.words == tuple(dict.fromkeys(w for v in samples for w in v.coeffs))
    assert path.rows.shape == (16, len(path.words))
    for row, v in zip(path.rows, samples):
        assert row.tolist() == [v.coeffs.get(w, 0j) for w in path.words]


@pytest.mark.parametrize("a, b, n", [(0.3, 1.0, 4), (0.0, 1.0, 3), (0.0, 2.0, 16)],
                         ids=["off-grid-a", "thirds", "past-the-end"])
def test_tags_that_are_not_samples_raise_before_any_noise(a, b, n, monkeypatch):
    state = ProcessState(SpectralDensity.lebesgue(), n_max=16)
    path = IntegrandPath.dyadic(_mixed_integrand, 0.0, 1.0, 3)
    calls = []
    real = spectral.tm_values
    monkeypatch.setattr(spectral, "tm_values", lambda *args: calls.append(args) or real(*args))
    with pytest.raises(ValidationError, match="not sampled"):
        riemann_sum(state, path, vacuum(), a, b, n)
    assert calls == []


def test_riemann_sum_refuses_a_reversed_empty_or_non_finite_interval():
    # every tag of these partitions is a sample of the path on [0, 2]
    state = ProcessState(SpectralDensity.lebesgue(), n_max=16)
    path = IntegrandPath.dyadic(lambda t: vacuum(), 0.0, 2.0, 3)
    for a, b, n in ((1.0, 0.0, 4), (0.5, 0.5, 1), (math.nan, 1.0, 1), (0.0, math.inf, 4)):
        with pytest.raises(ValidationError, match="need finite a < b"):
            riemann_sum(state, path, vacuum(), a, b, n)


def test_stochastic_integral_refuses_a_reversed_empty_or_non_finite_interval():
    state = ProcessState(SpectralDensity.lebesgue(), n_max=16)
    path = IntegrandPath.dyadic(lambda t: vacuum(), 0.0, 2.0, 3)
    for a, b in ((1.75, -0.25), (0.5, 0.5), (-math.inf, 1.0), (0.0, math.nan)):
        with pytest.raises(ValidationError, match="need finite a < b"):
            stochastic_integral(state, path, vacuum(), a, b, 3)


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
    path = IntegrandPath.dyadic(lambda t: y, 0.25, 0.75, 0)
    f = vacuum() + basis_vector(normalize([2])) * 0.3
    term = riemann_sum(state, path, f, 0.25, 0.75, 1)
    p = float(state.level)
    q = p + 2.0
    b = vage_constant(2.0, state.seq).b
    wf = apply_whitenoise(state, 0.25, f)
    bound = 0.5 * b * norm(y, -p, state.seq) * norm(wf, -q, state.seq)
    assert norm(term, -q, state.seq) <= bound + 1e-12


def test_dyadic_path_bounds_its_levels_before_sampling():
    def refuse(t):
        raise AssertionError("sampled")

    for levels in (-1, 17, 30):
        with pytest.raises(ValidationError, match="between 0 and 16"):
            IntegrandPath.dyadic(refuse, 0.0, 1.0, levels)
    assert IntegrandPath.dyadic(lambda t: vacuum(), 0.0, 1.0, 0).times == (0.0,)


def test_integral_levels_and_q_validation():
    state = ProcessState(SpectralDensity.lebesgue(), n_max=32)
    path = IntegrandPath.dyadic(lambda t: vacuum(), 0.0, 1.0, 6)
    with pytest.raises(ValidationError):
        stochastic_integral(state, path, vacuum(), 0.0, 1.0, 2)
    with pytest.raises(LevelTooLowError):
        stochastic_integral(state, path, vacuum(), 0.0, 1.0, 4, q=4)


def test_integral_and_sum_bound_their_tags_before_building_them():
    # a 6-level path with levels=24 used to build 16.8M tags (2.2 s)
    # before the tag lookup failed
    state = ProcessState(SpectralDensity.lebesgue(), n_max=32)
    path = IntegrandPath.dyadic(lambda t: vacuum(), 0.0, 1.0, 6)
    start = time.perf_counter()
    with pytest.raises(ValidationError, match="between 3 and 16, got 24"):
        stochastic_integral(state, path, vacuum(), 0.0, 1.0, 24)
    with pytest.raises(ValidationError, match="between 1 and 65536, got 16777216"):
        riemann_sum(state, path, vacuum(), 0.0, 1.0, 1 << 24)
    assert time.perf_counter() - start < 0.1


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
    assert not res.value.coeffs


def _integral_with_distances(distances):
    """stochastic_integral over [0, 1] of a hand-made path whose level-k
    Riemann sum is 1 + d_0 + ... + d_{k-1} on the vacuum, so that its
    refinement distances are the given d_k and its scale is about 1.

    With f = e_0 and a degree cap of 1 the noise W(u) f is the scalar
    tm_1(u) on the vacuum: its creation part is over the cap.  A path
    value v_j / tm_1(u_j) on the vacuum then puts v_j into the sums,
    and the level-k sum is 2^-k times the sum of v_j over its tags, the
    multiples of 2^(levels - k).  v_j is 1 at every tag, plus
    2^k Q_k - 2^(k-1) Q_(k-1) at the first tag that level k adds, with
    Q_k = d_0 + ... + d_(k-1).
    """
    levels = len(distances)
    state = ProcessState(SpectralDensity.lebesgue(), n_max=16, degree_cap=1)
    q = np.concatenate([[0.0], np.cumsum(distances)])
    v = np.ones(1 << levels)
    for k in range(1, levels + 1):
        v[1 << (levels - k)] += 2.0 ** k * q[k] - 2.0 ** (k - 1) * q[k - 1]
    times = [j / (1 << levels) for j in range(1 << levels)]
    noise = [spectral.tm_values(state.density, u, 1)[0] for u in times]
    values = {u: FockElement({Word(()): float(vj / n)}) for u, vj, n in zip(times, v, noise)}
    path = IntegrandPath.dyadic(values.__getitem__, 0.0, 1.0, levels)
    return stochastic_integral(state, path, basis_vector(Word((0,))), 0.0, 1.0, levels)


def test_distances_falling_by_0_7_per_level_do_not_converge():
    # convergence needs three ratios of at most 0.6: a half-order rate,
    # ratio 2^-1/2 ~ 0.71, is not the first-order one the rule looks for
    res = _integral_with_distances(0.1 * 0.7 ** np.arange(6))
    assert res.distances == pytest.approx(0.1 * 0.7 ** np.arange(6), rel=1e-9)
    assert res.ratios == pytest.approx([0.7] * 5, rel=1e-9)
    assert not res.converged


def test_distances_near_1e_12_of_the_scale_are_not_rounding_noise():
    # the rounding floor is 1e-14 of the finest sum's norm: distances
    # 100 times above it are read as distances, not as zero
    res = _integral_with_distances(1e-12 * 0.9 ** np.arange(5))
    assert res.distances == pytest.approx(1e-12 * 0.9 ** np.arange(5), rel=1e-3)
    assert res.ratios == pytest.approx([0.9] * 4, rel=1e-3)
    assert not res.converged


def test_distances_growing_by_1e_5_per_level_are_not_cauchy():
    # growth beyond rounding, 1e-9 of the previous distance, aborts
    with pytest.raises(NonCauchyError, match="distance grew"):
        _integral_with_distances(1e-3 * (1.0 + 1e-5) ** np.arange(5))


@pytest.mark.parametrize("dens, a, b", [
    (SpectralDensity.lebesgue(), 0.0, 1.0),
    (SpectralDensity.fbm(0.3), 0.0, 1.0),
    (SpectralDensity.fbm(0.75), 0.2, 1.7),
], ids=["lebesgue", "fbm0.3", "fbm0.75"])
def test_integral_obeys_the_free_ito_product_rule(dens, a, b):
    # I = int_a^b X_u dX_u Omega has c_jk on the word (j, k), and
    # c_jk + c_kj = alpha_j(b) alpha_k(b) - alpha_j(a) alpha_k(a): the
    # symmetric part of the coefficient matrix is exact, so the defect
    # of a sum falls like its own error, 1/n for the finest sum and
    # 1/n^2 once the leading term is extrapolated away
    n_max = 64
    state = ProcessState(dens, n_max=n_max)
    path = IntegrandPath.dyadic(lambda t: apply_process(state, t, vacuum()), a, b, 8)
    ends = [alpha_vector(dens, t, n_max) for t in (a, b)]
    exact = np.outer(ends[1], ends[1]) - np.outer(ends[0], ends[0])

    def defect(e):
        c = np.array([[e.coeff(Word((j, k))) for k in range(n_max)] for j in range(n_max)])
        return np.max(np.abs(c + c.T - exact))

    (fine7, extra7), (fine8, extra8) = [
        (defect(res.value), defect(res.extrapolated))
        for res in (stochastic_integral(state, path, vacuum(), a, b, levels)
                    for levels in (7, 8))]
    assert extra8 <= 3e-5
    assert 3.0 <= extra7 / extra8 <= 5.0
    assert 1.8 <= fine7 / fine8 <= 2.2


def _tensor_loop(state, fn, f, a, b, n_intervals, cap):
    """The per-tag loop riemann_sum replaces: sum_j step * tensor(fn(u_j), W(u_j) f)."""
    step = (b - a) / n_intervals
    total = FockElement()
    for j in range(n_intervals):
        u = a + j * step
        total = total + step * fock.tensor(fn(u), apply_whitenoise(state, u, f), cap)
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
    # the tag at 0.375 carries the zero element
    fn = lambda t: FockElement() if t == 0.375 else _mixed_integrand(t)
    path = IntegrandPath.dyadic(fn, 0.0, 1.0, 3)
    for n in (1, 2, 8):
        got = riemann_sum(state, path, f, 0.0, 1.0, n)
        want = _tensor_loop(state, fn, f, 0.0, 1.0, n, cap)
        _assert_close(got, want)
        full = _tensor_loop(state, fn, f, 0.0, 1.0, n, None)
        discarded = full - want
        assert got.dropped_mass == pytest.approx(norm(discarded) ** 2, rel=1e-12)
        assert (got.dropped_mass > 0) == (cap == 3)


def _per_level_riemann_sum(state, fn, f, a, b, n_intervals):
    """riemann_sum as a separate pass per partition, with its own rows:
    the oracle for the sums that one pass over the tags gives every level."""
    step = (b - a) / n_intervals
    tags = [a + j * step for j in range(n_intervals)]

    def rows(values):
        index = {}
        for v in values:
            for w in v.coeffs:
                index.setdefault(w, len(index))
        out = np.zeros((len(values), len(index)), dtype=complex)
        for j, v in enumerate(values):
            out[j, [index[w] for w in v.coeffs]] = list(v.coeffs.values())
        return list(index), out

    left, y = rows([fn(u) for u in tags])
    right, z = rows([apply_whitenoise(state, u, f) for u in tags])
    words, slots = fock.tensor_slots(left, right)
    acc_re = np.zeros(len(words))
    acc_im = np.zeros(len(words))
    for y_j, z_j in zip(y, z):
        re = np.outer(y_j.real, z_j.real) - np.outer(y_j.imag, z_j.imag)
        im = np.outer(y_j.real, z_j.imag) + np.outer(y_j.imag, z_j.real)
        acc_re += step * np.bincount(slots, re.ravel(), len(words))
        acc_im += step * np.bincount(slots, im.ravel(), len(words))
    coeffs = map(complex, acc_re.tolist(), acc_im.tolist())
    full = FockElement.from_dict(dict(zip(words, coeffs))).coeffs
    cap = state.degree_cap
    kept = {w: c for w, c in full.items() if cap is None or len(w) <= cap}
    lost = sum(abs(c) ** 2 for w, c in full.items() if cap is not None and len(w) > cap)
    return FockElement(kept, dropped_mass=0.0 + lost)


def _uneven_integrand(t):
    # on the 16-tag grid z3 sits on the tags 1 and 2 mod 4, which list
    # it first, and the tags 2 mod 4 list z4 z1 before it: the union of
    # all tags meets z3 first, the levels without odd tags z4 z1
    j = round(16 * t)
    e = _mixed_integrand(t)
    if j % 4 in (1, 2):
        e = basis_vector(normalize([3])) * (t - 0.2) + e
    if j % 4 == 2:
        e = basis_vector(normalize([4, 1])) * complex(0.7, t) + e
    return e


def _assert_close(got, want):
    """Same word set, and coefficients within 1e-13 of the largest."""
    assert set(got.coeffs) == set(want.coeffs)
    top = max(map(abs, want.coeffs.values()), default=0.0)
    assert all(abs(c - want.coeffs[w]) <= 1e-13 * top for w, c in got.coeffs.items())


@pytest.mark.parametrize("f", [
    vacuum(),
    basis_vector(normalize([2])) * 0.8,
    vacuum() * 0.5 + basis_vector(normalize([2])) * (0.3 - 0.6j),
])
@pytest.mark.parametrize("cap", [12, 3])
def test_one_pass_gives_every_level_the_sum_of_its_own_pass(f, cap, monkeypatch):
    state = ProcessState(SpectralDensity.fbm(0.3), n_max=16, degree_cap=cap)
    levels = 4
    path = IntegrandPath.dyadic(_uneven_integrand, 0.0, 1.0, levels)
    seen = []

    def spy(*args):
        seen.append(sums_of_all_levels(*args))
        return seen[-1]

    sums_of_all_levels = process._riemann_sums
    monkeypatch.setattr(process, "_riemann_sums", spy)
    try:
        stochastic_integral(state, path, f, 0.0, 1.0, levels)
    except NonCauchyError:
        pass
    ((words, rows, dropped, _),) = seen
    for k, row in enumerate(rows):
        want = _per_level_riemann_sum(state, _uneven_integrand, f, 0.0, 1.0, 1 << k)
        _assert_close(_level_element(words, row), want)
        _assert_close(riemann_sum(state, path, f, 0.0, 1.0, 1 << k), want)
    # degrees reach 3 + the top degree of f, so cap 3 drops terms unless f is the vacuum
    assert (dropped[-1] > 0) == (cap == 3 and any(w.degree for w in f.coeffs))


def _level_element(words, row):
    """The element of one level's coefficient row."""
    return FockElement({w: c for w, c in zip(words, row.tolist()) if c != 0})


@pytest.mark.parametrize("dens", [SpectralDensity.lebesgue(), SpectralDensity.fbm(0.3)],
                         ids=["lebesgue", "fbm0.3"])
@pytest.mark.parametrize("integrand", ["process", "uneven"])
@pytest.mark.parametrize("cap", [12, 3])
def test_refinement_distances_have_the_bits_of_the_element_difference(
        dens, integrand, cap, monkeypatch):
    # the process path converges, as in criterion 9; the uneven one moves
    # its support from tag to tag and raises NonCauchyError, so its norms
    # are checked directly
    state = ProcessState(dens, n_max=16, degree_cap=cap)
    if integrand == "process":
        fn, f = (lambda t: apply_process(state, t, vacuum())), vacuum()
    else:
        fn, f = _uneven_integrand, vacuum() * 0.5 + basis_vector(normalize([2])) * (0.3 - 0.6j)
    levels = 4
    path = IntegrandPath.dyadic(fn, 0.0, 1.0, levels)
    seen = []

    def spy(*args):
        seen.append(sums_of_all_levels(*args))
        return seen[-1]

    sums_of_all_levels = process._riemann_sums
    monkeypatch.setattr(process, "_riemann_sums", spy)
    try:
        res = stochastic_integral(state, path, f, 0.0, 1.0, levels)
    except NonCauchyError:
        res = None
    ((words, rows, _, weights),) = seen
    sums = [_level_element(words, row) for row in rows]
    q = -float(state.level + 2)
    want = [norm(s1 - s0, q, state.seq) for s0, s1 in zip(sums, sums[1:])]
    scale = norm(sums[-1], q, state.seq)
    tol = 1e-13 * scale
    # the norms over the rows, one weight per word, as the integral takes them
    distances = np.sqrt(np.abs(np.diff(rows, axis=0)) ** 2 @ weights)
    assert np.allclose(distances, want, rtol=0.0, atol=tol)
    got_scale = math.sqrt(np.abs(rows[-1]) ** 2 @ weights)
    assert abs(got_scale - scale) <= tol
    if res is not None:
        assert np.allclose(res.distances, want, rtol=0.0, atol=tol)
        floor = 1e-14 * got_scale
        ratios = [0.0 if d1 <= floor else (math.inf if d0 <= floor else d1 / d0)
                  for d0, d1 in zip(res.distances, res.distances[1:])]
        assert list(res.ratios) == ratios


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
    keys_are_words(creation([0.5, 1.0], f).coeffs)
    keys_are_words(annihilation([0.5, 1.0], f).coeffs)
    keys_are_words(fock.apply_x([0.5, 1.0], f).coeffs)
    keys_are_words((f + g).coeffs)
    path = IntegrandPath.dyadic(_mixed_integrand, 0.0, 1.0, 2)
    keys_are_words(riemann_sum(state, path, f, 0.0, 1.0, 4).coeffs)
    keys_are_words(monomial_to_uwords([0, 0, 1, 1, 0]))


@pytest.mark.parametrize("f", [
    vacuum(),
    basis_vector(normalize([2])) * 0.8,
    vacuum() * 0.5 + basis_vector(normalize([2])) * (0.3 - 0.6j),
    basis_vector(normalize([0, 1, 0])),
], ids=["vacuum", "z2", "mixed", "z0z1z0"])
@pytest.mark.parametrize("cap", [12, 3])
def test_noise_rows_equal_apply_whitenoise_per_tag(f, cap):
    # the rows T M_f against the per-tag element; cap 3 keeps z0 z1 z0
    # from creating, so only its first letter annihilates
    state = ProcessState(SpectralDensity.fbm(0.3), n_max=16, degree_cap=cap)
    tags = [0.1 + j / 8 for j in range(8)]
    words, rows = process._noise_rows(state, tags, f)
    assert len(set(words)) == len(words)
    for u, row in zip(tags, rows):
        want = apply_whitenoise(state, u, f).coeffs
        got = dict(zip(words, row.tolist()))
        top = max(map(abs, want.values()))
        assert all(abs(got.get(w, 0j) - want.get(w, 0j)) <= 1e-14 * top
                   for w in set(got) | set(want))
    # an empty f has no noise words, and its integral, like that of a
    # zero integrand, is the zero element
    words, rows = process._noise_rows(state, tags, FockElement())
    assert words == [] and rows.shape == (8, 0)
    path = IntegrandPath.dyadic(_mixed_integrand, 0.0, 1.0, 3)
    zero = IntegrandPath.dyadic(lambda t: FockElement(), 0.0, 1.0, 3)
    for p, g in ((path, FockElement()), (zero, f)):
        res = stochastic_integral(state, p, g, 0.0, 1.0, 3)
        assert not res.value.coeffs and not res.extrapolated.coeffs
        assert res.distances == (0.0, 0.0, 0.0)


def test_flat_density_isometry_gap_falls_like_root_n():
    # I = int_0^1 X_u dX_u Omega has norm^2 = int_0^1 u du = 1/2 (free Ito
    # isometry); its truncation to n_max letters is a Bessel sum, so it
    # stays at most 1/2, and the gap falls like n^(-1/2), by sqrt(2) per
    # doubling (measured 1.421, then 1.420)
    dens = SpectralDensity.lebesgue()
    gaps = []
    for n_max in (64, 128, 256):
        state = ProcessState(dens, n_max=n_max)
        path = IntegrandPath.dyadic(lambda t: apply_process(state, t, vacuum()), 0.0, 1.0, 8)
        res = stochastic_integral(state, path, vacuum(), 0.0, 1.0, 8)
        finest, extrapolated = (norm(e) ** 2 for e in (res.value, res.extrapolated))
        assert finest <= 0.5 and extrapolated <= 0.5
        gaps.append(0.5 - extrapolated)
    assert all(1.3 <= g0 / g1 <= 1.55 for g0, g1 in zip(gaps, gaps[1:]))


def test_process_path_integral_runs_no_per_tag_fock_operation(monkeypatch):
    # the integral stays on coefficient arrays: no white-noise element, no
    # apply_x and no element addition between the path and the result
    state = ProcessState(SpectralDensity.lebesgue(), n_max=32)
    path = IntegrandPath.dyadic(lambda t: apply_process(state, t, vacuum()), 0.0, 1.0, 6)
    calls = []

    def counted(owner, name):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, **k: calls.append(name) or real(*a, **k))

    counted(process, "apply_whitenoise")
    counted(fock, "apply_x")
    counted(FockElement, "__add__")
    res = stochastic_integral(state, path, vacuum(), 0.0, 1.0, 6)
    assert res.converged and len(res.extrapolated.coeffs) == 32 * 32
    assert calls == []


_PRESETS = pytest.mark.parametrize("dens", [
    SpectralDensity.lebesgue(), SpectralDensity.fbm(0.3), SpectralDensity.fbm(0.75),
], ids=["lebesgue", "fbm0.3", "fbm0.75"])


def _third_chaos(state, levels):
    # I_1(u) = X(u) Omega; I_2(u_k) = int_0^{u_k} I_1 dX Omega and
    # I_3 = int_0^1 I_2 dX Omega, each the Riemann sum on the tags of the
    # finest partition of [0, 1] at this level
    path = IntegrandPath.dyadic(lambda t: apply_process(state, t, vacuum()), 0.0, 1.0, levels)
    second = {u: riemann_sum(state, path, vacuum(), 0.0, u, k) if k else FockElement()
              for k, u in enumerate(path.times)}
    outer = IntegrandPath.dyadic(second.__getitem__, 0.0, 1.0, levels)
    return riemann_sum(state, outer, vacuum(), 0.0, 1.0, len(path.times))


@_PRESETS
def test_iterated_integrals_rebuild_the_third_chaos(dens):
    # the one-sided integral puts the later time's letter to the right,
    # so I_3 is the time-ordered part of alpha(1)^(x)3 and its sum over
    # the 6 permutations of the tensor slots is alpha(1)^(x)3 itself
    # (Fubini over the orderings of [0, 1]^3); the sums converge to it
    # at first order, the extrapolation 2 S_L - S_{L-1} at second
    n_max = 16
    state = ProcessState(dens, n_max=n_max, degree_cap=None)
    a1 = alpha_vector(dens, 1.0, n_max)
    exact = np.einsum("i,j,k->ijk", a1, a1, a1)

    def symmetrised(e):
        c = np.zeros((n_max,) * 3, dtype=complex)
        for w, v in e.coeffs.items():
            c[w] = v
        return sum(c.transpose(p) for p in itertools.permutations(range(3)))

    sums = {levels: symmetrised(_third_chaos(state, levels)) for levels in (6, 7, 8)}
    scale = np.max(np.abs(exact))
    fine = {k: np.max(np.abs(sums[k] - exact)) / scale for k in (7, 8)}
    extra = {k: np.max(np.abs(2.0 * sums[k] - sums[k - 1] - exact)) / scale for k in (7, 8)}
    assert 1.8 <= fine[7] / fine[8] <= 2.2
    assert 3.0 <= extra[7] / extra[8] <= 5.0
    assert extra[8] <= 2e-4


@_PRESETS
def test_chebyshev_polynomials_of_the_normalised_process_are_its_chaos(dens):
    # for a unit vector h, p_n(X(h)) Omega = h^(x)n with p_n(x) = U_n(x/2),
    # so the U-polynomials of the normalised process are orthonormal and
    # their Gram matrix over times is delta_nm rho(s, t)^n, rho the
    # truncated correlation (free Mehler formula)
    n_max, times, top = 16, (0.3, 0.9, 1.6), 3
    units = [alpha_vector(dens, t, n_max) for t in times]
    units = [h / np.linalg.norm(h) for h in units]
    vectors = {}
    for i, h in enumerate(units):
        powers = [vacuum()]
        for _ in range(top):
            powers.append(fock.apply_x(h, powers[-1], None))
        for n in range(top + 1):
            p_n = FockElement()
            for c, power in zip(orthonormal_poly(n), powers):
                if c:
                    p_n = p_n + float(c) * power
            tensor_power = FockElement({
                Word(w): complex(math.prod(h[list(w)]))
                for w in itertools.product(range(n_max), repeat=n)})
            assert norm(p_n - tensor_power) <= 1e-13
            vectors[i, n] = p_n
    kernel_n = np.array([[dual_route_kernel(dens, s, t, n_max) for t in times] for s in times])
    rho = kernel_n / np.sqrt(np.outer(np.diag(kernel_n), np.diag(kernel_n)))
    keys = list(vectors)
    gram = np.array([[fock.inner(vectors[a], vectors[b]) for b in keys] for a in keys])
    want = np.array([[(n == m) * rho[i, j] ** n for j, m in keys] for i, n in keys])
    assert np.max(np.abs(gram - want)) <= 1e-12


def _noncrossing_pairing_sum(cov, positions):
    # sum over the non-crossing pair partitions of positions of the
    # product of cov over their pairs: the first position pairs with one
    # an odd distance on, which splits the rest into inside and outside
    if not positions:
        return 1.0
    first, rest = positions[0], positions[1:]
    return sum(cov[first, rest[j]] * _noncrossing_pairing_sum(cov, rest[:j])
               * _noncrossing_pairing_sum(cov, rest[j + 1:])
               for j in range(0, len(rest), 2))


@_PRESETS
def test_the_process_is_a_semicircular_family(dens):
    # free Wick formula (Nica and Speicher, LMS LN 335, Lecture 8): the
    # moment phi(X(t_1) ... X(t_k)) = <X(t_h) ... X(t_1) Omega,
    # X(t_{h+1}) ... X(t_k) Omega> is the non-crossing pairing sum over
    # C_ij = alpha(t_i) . alpha(t_j), and every odd moment is 0
    n_max = 16
    state = ProcessState(dens, n_max=n_max, degree_cap=None)
    times = (0.2, 1.6, 0.7, 1.1, 0.4, 1.3, 0.9, 0.5)
    alphas = np.array([alpha_vector(dens, t, n_max) for t in times])
    cov = alphas @ alphas.T
    # the word t_1 ... t_h t_{9-m} ... t_8: left[h] = X(t_h) ... X(t_1) Omega
    # and right[m] = X(t_{9-m}) ... X(t_8) Omega grow one operator at a time
    left, right = [vacuum()], [vacuum()]
    for h in range(4):
        left.append(apply_process(state, times[h], left[-1]))
        right.append(apply_process(state, times[-1 - h], right[-1]))
    for k in range(2, 9):
        h, m = (k + 1) // 2, k // 2
        got = fock.inner(left[h], right[m])
        if k % 2:
            assert got == 0.0
            continue
        positions = list(range(h)) + [len(times) - 1 - j for j in reversed(range(m))]
        want = _noncrossing_pairing_sum(cov, positions)
        assert abs(got - want) <= 1e-12 * abs(want)
