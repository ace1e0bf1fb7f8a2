"""Numeric acceptance suite: one callable check per release criterion.

Each criterion returns a CriterionResult with a pass flag and a short
numeric summary; nothing here prints or exits.  Both the command-line
selftest and the test suite drive these functions, so the gate is the
same everywhere.

Criterion 10 is split: 10a is the two-sided growth-exponent match for
polynomial-class presets, 10b the sqrt-exponential fit for the growing
preset, 10c the rejection of under-regular weight levels.  The 10a
match is checked exactly as stated even though the measured supremum
of the multiplier coefficients decays for every polynomial preset
(the template is an upper bound, not an attained rate), so that check
reports honestly rather than being tuned to pass.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from . import fock, hermite, matmodel, process, quadrature, spectral, trace
from .chebyshev import SemicircleLaw, catalan, linearize, poly_mul, semicircle_moment, u_poly
from .fock import FockElement, vacuum
from .matmodel import EnsembleConfig
from .process import IntegrandPath, ProcessState
from .spectral import SpectralDensity
from .words import WeightSequence, Word, iter_words, normalize

__all__ = ["CriterionResult", "run_all", "CRITERIA", "sparse_element"]


@dataclass(frozen=True)
class CriterionResult:
    ident: str
    title: str
    passed: bool
    detail: str
    elapsed: float


def _result(ident: str, title: str, passed: bool, detail: str,
            started: float) -> CriterionResult:
    return CriterionResult(ident, title, bool(passed), detail,
                           time.perf_counter() - started)


def criterion_1() -> CriterionResult:
    t0 = time.perf_counter()
    bad = 0
    for m in range(31):
        for n in range(m + 1):
            direct = poly_mul(u_poly(m), u_poly(n))
            expanded = [0] * (m + n + 1)
            for deg in linearize(m, n):
                for d2, c2 in enumerate(u_poly(deg)):
                    expanded[d2] += c2
            if list(direct) + [0] * (len(expanded) - len(direct)) != expanded:
                bad += 1
    return _result("1", "linearization exactness to degree 30", bad == 0,
                   f"{bad} mismatches over 496 pairs, exact arithmetic", t0)


def criterion_2() -> CriterionResult:
    t0 = time.perf_counter()
    words = list(iter_words(5, 3))
    vectors = {w: trace.wick_word_vector(w, 12) for w in words}
    bad_exact = 0
    worst = 0.0
    for a in words:
        for b in words:
            want = 1 if a == b else 0
            if trace.trace_reduction(a, b) != want:
                bad_exact += 1
            got = fock.inner(vectors[a], vectors[b]).real
            worst = max(worst, abs(got - float(want)))
    ok = bad_exact == 0 and worst <= 1e-10
    return _result("2", "basis orthonormality, degree 5, 3 letters", ok,
                   f"{len(words)} words, {bad_exact} exact mismatches, "
                   f"fock route max err {worst:.2e}", t0)


def criterion_3() -> CriterionResult:
    t0 = time.perf_counter()
    worst = 0.0
    count = 0
    for length in range(1, 9):
        for code in range(2 ** length):
            letters = tuple((code >> k) & 1 for k in range(length))
            exact = float(trace.trace_pairings(letters))
            got = trace.trace_fock(letters, cap=8)
            worst = max(worst, abs(got - exact))
            count += 1
    return _result("3", "pairing and operator engines on monomials", worst <= 1e-10,
                   f"{count} monomials to length 8, max err {worst:.2e}", t0)


def criterion_4() -> CriterionResult:
    t0 = time.perf_counter()
    law = SemicircleLaw(radius=2.0)
    exact_ok = all(semicircle_moment(2 * n, law) == catalan(n) for n in range(11))
    worst = 0.0
    for n in range(11):
        val = quadrature.quad_semicircle_moment(2 * n, float(law.radius))
        worst = max(worst, abs(val - float(catalan(n))))
    ok = exact_ok and worst <= 1e-10
    return _result("4", "semicircle moments are Catalan numbers", ok,
                   f"exact match {exact_ok}, quadrature max err {worst:.2e}", t0)


def sparse_element(rng: np.random.Generator, n_terms: int = 4) -> FockElement:
    """Random element of n_terms draws: words of length below 4 over
    letters 0..7, complex normal coefficients; repeated words add up."""
    terms: dict[Word, complex] = {}
    for _ in range(n_terms):
        length = int(rng.integers(0, 4))
        letters = tuple(int(x) for x in rng.integers(0, 8, size=length))
        w = normalize(letters)
        coeff = complex(rng.normal(), rng.normal())
        terms[w] = terms.get(w, 0j) + coeff
    return FockElement.from_dict(terms)


def criterion_5() -> CriterionResult:
    t0 = time.perf_counter()
    seq = WeightSequence.linear()
    got = fock.vage_constant(2, seq).b_squared
    closed = 1.0 / (1.0 - math.pi ** 2 / 24.0)
    formula_err = abs(got - closed)

    # enumeration route: the weighted sum over all words with letters
    # below a cutoff factorizes over word length; partial sums must
    # climb monotonically toward the closed form
    partials = []
    for letter_cap in (4, 16, 64, 1024, 16384):
        s = sum((2.0 * n) ** -2 for n in range(1, letter_cap + 1))
        partials.append(sum(s ** k for k in range(0, 61)))
    monotone = all(b > a for a, b in zip(partials, partials[1:]))
    approach = closed - partials[-1]

    # small-cap literal enumeration agrees with the factorized sum
    cap_letters, cap_len = 5, 4
    literal = 0.0
    for length in range(cap_len + 1):
        for code in range(cap_letters ** length):
            word_sum = 1.0
            c = code
            for _ in range(length):
                word_sum *= (2.0 * ((c % cap_letters) + 1)) ** -2
                c //= cap_letters
            literal += word_sum
    s_small = sum((2.0 * n) ** -2 for n in range(1, cap_letters + 1))
    factored = sum(s_small ** k for k in range(cap_len + 1))
    enum_err = abs(literal - factored)

    rng = np.random.default_rng(20260822)
    violations = 0
    checked = 0
    for p, q in ((0, 2), (1, 3), (2, 5)):
        pairs = [(sparse_element(rng), sparse_element(rng)) for _ in range(1000)]
        violations += fock.product_bound_check(pairs, float(p), q - p, seq)[1]
        checked += len(pairs)
    ok = formula_err <= 1e-10 and monotone and 0 < approach < 2e-4 \
        and enum_err <= 1e-12 and violations == 0
    return _result("5", "product-bound constant and inequality", ok,
                   f"closed-form err {formula_err:.2e}, partial sums monotone "
                   f"{monotone} (gap {approach:.2e}), literal enumeration err "
                   f"{enum_err:.2e}, {violations} violations in {checked} pairs x 2 orders",
                   t0)


def criterion_6() -> CriterionResult:
    t0 = time.perf_counter()
    leb = SpectralDensity.lebesgue()
    grid = [0.25 * k for k in range(1, 9)]
    worst = 0.0
    for t in grid:
        for s in grid:
            worst = max(worst, abs(spectral.kernel(leb, t, s) - min(t, s)))
    return _result("6", "flat density gives the Brownian kernel", worst <= 1e-6,
                   f"max |K - min| = {worst:.2e} on the 8x8 grid", t0)


def criterion_7() -> CriterionResult:
    t0 = time.perf_counter()
    worst_ratio_dev = 0.0
    worst_ident = 0.0
    for hurst in (0.25, 0.75):
        dens = SpectralDensity.fbm(hurst)
        diag = [spectral.kernel(dens, t, t) / t ** (2 * hurst)
                for t in (0.5, 1.0, 2.0)]
        dev = (max(diag) - min(diag)) / min(diag)
        worst_ratio_dev = max(worst_ratio_dev, dev)
        for t in (0.5, 1.0, 2.0):
            for s in (0.5, 1.0, 2.0):
                combo = spectral.r_function(dens, t) + spectral.r_function(dens, s) \
                    - spectral.r_function(dens, t - s)
                worst_ident = max(worst_ident,
                                  abs(spectral.kernel(dens, t, s) - combo))
    ok = worst_ratio_dev <= 0.01 and worst_ident <= 1e-9
    return _result("7", "power-law scaling and increment identity", ok,
                   f"diagonal scaling spread {worst_ratio_dev:.2e}, "
                   f"kernel vs increment identity {worst_ident:.2e}", t0)


def criterion_8() -> CriterionResult:
    t0 = time.perf_counter()
    slopes = []
    for dens in (SpectralDensity.lebesgue(), SpectralDensity.fbm(0.75)):
        state = ProcessState(dens, n_max=400, degree_cap=6)
        hs = (1e-2, 1e-3, 1e-4)
        errs = process.derivative_errors(state, 0.7, hs)
        fit = spectral.fit_power_law([1.0 / h for h in hs], errs)
        slopes.append(-fit.exponent)
    ok = all(abs(s - 1.0) <= 0.1 for s in slopes)
    return _result("8", "white noise is the first-order derivative", ok,
                   "finite-difference slopes " + ", ".join(f"{s:.4f}" for s in slopes),
                   t0)


def criterion_9() -> CriterionResult:
    t0 = time.perf_counter()
    leb = SpectralDensity.lebesgue()
    n_max = 64
    state = ProcessState(leb, n_max=n_max, degree_cap=6)
    levels = 8

    path1 = IntegrandPath.dyadic(lambda t: vacuum(), 0.0, 1.0, levels)
    res1 = process.stochastic_integral(state, path1, vacuum(), 0.0, 1.0, levels)
    oracle1 = spectral.alpha_vector(leb, 1.0, n_max)
    err1 = max(abs(res1.extrapolated.coeff(Word((i,))) - oracle1[i])
               for i in range(n_max))

    def path_fn(t: float) -> FockElement:
        return process.apply_process(state, t, vacuum()) if t > 0 else FockElement()

    path2 = IntegrandPath.dyadic(path_fn, 0.0, 1.0, levels)
    res2 = process.stochastic_integral(state, path2, vacuum(), 0.0, 1.0, levels)
    x, w = np.polynomial.legendre.leggauss(64)
    nodes = 0.5 * (x + 1.0)
    weights = 0.5 * w
    a_rows = np.stack([spectral.alpha_vector(leb, float(u), n_max) for u in nodes])
    t_rows = np.stack([spectral.tm_values(leb, float(u), n_max) for u in nodes])
    oracle2 = np.einsum("q,qj,qk->jk", weights, a_rows, t_rows)
    err2 = 0.0
    for j in range(n_max):
        for k in range(n_max):
            err2 = max(err2, abs(res2.extrapolated.coeff(Word((j, k)))
                                 - oracle2[j, k]))

    ratios_ok = res1.converged and res2.converged \
        and all(r <= 0.6 for r in res1.ratios[-3:]) \
        and all(r <= 0.6 for r in res2.ratios[-3:])
    ok = ratios_ok and err1 <= 1e-4 and err2 <= 1e-4
    return _result("9", "Riemann sums converge to the oracle integral", ok,
                   f"converged {ratios_ok}, constant-path err {err1:.2e}, "
                   f"process-path err {err2:.2e}", t0)


_GROWTH_PRESETS = (
    ("lebesgue", SpectralDensity.lebesgue()),
    ("fbm(0.25)", SpectralDensity.fbm(0.25)),
    ("fbm(0.75)", SpectralDensity.fbm(0.75)),
)


# the coefficient peak for index n sits near sqrt(2n), so the scan must
# reach past it for every fitted index or the supremum is undersampled
_SUP_GRID = np.linspace(0.0, 12.0, 121)


def _sup_exponent(dens: SpectralDensity, n_top: int = 60) -> spectral.PowerFit:
    sup = spectral.tm_sup_over_t(dens, n_top, _SUP_GRID)
    ns = np.arange(1, n_top + 1)
    keep = ns >= 12
    return spectral.fit_power_law(ns[keep], sup[keep])


def criterion_10a() -> CriterionResult:
    t0 = time.perf_counter()
    details = []
    ok = True
    for name, dens in _GROWTH_PRESETS:
        template = 0.5 * (dens.class_index + 1)
        fit = _sup_exponent(dens)
        match = abs(fit.exponent - template) <= 0.15
        ok = ok and match
        details.append(f"{name}: fitted {fit.exponent:+.3f} vs template "
                       f"{template:+.2f}")
    return _result("10a", "two-sided growth-exponent match, polynomial presets",
                   ok, "; ".join(details), t0)


def criterion_10b() -> CriterionResult:
    t0 = time.perf_counter()
    dens = SpectralDensity.exponential(rate=1.0)
    sup = spectral.tm_sup_over_t(dens, 60, _SUP_GRID)
    ns = np.arange(1, 61)
    keep = ns >= 12
    fit = spectral.fit_sqrt_exponential(ns[keep], sup[keep])
    ok = fit.exponent > 0 and fit.r_squared >= 0.9
    return _result("10b", "sqrt-exponential growth for the growing preset", ok,
                   f"rate {fit.exponent:.3f} per sqrt(n), R^2 {fit.r_squared:.4f}",
                   t0)


def criterion_10c() -> CriterionResult:
    t0 = time.perf_counter()
    low1 = spectral.certify_tail(SpectralDensity.fbm(0.25), 3, 1.0, n_max=64)
    low2 = spectral.certify_tail(SpectralDensity.lebesgue(), 2, 1.0, n_max=64)
    good = spectral.certify_tail(SpectralDensity.lebesgue(), 3, 1.0, n_max=200)
    ok = low1.status == "uncertified" and low2.status == "uncertified" \
        and good.status == "certified" and good.tail_bound <= 1e-6
    return _result("10c", "tail certification rejects low levels", ok,
                   f"below-threshold statuses {low1.status}/{low2.status}, "
                   f"accepted level tail bound {good.tail_bound:.2e}", t0)


def criterion_11() -> CriterionResult:
    t0 = time.perf_counter()
    cfg = EnsembleConfig(dim=1000, n_generators=2, n_samples=50, seed=2026)
    words: list[tuple[int, ...]] = [()]
    for length in range(1, 7):
        for code in range(2 ** length):
            words.append(tuple((code >> k) & 1 for k in range(length)))
    estimates = matmodel.estimate_trace_many(cfg, words)
    worst_excess = -math.inf
    fails = 0
    for letters, est in zip(words, estimates):
        exact = float(trace.trace_pairings(letters))
        bound = max(3.0 * est.se, 0.02)
        excess = abs(est.mean - exact) - bound
        worst_excess = max(worst_excess, excess)
        if excess > 0:
            fails += 1
    small = EnsembleConfig(dim=64, n_generators=2, n_samples=8, seed=5)
    rerun_ok = matmodel.estimate_trace_many(small, words[:8]) \
        == matmodel.estimate_trace_many(small, words[:8])
    ok = fails == 0 and rerun_ok
    return _result("11", "matrix model reproduces every trace", ok,
                   f"{len(words)} words, {fails} outside max(3 SE, 0.02), "
                   f"worst excess {worst_excess:+.3e}, reruns identical {rerun_ok}",
                   t0)


def criterion_12() -> CriterionResult:
    t0 = time.perf_counter()
    worst = 0.0
    grid = np.linspace(-2.0, 2.0, 5)
    for s in (-0.6, -0.3, 0.3, 0.6):
        for u in grid:
            for v in grid:
                closed = hermite.mehler_closed(float(u), float(v), s)
                series = hermite.mehler_sum(float(u), float(v), s, n_terms=400)
                worst = max(worst, abs(closed - series))
    basis = hermite.HermiteBasis(40)
    gram = basis.gram()
    gram_err = float(np.max(np.abs(gram - np.eye(40))))
    ok = worst <= 1e-8 and gram_err <= 1e-9
    return _result("12", "kernel identity and Gram orthonormality", ok,
                   f"kernel identity max err {worst:.2e}, Gram err {gram_err:.2e}",
                   t0)


CRITERIA: tuple[tuple[str, Callable[[], CriterionResult]], ...] = (
    ("1", criterion_1),
    ("2", criterion_2),
    ("3", criterion_3),
    ("4", criterion_4),
    ("5", criterion_5),
    ("6", criterion_6),
    ("7", criterion_7),
    ("8", criterion_8),
    ("9", criterion_9),
    ("10a", criterion_10a),
    ("10b", criterion_10b),
    ("10c", criterion_10c),
    ("11", criterion_11),
    ("12", criterion_12),
)


def run_all(only: Iterable[str] | None = None) -> list[CriterionResult]:
    wanted = None if only is None else {str(x) for x in only}
    out = []
    for ident, fn in CRITERIA:
        if wanted is not None and ident not in wanted:
            continue
        out.append(fn())
    return out
