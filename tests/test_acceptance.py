"""Acceptance gate: every criterion runs at full size and must pass.

Each test prints one [PASS]/[FAIL] line with the criterion's measured
detail so a verbose run doubles as the acceptance report.  The slow
matrix-model criterion runs last and takes about half a minute.
"""

import math

from freenoise import acceptance, hermite, matmodel, trace


def _check(result):
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] {result.ident} {result.title} "
          f"({result.elapsed:.1f}s): {result.detail}")
    assert result.passed, f"{result.ident} {result.title}: {result.detail}"


def test_criterion_01_linearization_exact_to_degree_30():
    _check(acceptance.criterion_1())


def test_criterion_02_basis_orthonormality():
    _check(acceptance.criterion_2())


def test_criterion_03_engines_agree_on_monomials():
    _check(acceptance.criterion_3())


def test_criterion_04_semicircle_moments_are_catalan():
    _check(acceptance.criterion_4())


def test_criterion_05_product_bound_constant_and_inequality():
    _check(acceptance.criterion_5())


def test_criterion_06_flat_density_gives_brownian_kernel():
    _check(acceptance.criterion_6())


def test_criterion_07_power_law_scaling_and_increment_identity():
    _check(acceptance.criterion_7())


def test_criterion_08_white_noise_is_first_order_derivative():
    _check(acceptance.criterion_8())


def test_criterion_09_riemann_sums_converge():
    _check(acceptance.criterion_9())


def test_criterion_10a_polynomial_growth_exponents():
    # the measured sup-coefficient exponents sit far below the class
    # templates; see the decisions ledger for the full analysis of why
    # this criterion stays red
    _check(acceptance.criterion_10a())


def test_criterion_10b_sqrt_exponential_growth():
    _check(acceptance.criterion_10b())


def test_criterion_10c_certification_rejects_low_levels():
    _check(acceptance.criterion_10c())


def test_criterion_11_matrix_model_reproduces_traces():
    _check(acceptance.criterion_11())


def test_criterion_11_counts_a_nan_estimate_as_outside(monkeypatch):
    # exact traces everywhere but one nan on the last word: nan > 0 is
    # False, so a bare comparison would pass it
    def estimates(cfg, words):
        out = [matmodel.TraceEstimate(float(trace.trace_pairings(w)), 0.0) for w in words]
        if len(words) > 8:
            out[-1] = matmodel.TraceEstimate(math.nan, math.nan)
        return out

    monkeypatch.setattr(matmodel, "estimate_trace_many", estimates)
    result = acceptance.criterion_11()
    assert not result.passed
    assert result.detail.startswith("127 words, 1 outside max(3 SE, 0.02), "
                                    "worst excess +nan, worst |z| against exact "
                                    "N = 1000 nan")


def test_criterion_12_kernel_identity_and_gram():
    _check(acceptance.criterion_12())


def test_criterion_12_checks_the_hermite_rows_the_program_uses(monkeypatch):
    # one part in a million on hfn_40 barely moves the kernel identity,
    # whose series weights that row by s^39, but breaks orthonormality
    real = hermite.hermite_fn_matrix

    def scaled(n_max, u):
        rows = real(n_max, u)
        if n_max >= 40:
            rows[39] *= 1.0 + 1e-6
        return rows

    monkeypatch.setattr(hermite, "hermite_fn_matrix", scaled)
    result = acceptance.criterion_12()
    assert not result.passed
    assert "Gram err 2.00e-06" in result.detail
