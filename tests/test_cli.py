import argparse
import csv
import importlib.util
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from freenoise import process, spectral, trace
from freenoise.chebyshev import catalan
from freenoise.cli import CSV_FORMAT, _density_flags, run


def _json_out(capsys):
    return json.loads(capsys.readouterr().out)


def test_linearize_terms(capsys):
    assert run(["linearize", "2", "1"]) == 0
    out = _json_out(capsys)
    assert out["terms"] == ["U1", "U3"]
    assert out["coefficients"] == ["1", "1"]
    assert out["config"]["m"] == 2


def test_linearize_rejects_negative_degree(capsys):
    assert run(["linearize", "-3", "1"]) == 2


def test_vage_rejects_negative_trials(capsys):
    assert run(["vage", "--d", "2", "--trials", "-4"]) == 2
    assert json.loads(capsys.readouterr().err)["kind"] == "validation"


def test_integrate_rejects_negative_max_terms(capsys):
    assert run(["integrate", "--max-terms", "-2"]) == 2
    assert json.loads(capsys.readouterr().err)["kind"] == "validation"


def test_unknown_subcommand_exits_two():
    assert run(["frobnicate"]) == 2


def test_trace_engines_agree(capsys):
    assert run(["trace", "--word", "z0^2 z1^2"]) == 0
    out = _json_out(capsys)
    assert out["agree"] is True
    assert out["exact"] == "1"
    engines = out["engines"]
    assert set(engines) == {"reduction", "pairing", "fock"}
    assert float(engines["pairing"]) == pytest.approx(1.0)


@pytest.mark.parametrize("argv", [["linearize", "2", "1"], ["trace", "--word", "z0 z0"],
                                  ["vage", "--d", "2"],
                                  ["simulate", "--word", "z0 z0", "--dim", "8"]])
def test_format_only_where_the_output_has_rows(argv, capsys):
    # these print no rows, so CSV would silently have been JSON
    assert run([*argv, "--format", "csv"]) == 2
    assert "unrecognized arguments: --format csv" in capsys.readouterr().err
    assert run(argv) == 0
    assert _json_out(capsys)["config"]["format"] == "json"


@pytest.mark.parametrize("argv, flag", [(["kernel", "--t", ","], "--t"),
                                        (["kernel", "--t", "1", "--s", ","], "--s"),
                                        (["rfun", "--t", ","], "--t")])
def test_empty_time_grid_exits_two(argv, flag, capsys):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["kind"] == "validation" and f"the {flag} grid" in err["error"]


@pytest.mark.parametrize("argv, message", [
    # argparse reads a negative number with an exponent as a flag
    (["rfun", "--t", "1", "--tol", "-1e-320"], "argument --tol: expected one argument"),
    (["trace"], "the following arguments are required: --word"),
])
def test_usage_errors_print_one_json_object(argv, message, capsys):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    err = json.loads(captured.err)
    assert err["kind"] == "validation" and message in err["error"]


def test_help_still_prints_usage(capsys):
    assert run(["rfun", "--help"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: freenoise rfun") and captured.err == ""


def test_trace_rejects_malformed_word(capsys):
    assert run(["trace", "--word", "z0^0"]) == 2
    err = capsys.readouterr().err
    assert json.loads(err)["kind"] == "validation"


def test_trace_pairing_long_word_answers_whatever_the_cache_holds(capsys):
    # the non-crossing count walks the word on an explicit stack, so a
    # long word answers from an empty cache and after other words filled it
    trace._noncrossing_matched.cache_clear()
    for warm_up in ([], ["selftest", "--only", "1,2,3,4"]):
        if warm_up:
            assert run(warm_up) == 0
            capsys.readouterr()
        started = time.perf_counter()
        assert run(["trace", "--word", "z0^1000", "--engine", "pairing"]) == 0
        assert time.perf_counter() - started <= 2.0
        out = _json_out(capsys)
        assert out["engines"]["pairing"] == pytest.approx(float(catalan(500)), rel=1e-11)


def test_trace_reduction_beyond_float_range_exits_three(capsys):
    # the exact trace, Catalan(520), is finite but has no float value
    assert run(["trace", "--word", "z0^1040", "--engine", "reduction"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "numerical" and "reduction engine" in err["error"]


def test_trace_value_beyond_float_range_exits_three(monkeypatch, capsys):
    # a fake engine stands in for the Fock engine on a word like z0^1040,
    # whose coefficients overflow
    monkeypatch.setitem(trace.ENGINES, "fock", lambda letters, cap: math.inf)
    assert run(["trace", "--word", "z0^4 z1^2"]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    err = json.loads(out.err)
    assert err["kind"] == "numerical"
    assert err["error"].startswith("fock engine failed on a word of degree 6")


@pytest.mark.parametrize("radius, message", [
    ("0", "radius must be positive"),
    ("-1", "radius must be positive"),
    ("nan", "cannot convert NaN to integer ratio"),
])
def test_moments_rejects_a_radius_that_is_not_positive(radius, message, capsys):
    assert run(["moments", "--radius", radius]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert json.loads(out.err) == {"error": message, "kind": "validation"}


def test_moments_rejects_an_infinite_radius(capsys):
    assert run(["moments", "--radius", "inf"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert json.loads(out.err) == {"error": "radius must be finite", "kind": "validation"}


def test_moments_rejects_a_radius_that_overflows_to_infinity(capsys):
    # float("1e400") is inf before the program sees it
    assert run(["moments", "--radius", "1e400"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert json.loads(out.err) == {"error": "radius must be finite", "kind": "validation"}


@pytest.mark.parametrize("radius, message", [
    # x^2 overflows a float on (-1e200, 1e200)
    ("1e200", "moment 2 at radius 1e+200 leaves the float range"),
])
def test_moments_quadrature_out_of_float_range_exits_three(radius, message, capsys):
    assert run(["moments", "--radius", radius]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert json.loads(out.err) == {"error": message, "kind": "numerical"}


@pytest.mark.parametrize("radius", ["1e-200", "1e-160"])
def test_moments_at_a_tiny_radius_match_the_exact_moments(radius, capsys):
    # these exited 3 through the prefactor 2 / (pi r^2) of the density,
    # which the Gauss rule of the unit semicircle does not have
    assert run(["moments", "--radius", radius]) == 0
    for row in _json_out(capsys)["rows"]:
        exact = Fraction(row["moment_exact"])
        assert row["quadrature"] == float(exact) == row["moment"]


def test_rfun_non_finite_quadrature_error_exits_three(capsys):
    # e^{1000 u} overflows on the window (0, 2)
    assert run(["rfun", "--density", "exp", "--rate", "1000", "--cutoff-high", "2",
                "--t", "1"]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert json.loads(out.err) == {"error": "the integrand is not finite at a node",
                                   "kind": "numerical"}


@pytest.mark.parametrize("argv, message", [
    # the head's panels, at most 6 radians of t u wide, would not fit
    (["rfun", "--t", "1e300"],
     "a quadrature rule needs 7.36e+296 MiB, above the bound of 256 MiB"),
    # the byte count itself overflows, to inf and without a numpy warning
    (["rfun", "--t", "1e308"], "a quadrature rule needs inf MiB, above the bound of 256 MiB"),
    # at a subnormal time the rotated tail of fbm(0.01), which falls like
    # y^-2.02, does not fall off before y = 2^1000
    (["kernel", "--density", "fbm", "--H", "0.01", "--t", "5e-324", "--s", "1"],
     "oscillatory quad error 4.77e-05 too large for integral 4.999995e+01 on [1.0, inf]"),
    # a tolerance below the rounding of the rule: its error estimate is above 50 x 1e-20
    (["kernel", "--density", "lebesgue", "--t", "1", "--s", "0.5", "--tol", "1e-20"],
     "oscillatory quad error 4.38e-17 too large for integral -8.441095e-02 on [1.0, inf]"),
], ids=["rfun", "rfun-overflow", "kernel", "kernel-tol"])
def test_quadrature_failure_prints_one_json_line_to_stderr(argv, message):
    # in a fresh interpreter, where no test runner records the warnings
    # that numpy would print to stderr
    env = dict(os.environ, PYTHONPATH=str(Path(process.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "freenoise.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1
    assert json.loads(proc.stderr) == {"error": message, "kind": "numerical"}


@pytest.mark.parametrize("argv, want", [
    (["rfun", "--t", "5e-324"], 2.5e-324),
    (["kernel", "--density", "lebesgue", "--scale", "1e300", "--t", "1"], 1e300),
    (["kernel", "--density", "lebesgue", "--t", "1", "--s", "0.5", "--tol", "5e-16"], 0.5),
], ids=["rfun", "kernel", "kernel-tol"])
def test_former_quadpack_failures_match_the_closed_form_or_exit_three(argv, want, capsys):
    # QUADPACK's Fourier rule refused these, with a nan error estimate, an
    # estimate of 3.84e296 and one above 50 x 5e-16; r = |t| / 2 for the
    # flat density, times its scale, and K(t, s) = min(t, s)
    code = run(argv)
    if code == 3:
        assert json.loads(capsys.readouterr().err)["kind"] == "numerical"
        return
    assert code == 0
    out = _json_out(capsys)
    row = out["rows"][0]
    got = row["r"] if "r" in row else row["K"]
    assert abs(got - want) <= 50 * max(out["abs_tol"], out["abs_tol"] * abs(want))


@pytest.mark.parametrize("argv", [["rfun", "--t", "0.5", "--format", "csv"],
                                  ["tmcoeff", "--n-max", "400"]], ids=["rfun-csv", "tmcoeff"])
def test_a_closed_stdout_exits_zero_with_nothing_on_stderr(argv):
    # the reader is gone before the first write, as with `| head -c 5`
    env = dict(os.environ, PYTHONPATH=str(Path(process.__file__).resolve().parents[1]))
    proc = subprocess.Popen([sys.executable, "-m", "freenoise.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 0
    assert err == b""


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-9"])
def test_kernel_rejects_a_tolerance_that_is_not_finite_and_positive(tol, capsys):
    assert run(["kernel", "--t", "1.0", f"--tol={tol}"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": f"tolerance must be finite and positive, got {float(tol)}",
                   "kind": "validation"}


def test_moments_match_catalan(capsys):
    assert run(["moments", "--n-max", "8"]) == 0
    out = _json_out(capsys)
    by_order = {r["order"]: r for r in out["rows"]}
    assert by_order[6]["moment_exact"] == "5"
    assert float(by_order[8]["moment"]) == pytest.approx(14.0)
    assert float(by_order[4]["quadrature"]) == pytest.approx(2.0, abs=1e-9)
    assert by_order[3]["moment_exact"] == "0"


def test_moments_csv_has_versioned_header(capsys):
    assert run(["moments", "--n-max", "2", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"# {CSV_FORMAT}"
    assert any(line.startswith("# config ") for line in lines)
    header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    assert lines[header_idx].split(",")[0] == "order"


def test_vage_closed_form(capsys):
    assert run(["vage", "--seq", "2n", "--d", "2", "--trials", "0"]) == 0
    out = _json_out(capsys)
    assert float(out["b_squared"]) == pytest.approx(
        1.0 / (1.0 - math.pi ** 2 / 24), rel=1e-9)
    assert float(out["b"]) == pytest.approx(1.3032521813941973, rel=1e-9)


def test_vage_trials_confirm_bound(capsys):
    assert run(["vage", "--seq", "2n", "--d", "2", "--p", "1",
                "--trials", "25", "--seed", "4"]) == 0
    out = _json_out(capsys)
    assert out["violations"] == 0
    assert float(out["worst_ratio"]) <= 1.0


@pytest.mark.parametrize("p", ["nan", "inf", "-inf"])
def test_vage_rejects_a_level_that_is_not_finite(p, capsys):
    assert run(["vage", "--d", "2", f"--p={p}", "--trials", "3"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert json.loads(out.err) == {"error": f"--p must be finite, got {float(p)}",
                                   "kind": "validation"}


def test_vage_small_gap_exits_two(capsys):
    assert run(["vage", "--seq", "2n", "--d", "1", "--trials", "0"]) == 2


@pytest.mark.parametrize("seq, d", [("2n", "5e28"), ("2^n", "1024")])
def test_vage_gap_past_the_float_range_has_b_one(seq, d, capsys):
    # the inverse power sum underflows to 0 (2n, where zeta's Bernoulli
    # factor overflows) or below 2^-1023 (2^n, where 2^d overflows)
    assert run(["vage", "--seq", seq, "--d", d, "--trials", "0"]) == 0
    out = _json_out(capsys)
    assert out["b"] == out["b_squared"] == 1.0


def test_vage_gap_where_two_to_the_d_rounds_to_one_exits_two(capsys):
    # 1 / (2^d - 1) is past the float range at d = 1e-320
    assert run(["vage", "--seq", "2^n", "--d", "1e-320", "--trials", "0"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert json.loads(out.err) == {
        "error": "inverse power sum at gap 1e-320 is inf, need strictly below 1",
        "kind": "validation"}


def test_rfun_lebesgue(capsys):
    assert run(["rfun", "--density", "lebesgue", "--t", "0.5,1.0,2.0"]) == 0
    out = _json_out(capsys)
    for row in out["rows"]:
        assert float(row["r"]) == pytest.approx(abs(row["t"]) / 2.0, abs=1e-8)


def _closed_form_r(hurst, t):
    """perfbench's closed form of r for the fBm presets (H = 1/2 is flat)."""
    name = "perfbench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            name, Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return float(sys.modules[name].fbm_r(hurst, t))


@pytest.mark.parametrize("density", [["lebesgue"], ["fbm", "--H", "0.3"], ["fbm", "--H", "0.75"]],
                         ids=["lebesgue", "fbm0.3", "fbm0.75"])
@pytest.mark.parametrize("t", ["1e-9", "1e-7", "1e-6", "3e-6", "1e-5"])
def test_rfun_at_small_times_matches_the_closed_form_or_exits_three(density, t, capsys):
    # QUADPACK's Fourier rule at frequency |t| once gave r = 1/pi here with exit 0
    code = run(["rfun", "--density", *density, "--t", t])
    if code == 3:
        assert json.loads(capsys.readouterr().err)["kind"] == "numerical"
        return
    assert code == 0
    out = _json_out(capsys)
    hurst = float(density[2]) if len(density) > 1 else 0.5
    want = _closed_form_r(hurst, float(t))
    assert abs(float(out["rows"][0]["r"]) - want) <= 50 * out["abs_tol"]


def test_kernel_a_microsecond_apart_is_the_flat_covariance(capsys):
    # K(1, 1 + 1e-6) = min(t, s) = 1 needs r(1e-6) = 5e-7; it printed 0.68
    code = run(["kernel", "--t", "1", "--s", "1.000001"])
    if code == 3:
        assert json.loads(capsys.readouterr().err)["kind"] == "numerical"
        return
    assert code == 0
    assert float(_json_out(capsys)["rows"][0]["K"]) == pytest.approx(1.0, abs=1e-8)


def test_rfun_divergent_density_exits_two(capsys):
    # an inherently divergent covariance is a rejected configuration,
    # not a numerical failure
    assert run(["rfun", "--density", "exp", "--rate", "1.0",
                "--t", "1.0"]) == 2
    assert json.loads(capsys.readouterr().err)["kind"] == "validation"


@pytest.mark.parametrize("argv", [
    ["kernel", "--density", "fbm", "--H", "0.3", "--scale", "nan", "--t", "1.0"],
    ["kernel", "--density", "lebesgue", "--scale", "inf", "--t", "1.0"],
    ["tmcoeff", "--density", "exp", "--rate", "inf", "--t", "1.0"],
    ["tmcoeff", "--density", "exp", "--rate", "nan", "--t", "1.0"],
])
def test_non_finite_density_parameters_exit_two(argv, capsys):
    assert run(argv) == 2
    assert json.loads(capsys.readouterr().err)["kind"] == "validation"


@pytest.mark.parametrize("argv", [
    ["kernel", "--t", "nan"],
    ["kernel", "--t", "1.0", "--s", "inf"],
    ["rfun", "--t", "nan"],
    ["tmcoeff", "--t", "nan"],
    ["tmcoeff", "--t", "inf", "--n-max", "4"],
    ["derivative-check", "--t", "nan"],
    ["integrate", "--b", "inf"],
])
def test_non_finite_times_exit_two(argv, capsys):
    assert run(argv) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "validation" and "finite" in err["error"]


def test_scale_applies_to_the_lebesgue_density(capsys):
    assert run(["rfun", "--density", "lebesgue", "--scale", "2", "--t", "1.0"]) == 0
    assert float(_json_out(capsys)["rows"][0]["r"]) == pytest.approx(1.0, abs=1e-8)


def test_overflowing_exponential_density_exits_three(capsys):
    assert run(["tmcoeff", "--density", "exp", "--rate", "60", "--t", "1.0",
                "--n-max", "64"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "numerical" and "not finite" in err["error"]


@pytest.mark.parametrize("n_max, last, first, message", [
    # e^{rate u / 2} overflows on the layout (0, 38.61] for rate > 36.77
    ("64", "36", "37", "not finite"),
    # the integrand at 37.6, where the Hermite rows start to lose bits,
    # is above 1e-11 of its peak for rate > 18.49
    ("512", "18", "19", "the Hermite rows lose bits")], ids=["64", "512"])
def test_exponential_density_exits_three_where_its_pass_is_unresolved(
        cli_child, n_max, last, first, message):
    argv = ["tmcoeff", "--density", "exp", "--t", "1", "--n-max", n_max, "--rate"]
    assert cli_child(argv + [last]).returncode == 0
    proc = cli_child(argv + [first])
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1
    err = json.loads(proc.stderr)
    assert err["kind"] == "numerical" and message in err["error"]


@pytest.mark.parametrize("low", ["37.6", "37.7", "40"])
@pytest.mark.parametrize("command", [["tmcoeff", "--t", "1"], ["tmcoeff", "--t", "1", "--certify"],
                                     ["derivative-check", "--t", "1"], ["integrate"]],
                         ids=["tmcoeff", "certify", "derivative-check", "integrate"])
def test_window_past_the_exact_rows_exits_three(command, low, capsys):
    # from EXACT_TO = 37.6 on the rows are subnormal, then +0.0: a window
    # that starts there has no exact row to integrate
    argv = command + ["--density", "lebesgue", "--cutoff-low", low, "--cutoff-high", "50",
                      "--n-max", "16"]
    assert run(argv) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "numerical"
    assert f"the window [{low}, 50] of lebesgue starts at or past u = 37.6" in err["error"]


def test_fbm_requires_hurst(capsys):
    assert run(["rfun", "--density", "fbm", "--t", "1.0"]) == 2


def test_kernel_grid(capsys):
    assert run(["kernel", "--density", "lebesgue",
                "--t", "0.5,1.0", "--s", "0.25,0.75"]) == 0
    out = _json_out(capsys)
    assert len(out["rows"]) == 4
    for row in out["rows"]:
        assert float(row["K"]) == pytest.approx(
            min(row["t"], row["s"]), abs=1e-8)


@pytest.mark.parametrize("flags", [["--density", "fbm", "--H", "0.001"],
                                   ["--density", "lebesgue", "--scale", "1e300"],
                                   ["--density", "lebesgue", "--scale", "1e308"]],
                         ids=["fbm-0.001", "scale-1e300", "scale-1e308"])
def test_kernel_frequency_cutoff_past_the_float_range_reads_inf(flags, capsys):
    # the bound on the tail frequency is past the float range, which the
    # strict JSON prints as "inf", not as a silent null
    assert run(["kernel", "--t", "1", *flags]) == 0
    assert _json_out(capsys)["frequency_cutoff"] == "inf"


def test_kernel_n_max_adds_the_coefficient_route(capsys):
    assert run(["kernel", "--density", "fbm", "--H", "0.6", "--t", "0.7,1.5", "--s", "0.4",
                "--n-max", "8"]) == 0
    out = _json_out(capsys)
    dens = spectral.SpectralDensity.fbm(0.6)
    for row in out["rows"]:
        k_n = spectral.dual_route_kernel(dens, row["t"], row["s"], 8)
        assert row["K_N"] == float(f"{k_n:.12g}")
        assert row["abs_err"] == float(f"{abs(spectral.kernel(dens, row['t'], row['s']) - k_n):.12g}")
    assert out["config"]["n_max"] == 8
    # without the flag the rows are the kernel's alone
    assert run(["kernel", "--t", "1"]) == 0
    out = _json_out(capsys)
    assert list(out["rows"][0]) == ["t", "s", "K"] and out["config"]["n_max"] is None


@pytest.mark.parametrize("density, flags", [
    (spectral.SpectralDensity.lebesgue(), ["--density", "lebesgue"]),
    (spectral.SpectralDensity.exponential(1.0), ["--density", "exp"]),
], ids=["lebesgue", "exp"])
def test_growth_prints_the_sup_growth_fit(density, flags, capsys):
    assert run(["growth", *flags]) == 0
    out = _json_out(capsys)
    sups, fit = spectral.sup_growth_fit(density, 60, np.linspace(0, 12, 121), 12)
    assert [row["n"] for row in out["rows"]] == list(range(1, 61))
    assert [row["sup"] for row in out["rows"]] == [float(f"{v:.12g}") for v in sups]
    assert out["fit_kind"] == ("power" if density.growth == "polynomial" else "sqrt-exponential")
    assert out["exponent"] == float(f"{fit.exponent:.12g}")
    assert out["r_squared"] == float(f"{fit.r_squared:.12g}")
    assert out["density"] == density.label()


def test_growth_csv_has_the_fit_in_its_header(capsys):
    assert run(["growth", "--density", "fbm", "--H", "0.25", "--n-max", "20",
                "--fit-from", "8", "--t", "0:8:21", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"# {CSV_FORMAT}"
    sups, fit = spectral.sup_growth_fit(spectral.SpectralDensity.fbm(0.25), 20,
                                        np.linspace(0, 8, 21), 8)
    assert lines[2:6] == ['# density "fbm(H=0.25)"', '# fit_kind "power"',
                          f"# exponent {float(f'{fit.exponent:.12g}')}",
                          f"# r_squared {float(f'{fit.r_squared:.12g}')}"]
    assert lines[6] == "n,sup"
    assert lines[7:] == [f"{n},{v:.12g}" for n, v in enumerate(sups, start=1)]


@pytest.mark.parametrize("flags", [["--density", "lebesgue"], ["--density", "fbm", "--H", "0.25"],
                                   ["--density", "fbm", "--H", "0.75"],
                                   ["--density", "exp", "--rate", "1"]],
                         ids=["lebesgue", "fbm-0.25", "fbm-0.75", "exp"])
def test_growth_and_the_certificate_fit_by_the_same_law(flags, capsys):
    # under the linear weights --seq 2n, the law is the growth class's alone
    run(["tmcoeff", *flags, "--certify", "--seq", "2n"])
    certified = _json_out(capsys)["certificate"]["fit_kind"]
    assert run(["growth", *flags, "--n-max", "20", "--fit-from", "8", "--t", "0:4:5"]) == 0
    assert _json_out(capsys)["fit_kind"] == certified


@pytest.mark.parametrize("argv, message", [
    (["growth", "--fit-from", "59"], "need at least 3 points for a growth fit"),
    (["growth", "--n-max", "513"], "n_max 513 is above 512, the bound of the Hermite recurrence"),
    (["growth", "--n-max", "-3"], "n_max must be >= 1"),
    (["growth", "--t", "nan"], "time must be finite, got nan"),
    (["kernel", "--t", "1", "--n-max", "0"], "n_max must be >= 1"),
    (["kernel", "--density", "exp", "--t", "1", "--n-max", "8"],
     "covariance integral diverges at infinity for exponential(rate=1)"),
    (["integrate", "--a", "1", "--b", "0.5"], "need finite a < b, got a = 1.0, b = 0.5"),
    (["integrate", "--a", "nan", "--b", "1"], "need finite a < b, got a = nan, b = 1.0"),
    (["tmcoeff", "--n-max", "0"], "n_max must be >= 1"),
], ids=["growth-fit-from", "growth-n-max", "growth-negative-n-max", "growth-nan", "kernel-n-max", "kernel-exp",
        "integrate-reversed", "integrate-nan", "tmcoeff-n-max"])
def test_the_library_refuses_the_input_and_the_cli_exits_two(argv, message, capsys):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert json.loads(captured.err) == {"error": message, "kind": "validation"}


def test_density_config_file(tmp_path, capsys):
    cfg = tmp_path / "dens.cfg"
    cfg.write_text("kind = fbm\nH = 0.6\n")
    assert run(["rfun", "--density-config", str(cfg), "--t", "1.0"]) == 0
    out = _json_out(capsys)
    assert out["density"] == "fbm(H=0.6)"
    assert out["config"]["density"] == "fbm" and out["config"]["H"] == 0.6

    # the echo carries the spec the file gave and the defaults of the
    # settings its kind takes, and no other setting
    cfg.write_text("kind = custom\nb = 0.5\nN = 1\ncutoffs = 0.1, 40\n")
    assert run(["tmcoeff", "--density-config", str(cfg), "--n-max", "4"]) == 0
    echo = _json_out(capsys)["config"]
    assert {k: echo[k] for k in spectral.DENSITY_SETTINGS if k in echo} == {
        "density": "custom", "origin_exponent": 0.5, "class_index": 1,
        "cutoff_low": 0.1, "cutoff_high": 40.0, "scale": 1.0}


@pytest.mark.parametrize("text", ["kind = custom\nN = 0.9", "kind = fbm"])
def test_density_config_follows_the_flag_rules(tmp_path, capsys, text):
    cfg = tmp_path / "dens.cfg"
    cfg.write_text(text)
    assert run(["rfun", "--density-config", str(cfg), "--t", "1.0"]) == 2
    assert json.loads(capsys.readouterr().err)["kind"] == "validation"


@pytest.mark.parametrize("flag", [["--scale", "3"], ["--scale", "1"],
                                  ["--H", "0.3"], ["--density", "lebesgue"],
                                  ["--cutoff-high", "40"], ["--class-index", "0"]])
def test_density_flag_beside_config_exits_two(tmp_path, capsys, flag):
    # a flag the file would override is rejected, even at its default
    cfg = tmp_path / "dens.cfg"
    cfg.write_text("kind = lebesgue\n")
    assert run(["rfun", "--density-config", str(cfg), "--t", "1.0"] + flag) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["kind"] == "validation" and flag[0] in err["error"]


@pytest.mark.parametrize("density", [
    ["--density", "lebesgue", "--H", "0.3"],
    ["--density", "lebesgue", "--rate", "1"],
    ["--density", "fbm", "--H", "0.3", "--origin-exponent", "0.5"],
    ["--density", "fbm", "--H", "0.3", "--class-index", "2"],
    ["--density", "custom", "--rate", "2"],
    ["--density", "exp", "--H", "0.4"],
], ids=lambda argv: " ".join(argv))
def test_density_flag_the_kind_does_not_take_exits_two(density, capsys):
    # refused, not dropped: the echo would print a setting the density never saw
    assert run(["tmcoeff", "--t", "1", "--n-max", "4", *density]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    err = json.loads(captured.err)
    assert err["kind"] == "validation" and f"takes no {density[-2]} " in err["error"]


@pytest.mark.parametrize("text, key", [
    ("kind = lebesgue\nH = 0.3", "H"),
    ("kind = fbm\nH = 0.3\nN = 1", "N"),
    ("kind = lebesgue\nC2 = 5", "C2"),
])
def test_density_config_key_the_kind_does_not_take_exits_two(tmp_path, capsys, text, key):
    cfg = tmp_path / "dens.cfg"
    cfg.write_text(text)
    assert run(["tmcoeff", "--density-config", str(cfg), "--t", "1", "--n-max", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    err = json.loads(captured.err)
    assert err["kind"] == "validation" and f"(config key {key})" in err["error"]


def test_density_flags_are_the_settings_table():
    parser = argparse.ArgumentParser()
    _density_flags(parser)
    actions = [a for a in parser._actions if a.dest != "help"]
    assert [a.dest for a in actions] == [*spectral.DENSITY_SETTINGS, "density_config"]
    assert actions[0].option_strings == ["--density"] and actions[0].choices == [
        "lebesgue", "fbm", "exp", "exponential", "custom"]
    for action, (name, row) in zip(actions[1:], list(spectral.DENSITY_SETTINGS.items())[1:]):
        assert action.option_strings == ["--" + name.replace("_", "-")]
        assert (action.type, action.help) == (row.convert, row.help)
    # a flag left out sets nothing, so the echo holds only what was used
    assert all(a.default is argparse.SUPPRESS for a in actions[:-1])


def test_tmcoeff_certified_exit(capsys):
    assert run(["tmcoeff", "--density", "lebesgue", "--t", "1.0",
                "--n-max", "32", "--certify", "--p", "3"]) == 0
    out = _json_out(capsys)
    assert out["certificate"]["status"] == "certified"


def test_tmcoeff_of_the_flat_density_at_a_large_time_prints_zero(capsys):
    # tm_n(100) is the Hermite function h_n(100), 0 in floats; graded
    # panels that spanned 50 radians of cos(100 u) printed tm_1 = -1.2e-3
    assert run(["tmcoeff", "--t", "100", "--n-max", "4"]) == 0
    rows = _json_out(capsys)["rows"]
    assert [row["n"] for row in rows] == [1, 2, 3, 4]
    assert all(abs(row["tm"]) <= 1e-15 for row in rows)


def test_tmcoeff_above_the_hermite_bound_exits_two(capsys):
    # the recurrence reads 0 where hfn_n is O(0.1) once n passes ~750
    assert run(["tmcoeff", "--n-max", "800"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "n_max 800 is above 512, the bound of the Hermite recurrence",
        "kind": "validation"}


def test_tmcoeff_uncertified_exit(capsys):
    assert run(["tmcoeff", "--density", "lebesgue", "--t", "1.0",
                "--n-max", "32", "--certify", "--p", "2"]) == 2
    out = _json_out(capsys)
    assert out["certificate"]["status"] == "uncertified"


def test_derivative_check_first_order(capsys):
    assert run(["derivative-check", "--density", "lebesgue",
                "--t", "0.8", "--n-max", "24"]) == 0
    out = _json_out(capsys)
    assert out["first_order"] is True
    assert abs(out["slope"] - 1.0) <= 0.25


@pytest.mark.parametrize("steps", ["1e-2,1e-3", ",", "1e-3"])
def test_derivative_check_needs_three_steps(steps, monkeypatch, capsys):
    def no_process_work(*args):
        raise AssertionError("process work before the step count was checked")

    monkeypatch.setattr(process, "derivative_errors", no_process_work)
    assert run(["derivative-check", "--n-max", "24", "--h", steps]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    err = json.loads(out.err)
    assert err["kind"] == "validation"
    assert err["error"].startswith("the slope fit needs at least 3 step sizes")


def test_integrate_converges(capsys):
    assert run(["integrate", "--density", "lebesgue", "--a", "0", "--b", "1",
                "--levels", "6", "--n-max", "24"]) == 0
    out = _json_out(capsys)
    assert out["converged"] is True
    assert out["level_q"] == out["level_p"] + 2
    assert out["rows"][-1]["ratio"] is None
    assert float(out["rows"][-2]["ratio"]) <= 0.6


def test_integrate_prints_the_refinement_study(capsys):
    # the mesh-refinement table: distances falling at first order, ratios
    # settling near one half, the finest sum's norm beside the
    # extrapolated one
    assert run(["integrate", "--density", "lebesgue", "--levels", "6", "--n-max", "48",
                "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    header = {line.split(" ", 2)[1]: json.loads(line.split(" ", 2)[2])
              for line in lines if line.startswith("# ") and " " in line[2:]}
    assert f"{header['finest_norm']:.10g}" == "0.006481352624"
    assert f"{header['norm']:.10g}" == "0.006556373848"
    rows = list(csv.DictReader(line for line in lines if not line.startswith("#")))
    assert [f"{float(r['distance_to_next']):.6g}" for r in rows[:-1]] == [
        "0.00377494", "0.00149941", "0.000669731", "0.000315829", "0.00015323",
        "7.54508e-05"]
    assert [f"{float(r['ratio']):.6g}" for r in rows[1:-1]] == [
        "0.397202", "0.446662", "0.471576", "0.485168", "0.492402"]


def test_integrate_on_a_fine_grid_reads_each_tag(capsys):
    # tag step 6.1e-13; near 0 alpha_0(u) = pi^(-1/4) u and the noise
    # coefficient is pi^(-1/4), so the z0^2 coefficient is pi^(-1/2) b^2 / 2
    b = 1e-8
    assert run(["integrate", "--a", "0", "--b", str(b), "--levels", "14",
                "--n-max", "16"]) == 0
    out = _json_out(capsys)
    z00 = next(t["re"] for t in out["terms"] if t["word"] == "z0^2")
    assert z00 == pytest.approx(math.pi ** -0.5 * b * b / 2, rel=1e-9, abs=0.0)


def test_integrate_verdict_does_not_depend_on_the_norm_level(capsys):
    # at --q 60 the distances are about 1e-19, so a rounding floor that
    # does not scale with the sums' norm would read them all as noise:
    # converged with too few levels, and every ratio printed as 0
    for q in ("5", "60"):
        assert run(["integrate", "--levels", "3", "--n-max", "16", "--q", q]) == 3
        assert _json_out(capsys)["converged"] is False
    assert run(["integrate", "--levels", "4", "--n-max", "16", "--q", "60"]) == 0
    ratios = [row["ratio"] for row in _json_out(capsys)["rows"][1:-1]]
    assert ratios == pytest.approx([0.394, 0.443, 0.469], abs=1e-3)


def test_integrate_low_q_exits_two(capsys):
    assert run(["integrate", "--density", "lebesgue", "--a", "0", "--b", "1",
                "--levels", "4", "--n-max", "24", "--q", "3"]) == 2


def test_simulate_reports_z_score(capsys):
    assert run(["simulate", "--word", "z0 z1 z0 z1", "--dim", "60",
                "--samples", "5", "--seed", "3"]) == 0
    out = _json_out(capsys)
    assert out["exact"] == 0.0
    assert set(out) >= {"config", "word", "mean", "se", "exact", "z_score"}


@pytest.mark.parametrize("word, flags, finite_n", [
    # genus counts (0, 1) and (2, 1): E tr_N = N^-2 and 2 + N^-2
    ("z0 z1 z0 z1", [], 1 / 20 ** 2),
    ("z0^4", ["--radius", "1.7"], 0.85 ** 4 * (2 + 1 / 20 ** 2)),
    # U_4(x / 2) = x^4 - 3 x^2 + 1 on the radius-2 ensemble at any radius
    ("z0^4", ["--chebyshev", "--radius", "1.7"], 1 / 20 ** 2),
    ("z0^2 z1^2", ["--chebyshev"], 0.0),
    ("1", ["--chebyshev"], 1.0),
])
def test_simulate_reports_the_exact_finite_n_trace(word, flags, finite_n, capsys):
    assert run(["simulate", "--word", word, "--dim", "20", "--samples", "3",
                "--seed", "3", *flags]) == 0
    out = _json_out(capsys)
    # the JSON output keeps 12 significant digits
    assert out["exact_finite_n"] == pytest.approx(finite_n, rel=1e-11, abs=0.0)
    if out["se"]:
        assert out["z_score_finite_n"] == pytest.approx(
            (out["mean"] - out["exact_finite_n"]) / out["se"], rel=1e-6)
    # the free-limit fields are unchanged beside it
    free = {"z0 z1 z0 z1": 0.0, "z0^4": 0.85 ** 4 * 2}.get(word, 0.0)
    if "--chebyshev" in flags:
        free = 1.0 if word == "1" else 0.0
    assert out["exact"] == pytest.approx(free, rel=1e-11)


def test_simulate_one_sample_has_no_standard_error(capsys):
    assert run(["simulate", "--word", "z0 z1 z0 z1", "--dim", "20",
                "--samples", "1", "--seed", "3"]) == 0
    out = _json_out(capsys)
    assert out["se"] is None and out["z_score"] is None
    assert out["z_score_finite_n"] is None
    assert math.isfinite(out["mean"])


def test_simulate_non_finite_estimate_exits_three(capsys):
    # z0^3 at radius 1e200 overflows in every sample
    assert run(["simulate", "--word", "z0^3", "--radius", "1e200", "--dim", "20",
                "--samples", "3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "the estimate is not finite: mean nan, standard error nan",
        "kind": "numerical"}


@pytest.mark.parametrize("word, message", [
    ("z0^3", "the estimate is not finite: mean nan, standard error nan"),
    # the exact trace radius^2 / 4 used to raise an uncaught OverflowError (exit 1)
    ("z0^2", "the exact trace at radius 1e+200 is beyond the float range: "
             "integer division result too large for a float"),
])
def test_simulate_overflow_prints_one_json_line_to_stderr(cli_child, word, message):
    # numpy's overflow warnings in power, Gram, matmul and the column
    # statistics must not reach stderr
    proc = cli_child(["simulate", "--word", word, "--radius", "1e200", "--dim", "20",
                      "--samples", "3"])
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1
    assert json.loads(proc.stderr) == {"error": message, "kind": "numerical"}


@pytest.mark.parametrize("word, radii", [
    # radius^-3, the top coefficient of U_2(x / r) U_1(x / r), overflows a
    # float below 1e-103
    ("z0^2 z1", ["1e-140", "1e-100"]),
    # the monomial traces of this ensemble overflow
    ("z0^12", ["1e200"]),
], ids=["small-radius", "large-radius"])
def test_simulate_chebyshev_at_extreme_radii_prints_the_radius_2_estimate(cli_child, word,
                                                                         radii):
    # a U-word trace does not depend on the radius, so every radius
    # prints the radius-2 estimate
    def simulate(radius):
        proc = cli_child(["simulate", "--chebyshev", "--word", word, "--radius", radius,
                          "--dim", "8", "--samples", "2", "--seed", "4"])
        assert proc.returncode == 0
        assert proc.stderr == ""
        return json.loads(proc.stdout)

    base = simulate("2")
    for radius in radii:
        out = simulate(radius)
        assert out["config"]["radius"] == float(radius)
        assert out["mean"] == pytest.approx(base["mean"], rel=1e-12, abs=0.0)
        assert out["se"] == pytest.approx(base["se"], rel=1e-12, abs=0.0)


@pytest.mark.parametrize("argv, message", [
    # 6.75e6 panels; numpy used to fail to allocate 619 MiB after 4.6 s
    (["tmcoeff", "--t", "1e6", "--n-max", "4"],
     "the multiplier layout at t = 1e+06, n_max 4 needs 1.48e+04 MiB, "
     "above the bound of 256 MiB"),
    # a panel width below half an ulp, which used to loop without end
    (["tmcoeff", "--t", "1e18", "--n-max", "16"],
     "the multiplier layout at t = 1e+18, n_max 16 needs 2.72e+16 MiB, "
     "above the bound of 256 MiB"),
    # 2^30 tags, which used to run out of memory
    (["integrate", "--n-max", "16", "--levels", "30"],
     "levels must be between 0 and 16, got 30"),
    (["integrate", "--levels", "-1"], "levels must be between 0 and 16, got -1"),
], ids=["tmcoeff-1e6", "tmcoeff-1e18", "integrate-levels-30", "integrate-levels-minus-1"])
def test_work_above_its_bound_is_rejected_before_it_starts(cli_child, argv, message):
    proc = cli_child(argv, timeout=30.0)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1
    assert json.loads(proc.stderr) == {"error": message, "kind": "validation"}


def test_simulate_chebyshev_mode(capsys):
    assert run(["simulate", "--word", "z0^2", "--dim", "60",
                "--samples", "5", "--seed", "3", "--chebyshev"]) == 0
    out = _json_out(capsys)
    assert out["exact"] == 0.0
    assert out["mode"] == "chebyshev"



def test_simulate_unallocatable_dimension_exits_two(capsys):
    # two generators, so the first allocation is the dense letter's buffer
    assert run(["simulate", "--word", "z0 z1", "--dim", "100000000",
                "--samples", "1"]) == 2
    assert json.loads(capsys.readouterr().err)["kind"] == "validation"


@pytest.mark.parametrize("flags", [["--radius", "inf"], ["--radius", "nan"],
                                   ["--radius", "-1"], ["--gens", "0"]])
def test_simulate_rejects_bad_ensemble(flags, capsys):
    assert run(["simulate", "--word", "z0 z0", "--dim", "8",
                "--samples", "2", *flags]) == 2
    assert json.loads(capsys.readouterr().err)["kind"] == "validation"

def test_selftest_text_output(capsys):
    assert run(["selftest", "--only", "1,4"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out
    assert "passed 2 of 2" in out


@pytest.mark.parametrize("only", ["99", "1,x"])
def test_selftest_unknown_id_exits_two(only, capsys):
    assert run(["selftest", "--only", only]) == 2
    assert json.loads(capsys.readouterr().err)["kind"] == "validation"


def test_selftest_csv_output(capsys):
    assert run(["selftest", "--only", "4", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"# {CSV_FORMAT}"
    body = [line for line in lines if not line.startswith("#")]
    assert body[0] == "id,title,passed,elapsed,detail"
    assert len(body) == 2 and body[1].startswith("4,") and ",True," in body[1]


def test_selftest_json_output(capsys):
    assert run(["selftest", "--only", "5", "--format", "json"]) == 0
    out = _json_out(capsys)
    assert out["passed"] == 1
    assert out["all_passed"] is True
    assert out["rows"][0]["passed"] is True


@pytest.mark.parametrize("argv, echo", [
    (["rfun", "--density", "lebesgue", "--t", "0.5,1.0,2.0"],
     {"density": "lebesgue", "scale": 1.0, "cutoff_low": 0.0, "cutoff_high": "inf"}),
    (["tmcoeff", "--density", "exp", "--n-max", "4"],
     {"density": "exponential", "rate": 1.0, "scale": 1.0, "cutoff_low": 0.0,
      "cutoff_high": "inf"}),
    (["tmcoeff", "--density", "fbm", "--H", "0.3", "--n-max", "4", "--cutoff-high", "9"],
     {"density": "fbm", "H": 0.3, "scale": 1.0, "cutoff_low": 0.0, "cutoff_high": 9.0}),
    (["tmcoeff", "--density", "custom", "--class-index", "1", "--n-max", "4"],
     {"density": "custom", "origin_exponent": 0.0, "class_index": 1, "scale": 1.0,
      "cutoff_low": 0.0, "cutoff_high": "inf"}),
])
def test_the_echo_shows_the_settings_the_kind_takes_and_no_other(argv, echo, capsys):
    assert run(argv) == 0
    config = _json_out(capsys)["config"]
    assert {k: config[k] for k in spectral.DENSITY_SETTINGS if k in config} == echo


def test_every_output_echoes_config(capsys):
    assert run(["rfun", "--density", "lebesgue", "--t", "1.0"]) == 0
    out = _json_out(capsys)
    assert out["config"]["density"] == "lebesgue"
    assert "threads" in out["config"]
