import json
import math

import pytest

from freenoise.cli import CSV_FORMAT, run


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


def test_trace_rejects_malformed_word(capsys):
    assert run(["trace", "--word", "z0^0"]) == 2
    err = capsys.readouterr().err
    assert json.loads(err)["kind"] == "validation"


def test_trace_pairing_too_deep_exits_three(capsys):
    # the non-crossing count recurses once per pair of letters
    assert run(["trace", "--word", "z0^1000", "--engine", "pairing"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "numerical" and "pairing engine" in err["error"]


def test_trace_reduction_beyond_float_range_exits_three(capsys):
    # the exact trace, Catalan(520), is finite but has no float value
    assert run(["trace", "--word", "z0^1040", "--engine", "reduction"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "numerical" and "reduction engine" in err["error"]


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


def test_vage_small_gap_exits_two(capsys):
    assert run(["vage", "--seq", "2n", "--d", "1", "--trials", "0"]) == 2


def test_rfun_lebesgue(capsys):
    assert run(["rfun", "--density", "lebesgue", "--t", "0.5,1.0,2.0"]) == 0
    out = _json_out(capsys)
    for row in out["rows"]:
        assert float(row["r"]) == pytest.approx(abs(row["t"]) / 2.0, abs=1e-8)


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


def test_density_config_file(tmp_path, capsys):
    cfg = tmp_path / "dens.cfg"
    cfg.write_text("kind = fbm\nH = 0.6\n")
    assert run(["rfun", "--density-config", str(cfg), "--t", "1.0"]) == 0
    out = _json_out(capsys)
    assert out["density"] == "fbm(H=0.6)"
    assert out["config"]["density"] == "fbm" and out["config"]["H"] == 0.6

    # the echo carries the spec the file gave, not the unused flag defaults
    cfg.write_text("kind = custom\nb = 0.5\nN = 1\ncutoffs = 0.1, 40\n")
    assert run(["tmcoeff", "--density-config", str(cfg), "--n-max", "4"]) == 0
    echo = _json_out(capsys)["config"]
    assert {k: echo[k] for k in ("density", "origin_exponent", "class_index",
                                 "cutoff_low", "cutoff_high", "scale", "H")} == {
        "density": "custom", "origin_exponent": 0.5, "class_index": 1,
        "cutoff_low": 0.1, "cutoff_high": 40.0, "scale": 1.0, "H": None}


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


def test_tmcoeff_certified_exit(capsys):
    assert run(["tmcoeff", "--density", "lebesgue", "--t", "1.0",
                "--n-max", "32", "--certify", "--p", "3"]) == 0
    out = _json_out(capsys)
    assert out["certificate"]["status"] == "certified"


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


def test_integrate_converges(capsys):
    assert run(["integrate", "--density", "lebesgue", "--a", "0", "--b", "1",
                "--levels", "6", "--n-max", "24"]) == 0
    out = _json_out(capsys)
    assert out["converged"] is True
    assert out["level_q"] == out["level_p"] + 2
    assert out["rows"][-1]["ratio"] is None
    assert float(out["rows"][-2]["ratio"]) <= 0.6


def test_integrate_low_q_exits_two(capsys):
    assert run(["integrate", "--density", "lebesgue", "--a", "0", "--b", "1",
                "--levels", "4", "--n-max", "24", "--q", "3"]) == 2


def test_simulate_reports_z_score(capsys):
    assert run(["simulate", "--word", "z0 z1 z0 z1", "--dim", "60",
                "--samples", "5", "--seed", "3"]) == 0
    out = _json_out(capsys)
    assert out["exact"] == 0.0
    assert set(out) >= {"config", "word", "mean", "se", "exact", "z_score"}


def test_simulate_chebyshev_mode(capsys):
    assert run(["simulate", "--word", "z0^2", "--dim", "60",
                "--samples", "5", "--seed", "3", "--chebyshev"]) == 0
    out = _json_out(capsys)
    assert out["exact"] == 0.0
    assert out["mode"] == "chebyshev"



def test_simulate_unallocatable_dimension_exits_two(capsys):
    # two generators, so the first allocation is the dense pool
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


def test_every_output_echoes_config(capsys):
    assert run(["rfun", "--density", "lebesgue", "--t", "1.0"]) == 0
    out = _json_out(capsys)
    assert out["config"]["density"] == "lebesgue"
    assert "threads" in out["config"]
