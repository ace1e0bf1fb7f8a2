"""Command-line front end over every engine in the package.

Output is machine readable: JSON by default, CSV with a versioned
header for grid-shaped results, and every run echoes the fully
resolved configuration it acted on, so any number can be traced back
to the flags that produced it.  Exit codes are part of the contract:
0 for success, 2 for rejected input, 3 for a computation that did not
converge or an internal cross-check that disagreed.

The FREENOISE_THREADS environment variable caps worker threads for
the Monte Carlo subcommands; results never depend on it.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np

from . import acceptance, chebyshev, fock, matmodel, process, quadrature, spectral, trace, words
from .errors import FreenoiseError, ValidationError
from .parallel import thread_count
from .words import WeightSequence

CSV_FORMAT = "freenoise-csv/1"

_EPILOG = """\
density flags (kernel, rfun, tmcoeff, derivative-check, integrate):
  --density lebesgue|fbm|exp|custom, with --H (fbm), --rate (exp),
  --origin-exponent and --class-index (custom), --scale (every kind),
  --cutoff-low / --cutoff-high.
  --density-config FILE reads 'key = value' lines instead, keys
  kind, H, b, N, C1 (scale), C2 (rate), cutoffs (low,high);
  '#' starts a comment.  A density flag beside it exits 2.
  A flag or key that the kind does not take exits 2.

grids: a time flag accepts a single number, a comma list '0,0.5,1',
or start:stop:count such as '0:2:9'.

environment: FREENOISE_THREADS caps worker threads (default 1).
exit codes: 0 success, 2 invalid input, 3 numerical non-convergence.
"""


def _round_floats(obj):
    """12 significant digits on every float, recursively.

    Non-finite values become strings so the JSON stays strict.
    """
    if isinstance(obj, float):
        if not math.isfinite(obj):
            return str(obj)
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    if value is None:
        return ""
    return str(value)


def _config_echo(args: argparse.Namespace) -> dict:
    cfg = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    cfg["threads"] = thread_count()
    return cfg


def _emit(args: argparse.Namespace, payload: dict,
          rows: list[dict] | None = None) -> None:
    cfg = _config_echo(args)
    if args.format == "csv" and rows:
        print(f"# {CSV_FORMAT}")
        print(f"# config {json.dumps(_round_floats(cfg), sort_keys=True)}")
        for key, value in payload.items():
            print(f"# {key} {json.dumps(_round_floats(value))}")
        writer = csv.writer(sys.stdout)
        writer.writerow(rows[0].keys())
        for row in rows:
            writer.writerow(_cell(v) for v in row.values())
    else:
        doc: dict = {"config": cfg}
        doc.update(payload)
        if rows is not None:
            doc["rows"] = rows
        print(json.dumps(_round_floats(doc), indent=2))


def _parse_grid(text: str, flag: str | None = None) -> list[float]:
    """The values of a grid flag.  A time grid, named by its flag, needs
    a point; the step sizes of --h leave their count to the slope fit."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValidationError(f"grid {text!r} is not start:stop:count")
        try:
            a, b, n = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise ValidationError(f"bad grid {text!r}") from exc
        if n < 1:
            raise ValidationError("grid count must be positive")
        return [float(x) for x in np.linspace(a, b, n)]
    try:
        grid = [float(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise ValidationError(f"bad grid {text!r}") from exc
    if flag and not grid:
        raise ValidationError(f"the {flag} grid {text!r} has no points")
    return grid


# --seq name -> weight sequence; the flag's choices are the keys
_WEIGHT_SEQS = {"2n": WeightSequence.linear, "2^n": WeightSequence.exponential}


def _density_flags(parser: argparse.ArgumentParser) -> None:
    # a density flag left out sets no attribute, so that one given beside
    # --density-config can be told from one left out
    parser.add_argument("--density", default=argparse.SUPPRESS,
                        choices=["lebesgue", "fbm", "exp", "exponential", "custom"])
    for name, row in spectral.DENSITY_SETTINGS.items():
        if name != "density":
            parser.add_argument("--" + name.replace("_", "-"), type=row.convert,
                                default=argparse.SUPPRESS, help=row.help)
    parser.add_argument("--density-config", default=None, metavar="FILE")


def _resolve_density(args: argparse.Namespace) -> spectral.SpectralDensity:
    """The density of the flags or the config file; the echo then shows
    its kind and the settings that kind takes, read back from it."""
    given = {name: getattr(args, name) for name in spectral.DENSITY_SETTINGS
             if hasattr(args, name)}
    if args.density_config:
        if given:
            flags = ", ".join("--" + name.replace("_", "-") for name in given)
            raise ValidationError(f"{flags} given with --density-config, "
                                  "which sets the whole density")
        with open(args.density_config) as fh:
            given = spectral.density_settings(fh.read())
    dens = spectral.build_density(**given)
    vars(args).update({name: getattr(dens, row.field)
                       for name, row in spectral.DENSITY_SETTINGS.items()
                       if dens.kind in row.kinds})
    return dens


def cmd_linearize(args: argparse.Namespace) -> int:
    degrees = chebyshev.linearize(args.m, args.n)
    _emit(args, {
        "terms": [f"U{deg}" for deg in degrees],
        "coefficients": ["1"] * len(degrees),
    })
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    word = words.parse_word(args.word)
    letters = word.letters()
    names = list(trace.ENGINES) if args.engine == "all" else [args.engine]
    results, values = {}, {}
    for name in names:
        try:
            results[name] = trace.ENGINES[name](letters, args.cap)
            values[name] = float(results[name])
            if not math.isfinite(values[name]):
                raise OverflowError(f"the value {values[name]} is not finite")
        except OverflowError as exc:
            # a long word has a trace beyond the float range
            raise FreenoiseError(f"{name} engine failed on a word of degree "
                                 f"{len(word)}: {exc}") from exc
    spread = max(values.values()) - min(values.values())
    agree = spread <= 1e-9
    _emit(args, {
        "word": str(word),
        "degree": len(word),
        "engines": values,
        "max_spread": spread,
        "agree": agree,
        "exact": str(results["reduction"]) if "reduction" in results else None,
    })
    return 0 if agree else 3


def cmd_moments(args: argparse.Namespace) -> int:
    if args.n_max < 0:
        raise ValidationError("--n-max must be non-negative")
    rows = []
    for k in range(args.n_max + 1):
        exact = chebyshev.semicircle_moment(k, args.radius)
        quad = quadrature.quad_semicircle_moment(k, args.radius)
        rows.append({
            "order": k,
            "moment": float(exact),
            "moment_exact": str(exact),
            "quadrature": quad,
            "abs_err": abs(quad - float(exact)),
        })
    worst = max(row["abs_err"] for row in rows)
    _emit(args, {"radius": args.radius, "worst_quadrature_err": worst}, rows)
    return 0 if worst <= 1e-9 else 3


def cmd_vage(args: argparse.Namespace) -> int:
    if args.trials < 0:
        raise ValidationError("--trials must be non-negative")
    if not math.isfinite(args.p):
        raise ValidationError(f"--p must be finite, got {args.p}")
    seq = _WEIGHT_SEQS[args.seq]()
    vc = fock.vage_constant(args.d, seq)
    payload = {"seq": args.seq, "d": args.d,
               "b": vc.b, "b_squared": vc.b_squared}
    status = 0
    if args.trials > 0:
        rng = np.random.default_rng(args.seed)
        p = float(args.p)
        pairs = ((acceptance.sparse_element(rng), acceptance.sparse_element(rng))
                 for _ in range(args.trials))
        worst, violations = fock.product_bound_check(pairs, p, args.d, seq)
        payload.update({"trials": args.trials, "levels": [p, p + args.d],
                        "worst_ratio": worst, "violations": violations})
        if violations:
            status = 3
    _emit(args, payload)
    return status


def cmd_kernel(args: argparse.Namespace) -> int:
    dens = _resolve_density(args)
    t_grid = _parse_grid(args.t, "--t")
    s_grid = _parse_grid(args.s, "--s") if args.s is not None else t_grid
    rows = [{"t": t, "s": s, "K": spectral.kernel(dens, t, s, abs_tol=args.tol)}
            for t in t_grid for s in s_grid]
    try:
        cutoff = spectral.frequency_cutoff(dens)
    except (ValueError, ZeroDivisionError, OverflowError):
        cutoff = None
    _emit(args, {"density": dens.label(), "abs_tol": args.tol,
                 "frequency_cutoff": cutoff}, rows)
    return 0


def cmd_rfun(args: argparse.Namespace) -> int:
    dens = _resolve_density(args)
    rows = [{"t": t, "r": spectral.r_function(dens, t, abs_tol=args.tol)}
            for t in _parse_grid(args.t, "--t")]
    _emit(args, {"density": dens.label(), "abs_tol": args.tol}, rows)
    return 0


def cmd_tmcoeff(args: argparse.Namespace) -> int:
    dens = _resolve_density(args)
    if args.n_max < 1:
        raise ValidationError("--n-max must be positive")
    tm = spectral.tm_values(dens, args.t, args.n_max)
    al = spectral.alpha_vector(dens, args.t, args.n_max)
    rows = [{"n": n + 1, "tm": float(tm[n]), "alpha": float(al[n])}
            for n in range(args.n_max)]
    payload: dict = {"density": dens.label(), "t": args.t}
    status = 0
    if args.certify:
        rep = spectral.certify_tail(dens, args.p, args.t, n_max=args.n_max,
                                    seq=_WEIGHT_SEQS[args.seq]())
        payload["certificate"] = {
            "status": rep.status, "level": rep.level,
            "tail_bound": rep.tail_bound, "fit_kind": rep.fit_kind,
            "fit_exponent": rep.fit_exponent, "r_squared": rep.r_squared,
            "detail": rep.detail,
        }
        status = {"certified": 0, "uncertified": 2, "failed": 3}[rep.status]
    _emit(args, payload, rows)
    return status


def cmd_derivative_check(args: argparse.Namespace) -> int:
    dens = _resolve_density(args)
    state = process.ProcessState(dens, n_max=args.n_max, degree_cap=6)
    hs = _parse_grid(args.h)
    errors, slope = process.derivative_order(state, args.t, hs)
    first_order = abs(slope - 1.0) <= 0.25
    _emit(args, {"density": dens.label(), "t": args.t, "level": state.level,
                 "n_max": args.n_max, "slope": slope, "first_order": first_order},
          [{"h": h, "error": e} for h, e in zip(hs, errors)])
    return 0 if first_order else 3


def cmd_integrate(args: argparse.Namespace) -> int:
    dens = _resolve_density(args)
    if args.b <= args.a:
        raise ValidationError("need --b greater than --a")
    if args.max_terms < 0:
        raise ValidationError("--max-terms must be non-negative")
    state = process.ProcessState(dens, n_max=args.n_max, degree_cap=6,
                                 level=args.p)
    if args.integrand == "vacuum":
        fn = lambda t: fock.vacuum()
    else:
        fn = lambda t: process.apply_process(state, t, fock.vacuum())
    path = process.IntegrandPath.dyadic(fn, args.a, args.b, args.levels)
    res = process.stochastic_integral(state, path, fock.vacuum(),
                                      args.a, args.b, args.levels, q=args.q)
    rows = []
    for j in range(args.levels + 1):
        rows.append({
            "refinement": j,
            "intervals": 2 ** j,
            "distance_to_next": res.distances[j] if j < len(res.distances) else None,
            "ratio": res.ratios[j - 1] if 1 <= j <= len(res.ratios) else None,
        })
    terms = sorted(fock.to_json_terms(res.extrapolated),
                   key=lambda item: -abs(complex(item["re"], item["im"])))
    payload = {
        "density": dens.label(),
        "converged": res.converged,
        "level_p": res.level_p,
        "level_q": res.level_q,
        "norm": fock.norm(res.extrapolated, -float(res.level_q), state.seq),
        "finest_norm": fock.norm(res.value, -float(res.level_q), state.seq),
        "terms_total": len(terms),
        "terms": terms[:args.max_terms],
    }
    _emit(args, payload, rows)
    return 0 if res.converged else 3


def _exact_float(value: Fraction, radius: float) -> float:
    try:
        return float(value)
    except OverflowError as exc:
        raise FreenoiseError(f"the exact trace at radius {radius:g} "
                             f"is beyond the float range: {exc}") from exc


def cmd_simulate(args: argparse.Namespace) -> int:
    word = words.parse_word(args.word)
    letters = word.letters()
    gens = args.gens if args.gens is not None else max(letters, default=0) + 1
    cfg = matmodel.EnsembleConfig(dim=args.dim, n_generators=gens,
                                  n_samples=args.samples, seed=args.seed,
                                  radius=args.radius)
    if args.chebyshev:
        est = matmodel.estimate_trace_uword(cfg, word)
        exact = 1.0 if not word else 0.0
        # the U-word is estimated on the radius-2 ensemble
        terms, radius = matmodel.uword_monomials(word), 2.0
    else:
        est = matmodel.estimate_trace(cfg, letters)
        exact = _exact_float(trace.trace_pairings(letters, radius=args.radius), args.radius)
        terms, radius = {letters: 1}, args.radius
    # one sample gives no standard error, and so no z-score
    se = est.se if cfg.n_samples > 1 else None
    if not (math.isfinite(est.mean) and math.isfinite(est.se)):
        raise FreenoiseError(f"the estimate is not finite: mean {est.mean}, "
                             f"standard error {est.se}")
    finite_n = _exact_float(sum((coeff * trace.trace_finite_n(mono, cfg.dim, radius)
                                 for mono, coeff in terms.items()), Fraction(0)), radius)

    def z_score(target: float) -> float | None:
        return None if se is None else ((est.mean - target) / se if se > 0 else 0.0)

    _emit(args, {"word": str(word), "mode":
                 "chebyshev" if args.chebyshev else "monomial",
                 "mean": est.mean, "se": se, "exact": exact, "z_score": z_score(exact),
                 "exact_finite_n": finite_n, "z_score_finite_n": z_score(finite_n)})
    return 0


def cmd_selftest(args: argparse.Namespace) -> int:
    only = [s.strip() for s in args.only.split(",")] if args.only else None
    results = acceptance.run_all(only=only)
    if args.format != "text":
        rows = [{"id": r.ident, "title": r.title, "passed": r.passed,
                 "elapsed": r.elapsed, "detail": r.detail} for r in results]
        _emit(args, {"passed": sum(r.passed for r in results),
                     "total": len(results),
                     "all_passed": all(r.passed for r in results)}, rows)
    else:
        for r in results:
            flag = "PASS" if r.passed else "FAIL"
            print(f"[{flag}] {r.ident} {r.title} ({r.elapsed:.1f}s): {r.detail}")
        passed = sum(r.passed for r in results)
        print(f"passed {passed} of {len(results)}")
    return 0 if all(r.passed for r in results) else 3


class _Parser(argparse.ArgumentParser):
    """Its usage errors, and its subcommands', are rejected input: run
    prints them as one JSON object, not as usage text."""

    def error(self, message: str):
        raise ValidationError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="freenoise",
        description=__doc__.splitlines()[0],
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    def sub(name: str, func, has_rows: bool = True, **kwargs):
        # only a subcommand whose output has rows can print them as CSV;
        # the others echo format "json" all the same
        p = subs.add_parser(name, **kwargs)
        if has_rows:
            p.add_argument("--format", choices=["json", "csv"])
        p.set_defaults(func=func, format="json")
        return p

    p = sub("linearize", cmd_linearize, has_rows=False,
            help="product of two basis polynomials as a basis combination")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)

    p = sub("trace", cmd_trace, has_rows=False,
            help="trace of a word in the generators")
    p.add_argument("--word", required=True, metavar='"z0^2 z1"')
    p.add_argument("--engine", default="all",
                   choices=[*trace.ENGINES, "all"])
    p.add_argument("--cap", type=int, default=12,
                   help="degree cap for the Fock engine")

    p = sub("moments", cmd_moments,
            help="semicircle moments, exact and by quadrature")
    p.add_argument("--n-max", type=int, default=10)
    p.add_argument("--radius", type=float, default=2.0)

    p = sub("vage", cmd_vage, has_rows=False,
            help="product inequality constant and spot checks")
    p.add_argument("--seq", default="2n", choices=list(_WEIGHT_SEQS))
    p.add_argument("--d", type=float, required=True,
                   help="level offset q - p; the constant depends only on it")
    p.add_argument("--trials", type=int, default=0)
    p.add_argument("--p", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)

    p = sub("kernel", cmd_kernel, help="covariance kernel on a (t, s) grid")
    _density_flags(p)
    p.add_argument("--t", required=True)
    p.add_argument("--s", default=None)
    p.add_argument("--tol", type=float, default=1e-9)

    p = sub("rfun", cmd_rfun, help="second-moment function r(t) on a grid")
    _density_flags(p)
    p.add_argument("--t", required=True)
    p.add_argument("--tol", type=float, default=1e-9)

    p = sub("tmcoeff", cmd_tmcoeff,
            help="multiplier and integrated coefficients, optional certificate")
    _density_flags(p)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--n-max", type=int, default=64)
    p.add_argument("--certify", action="store_true")
    p.add_argument("--p", type=int, default=3, help="weight level to certify")
    p.add_argument("--seq", default="2n", choices=list(_WEIGHT_SEQS))

    p = sub("derivative-check", cmd_derivative_check,
            help="finite differences of the process against the white noise")
    _density_flags(p)
    p.add_argument("--t", type=float, default=0.7)
    p.add_argument("--n-max", type=int, default=200)
    p.add_argument("--h", default="1e-2,1e-3,1e-4",
                   help="comma list of step sizes")

    p = sub("integrate", cmd_integrate,
            help="stochastic integral with its refinement diagnostics")
    _density_flags(p)
    p.add_argument("--a", type=float, default=0.0)
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--levels", type=int, default=6)
    p.add_argument("--p", type=int, default=None, help="state weight level")
    p.add_argument("--q", type=int, default=None,
                   help="norm level for distances, at least p + 2")
    p.add_argument("--n-max", type=int, default=64)
    p.add_argument("--integrand", default="process",
                   choices=["vacuum", "process"])
    p.add_argument("--max-terms", type=int, default=40,
                   help="largest coefficients to include in the output")

    p = sub("simulate", cmd_simulate, has_rows=False,
            help="random-matrix trace estimate against the free limit "
                 "and the exact finite-N value")
    p.add_argument("--word", required=True)
    p.add_argument("--dim", type=int, default=200)
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--gens", type=int, default=None)
    p.add_argument("--radius", type=float, default=2.0)
    p.add_argument("--chebyshev", action="store_true",
                   help="treat the word as an orthonormal basis label")

    p = sub("selftest", cmd_selftest, help="run the acceptance criteria")
    p.add_argument("--only", default=None, metavar="IDS",
                   help='comma list such as "1,5,10a"')
    p.set_defaults(format="text")

    return parser


def run(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except BrokenPipeError:  # a closed stdout; the flush at exit goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except ValidationError as exc:
        print(json.dumps({"error": str(exc), "kind": "validation"}),
              file=sys.stderr)
        return 2
    except FreenoiseError as exc:
        print(json.dumps({"error": str(exc), "kind": "numerical"}),
              file=sys.stderr)
        return 3
    except (ValueError, OSError, MemoryError) as exc:
        print(json.dumps({"error": str(exc), "kind": "validation"}),
              file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
