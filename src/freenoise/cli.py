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
import dataclasses
import json
import math
import sys

import numpy as np

from . import acceptance, chebyshev, fock, matmodel, process, quadrature, spectral, trace, words
from .errors import FreenoiseError, ValidationError
from .parallel import thread_count
from .spectral import DensitySpec, SpectralDensity
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


def _parse_grid(text: str) -> list[float]:
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
        return [float(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise ValidationError(f"bad grid {text!r}") from exc


def _weight_seq(name: str) -> WeightSequence:
    if name == "2n":
        return WeightSequence.linear()
    if name == "2^n":
        return WeightSequence.exponential()
    raise ValidationError(f"unknown weight sequence {name!r}")


# density flag dest -> default; the flags default to None so that a flag
# given beside --density-config can be told from one left out
_DENSITY_DEFAULTS = {"density": "lebesgue", "H": None, "scale": 1.0,
                     "rate": 1.0, "origin_exponent": 0.0, "class_index": 0,
                     "cutoff_low": 0.0, "cutoff_high": math.inf}


def _density_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--density", default=None,
                        choices=["lebesgue", "fbm", "exp", "exponential", "custom"])
    parser.add_argument("--H", type=float, default=None,
                        help="Hurst index for --density fbm")
    parser.add_argument("--scale", type=float, default=None)
    parser.add_argument("--rate", type=float, default=None,
                        help="decay rate for --density exp")
    parser.add_argument("--origin-exponent", type=float, default=None,
                        help="config key b, for --density custom")
    parser.add_argument("--class-index", type=int, default=None,
                        help="config key N, for --density custom")
    parser.add_argument("--cutoff-low", type=float, default=None)
    parser.add_argument("--cutoff-high", type=float, default=None)
    parser.add_argument("--density-config", default=None, metavar="FILE")


def _resolve_density(args: argparse.Namespace) -> SpectralDensity:
    given = [name for name in _DENSITY_DEFAULTS if getattr(args, name) is not None]
    if args.density_config:
        if given:
            flags = ", ".join("--" + name.replace("_", "-") for name in given)
            raise ValidationError(f"{flags} given with --density-config, "
                                  "which sets the whole density")
        with open(args.density_config) as fh:
            spec = DensitySpec.from_config(fh.read())
        # echo the spec the file gave
        resolved = dataclasses.asdict(spec)
        resolved["density"] = resolved.pop("kind")
        vars(args).update(resolved)
    else:
        for name, default in _DENSITY_DEFAULTS.items():
            if getattr(args, name) is None:
                setattr(args, name, default)
        spec = DensitySpec(args.density, H=args.H, scale=args.scale, rate=args.rate,
                           origin_exponent=args.origin_exponent,
                           class_index=args.class_index,
                           cutoff_low=args.cutoff_low, cutoff_high=args.cutoff_high)
    return spec.build()


def cmd_linearize(args: argparse.Namespace) -> int:
    degrees = chebyshev.linearize(args.m, args.n)
    _emit(args, {
        "terms": [f"U{deg}" for deg in degrees],
        "coefficients": ["1"] * len(degrees),
    })
    return 0


# engine name -> its trace of a letter sequence under a degree cap
_TRACE_ENGINES = {
    "reduction": lambda letters, cap: trace.trace_monomial_reduction(letters),
    "pairing": lambda letters, cap: trace.trace_pairings(letters),
    "fock": lambda letters, cap: trace.trace_fock(letters, cap=cap),
}


def cmd_trace(args: argparse.Namespace) -> int:
    word = words.parse_word(args.word)
    letters = word.letters()
    names = list(_TRACE_ENGINES) if args.engine == "all" else [args.engine]
    results, values = {}, {}
    for name in names:
        try:
            results[name] = _TRACE_ENGINES[name](letters, args.cap)
            values[name] = float(results[name])
        except (RecursionError, OverflowError) as exc:
            # a long word recurses too deep in the pairing count, or has
            # an exact trace beyond the float range
            raise FreenoiseError(f"{name} engine failed on a word of degree "
                                 f"{word.degree}: {exc}") from exc
    spread = max(values.values()) - min(values.values())
    agree = spread <= 1e-9
    _emit(args, {
        "word": str(word),
        "degree": word.degree,
        "engines": values,
        "max_spread": spread,
        "agree": agree,
        "exact": str(results["reduction"]) if "reduction" in results else None,
    })
    return 0 if agree else 3


def cmd_moments(args: argparse.Namespace) -> int:
    if args.n_max < 0:
        raise ValidationError("--n-max must be non-negative")
    law = chebyshev.SemicircleLaw(args.radius)
    rows = []
    for k in range(args.n_max + 1):
        exact = chebyshev.semicircle_moment(k, law)
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
    seq = _weight_seq(args.seq)
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
    t_grid = _parse_grid(args.t)
    s_grid = _parse_grid(args.s) if args.s is not None else t_grid
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
            for t in _parse_grid(args.t)]
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
                                    seq=_weight_seq(args.seq))
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
    rows = [{"h": h, "error": e}
            for h, e in zip(hs, process.derivative_errors(state, args.t, hs))]
    payload: dict = {"density": dens.label(), "t": args.t,
                     "level": state.level, "n_max": args.n_max}
    status = 0
    if len(rows) >= 2:
        fit = spectral.fit_power_law([1.0 / r["h"] for r in rows],
                                     [r["error"] for r in rows])
        slope = -fit.exponent
        payload.update({"slope": slope, "first_order": abs(slope - 1.0) <= 0.25})
        if not payload["first_order"]:
            status = 3
    _emit(args, payload, rows)
    return status


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
        "terms_total": len(terms),
        "terms": terms[:args.max_terms],
    }
    _emit(args, payload, rows)
    return 0 if res.converged else 3


def cmd_simulate(args: argparse.Namespace) -> int:
    word = words.parse_word(args.word)
    letters = word.letters()
    gens = args.gens if args.gens is not None else max(letters, default=0) + 1
    cfg = matmodel.EnsembleConfig(dim=args.dim, n_generators=gens,
                                  n_samples=args.samples, seed=args.seed,
                                  radius=args.radius)
    if args.chebyshev:
        est = matmodel.estimate_trace_uword(cfg, word)
        exact = 1.0 if word.is_empty() else 0.0
    else:
        est = matmodel.estimate_trace(cfg, letters)
        exact = float(trace.trace_pairings(letters, radius=args.radius))
    z = (est.mean - exact) / est.se if est.se > 0 else 0.0
    _emit(args, {"word": str(word), "mode":
                 "chebyshev" if args.chebyshev else "monomial",
                 "mean": est.mean, "se": est.se, "exact": exact, "z_score": z})
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freenoise",
        description=__doc__.splitlines()[0],
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    def sub(name: str, func, **kwargs):
        p = subs.add_parser(name, **kwargs)
        p.add_argument("--format", default="json", choices=["json", "csv"])
        p.set_defaults(func=func)
        return p

    p = sub("linearize", cmd_linearize,
            help="product of two basis polynomials as a basis combination")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)

    p = sub("trace", cmd_trace, help="trace of a word in the generators")
    p.add_argument("--word", required=True, metavar='"z0^2 z1"')
    p.add_argument("--engine", default="all",
                   choices=["reduction", "pairing", "fock", "all"])
    p.add_argument("--cap", type=int, default=12,
                   help="degree cap for the Fock engine")

    p = sub("moments", cmd_moments,
            help="semicircle moments, exact and by quadrature")
    p.add_argument("--n-max", type=int, default=10)
    p.add_argument("--radius", type=float, default=2.0)

    p = sub("vage", cmd_vage, help="product inequality constant and spot checks")
    p.add_argument("--seq", default="2n", choices=["2n", "2^n"])
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
    p.add_argument("--seq", default="2n", choices=["2n", "2^n"])

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

    p = sub("simulate", cmd_simulate,
            help="random-matrix trace estimate against the exact value")
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
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
