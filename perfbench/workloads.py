"""The three benchmark workloads: inputs, one solve, and its reference.

Each workload names the ``freenoise`` submodules it needs, builds the
inputs of solve ``index`` from the workload seed alone, runs one solve
and returns its output as plain data (numbers, Fractions, arrays), and
builds the reference the oracle compares against, importing what the
reference needs only when it is built.  Nothing here imports
``freenoise`` at module level, so a fresh interpreter that measures
set-up imports no more than the workload asks for (today the package
``__init__`` still imports every submodule).

Why each workload was chosen is recorded in ``BENCHMARK.json``.
``kernel_mc`` runs the kernel-grid computation and the Monte Carlo
traces one after the other in each solve: neither touches the Fock
layer, and together they fill a run long enough to steady its median.

Inputs are jittered (real-valued times) or relabelled (letters) per
solve so that no ``lru_cache`` entry written by one solve serves a
later one, while the amount of work stays the same and the oracle still
applies.  Relabelled letters come from a block of labels that belongs to
the solve index alone, so two solves of one run never share a label.
Caches whose keys hold neither letters nor times are still shared
across solves, and no jitter can change that: ``process._certificate``
(same density, level, n_max and weights in every ``riemann_integral``
solve, so solve 0 alone pays for the tail certificate),
``chebyshev.u_poly``, ``trace._noncrossing_matched(())`` and the
(empty, empty) keys of ``trace_reduction`` and ``u_mult``.
"""

from __future__ import annotations

import importlib
import itertools
import math
import types
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

__all__ = ["Workload", "WORKLOADS", "load_modules", "solve_rng"]

# Letters of solve ``index`` are drawn from [_LABEL_BASE + _LABEL_BLOCK * index,
# _LABEL_BASE + _LABEL_BLOCK * (index + 1)).
_LABEL_BASE = 16
_LABEL_BLOCK = 1000


@dataclass(frozen=True)
class Workload:
    """One workload; ``solve_s`` is its nominal solve time on a 2-core host.

    A run of ``--seconds S`` makes ``max(1, S // solve_s)`` solves, so the
    work of a run, and with it the peak resident set, does not depend on
    how fast the host happens to be that minute.
    """

    name: str
    solve_s: float
    modules: tuple[str, ...]
    make_inputs: Callable[[types.SimpleNamespace, int, int], dict]
    solve: Callable[[types.SimpleNamespace, dict], dict]
    reference: Callable[[dict], dict]
    check: Callable[[dict, dict], list[str]]


def load_modules(names) -> types.SimpleNamespace:
    """Import ``freenoise.<name>`` for each name; attribute per module."""
    return types.SimpleNamespace(**{
        n: importlib.import_module(f"freenoise.{n}") for n in names})


def solve_rng(seed: int, index: int, salt: int) -> np.random.Generator:
    """Generator for the inputs of one solve, fixed by (seed, index, salt)."""
    return np.random.default_rng(np.random.SeedSequence([seed, index, salt]))


def _relabel(rng: np.random.Generator, index: int, count: int) -> list[int]:
    """``count`` distinct labels from the block owned by solve ``index``."""
    lo = _LABEL_BASE + _LABEL_BLOCK * index
    picks = rng.choice(_LABEL_BLOCK, size=count, replace=False)
    return [lo + int(p) for p in picks]


# --------------------------------------------------------------- riemann

RIEMANN_N_MAX = 64
RIEMANN_CAP = 6
RIEMANN_LEVELS = 6
RIEMANN_TOL = 1e-4


def _riemann_inputs(fn, seed, index):
    # The extrapolation error grows with a (6.8e-5 at a = 0, 9.7e-5 at
    # a = 0.3 against the 1e-4 gate), so the jitter stays in [0, 0.1).
    a = 0.1 * float(solve_rng(seed, index, 1).random())
    dens = fn.spectral.SpectralDensity.lebesgue()
    state = fn.process.ProcessState(dens, n_max=RIEMANN_N_MAX,
                                    degree_cap=RIEMANN_CAP)
    return {"a": a, "b": a + 1.0, "state": state}


def _riemann_solve(fn, inp):
    process, fock = fn.process, fn.fock
    state, a, b = inp["state"], inp["a"], inp["b"]

    def integrand(t):
        return process.apply_process(state, t, fock.vacuum())

    path = process.IntegrandPath.dyadic(integrand, a, b, RIEMANN_LEVELS)
    res = process.stochastic_integral(state, path, fock.vacuum(), a, b,
                                      RIEMANN_LEVELS)
    terms = {tuple(w.letters()): complex(c)
             for w, c in res.extrapolated.as_dict().items()}
    return {"converged": bool(res.converged), "terms": terms}


def _riemann_reference(inp):
    """64-node Gauss-Legendre integral of alpha(u) (x) xi(u) over [a, b].

    For the flat density xi_n = hfn_n and alpha_n(u) is the integral of
    hfn_n over [0, u], itself done by 64-node Gauss-Legendre, so the
    reference never touches the spectral layer.
    """
    hermite = importlib.import_module("freenoise.hermite")
    n = RIEMANN_N_MAX
    x, w = np.polynomial.legendre.leggauss(64)
    a, b = inp["a"], inp["b"]
    u = a + 0.5 * (b - a) * (x + 1.0)
    wu = 0.5 * (b - a) * w
    xi = hermite.hermite_fn_matrix(n, u)  # (n, q)
    inner = 0.5 * u[:, None] * (x[None, :] + 1.0)  # (q, k): nodes on [0, u_q]
    h_inner = hermite.hermite_fn_matrix(n, inner.ravel()).reshape(n, 64, 64)
    alpha = np.einsum("nqk,k,q->nq", h_inner, 0.5 * w, u)  # (n, q)
    return {"matrix": np.einsum("q,jq,kq->jk", wu, alpha, xi)}


def check_riemann(out: dict, ref: dict) -> list[str]:
    """Extrapolated coefficients against the quadrature reference.

    Every term must sit on a two-letter word (j, k); coefficient (j, k)
    must match reference[j, k] to ``RIEMANN_TOL``, and the refinement must
    report convergence.
    """
    errors = []
    if not out["converged"]:
        errors.append("refinement did not report convergence")
    mat = ref["matrix"]
    n = mat.shape[0]
    got = np.zeros_like(mat)
    for letters, c in out["terms"].items():
        if len(letters) != 2 or not all(0 <= i < n for i in letters):
            errors.append(f"unexpected word {letters}")
            continue
        got[letters] = c.real
        if abs(c.imag) > RIEMANN_TOL:
            errors.append(f"imaginary part {c.imag:.3e} on {letters}")
    worst = float(np.max(np.abs(got - mat)))
    if not worst <= RIEMANN_TOL:
        errors.append(f"coefficient error {worst:.3e} > {RIEMANN_TOL:g}")
    return errors


# ----------------------------------------------------------- kernel grid

KERNEL_GRID = 48
KERNEL_DUAL_TIMES = 8
KERNEL_N_MAX = 400
KERNEL_HURSTS = (0.3, 0.75)
KERNEL_TOL = 1e-8
HERMITE_TOL = 5e-14
BESSEL_TOL = 1e-9


def _kernel_inputs(fn, seed, index):
    rng = solve_rng(seed, index, 2)
    sd = fn.spectral.SpectralDensity
    dens = {"lebesgue": sd.lebesgue()}
    dens.update({f"fbm({h})": sd.fbm(h) for h in KERNEL_HURSTS})
    # Both grids are uniform with the dyadic step h and dyadic offsets, so
    # t - s is exact and takes only 2 * 48 - 1 values per solve: the r
    # cache serves the rest of the grid and every solve does the same
    # number of r evaluations.  The seeded origin c and offset delta make
    # every key new per solve; delta in [h/4, 3h/4) keeps t != s, so r(0)
    # is never asked for.
    h = 1.0 / 32
    c = 1.0 / 16 + int(rng.integers(2 ** 14)) * 2.0 ** -20
    delta = h / 4 + int(rng.integers(2 ** 14)) * 2.0 ** -20
    t_grid = c + h * np.arange(KERNEL_GRID)
    s_grid = t_grid + delta
    dual = 0.25 * np.arange(1, KERNEL_DUAL_TIMES + 1) \
        + 0.1 * rng.random(KERNEL_DUAL_TIMES)
    return {"densities": dens, "t": t_grid.tolist(), "s": s_grid.tolist(),
            "dual_t": dual.tolist()}


def _kernel_solve(fn, inp):
    spectral = fn.spectral
    out = {"kernel": {}, "alpha": {}, "dual": {}}
    for label, dens in inp["densities"].items():
        out["kernel"][label] = np.array(
            [[spectral.kernel(dens, t, s) for s in inp["s"]] for t in inp["t"]])
        out["alpha"][label] = np.array(
            [spectral.alpha_vector(dens, t, KERNEL_N_MAX) for t in inp["dual_t"]])
        out["dual"][label] = np.array(
            [[spectral.dual_route_kernel(dens, t, s, KERNEL_N_MAX)
              for s in inp["dual_t"]] for t in inp["dual_t"]])
    flat = inp["densities"]["lebesgue"]
    out["tm_flat"] = np.array(
        [spectral.tm_values(flat, t, KERNEL_N_MAX) for t in inp["dual_t"]])
    return out


def fbm_r(hurst: float, t):
    """Closed form r(t) = Gamma(1-2H) cos(pi H) / (2 pi H) |t|^{2H}."""
    if hurst == 0.5:
        const = 0.5
    else:
        const = math.gamma(1.0 - 2.0 * hurst) * math.cos(math.pi * hurst) \
            / (2.0 * math.pi * hurst)
    return const * np.abs(np.asarray(t, dtype=float)) ** (2.0 * hurst)


def _kernel_reference(inp):
    t = np.asarray(inp["t"])[:, None]
    s = np.asarray(inp["s"])[None, :]
    d = np.asarray(inp["dual_t"])
    ref = {"kernel": {}, "diag": {}}
    for label, dens in inp["densities"].items():
        hurst = 0.5 if dens.kind == "lebesgue" else dens.hurst
        ref["kernel"][label] = fbm_r(hurst, t) + fbm_r(hurst, s) - fbm_r(hurst, t - s)
        ref["diag"][label] = 2.0 * fbm_r(hurst, d)
    hermite = importlib.import_module("freenoise.hermite")
    ref["hermite"] = hermite.hermite_fn_matrix(KERNEL_N_MAX, d).T
    return ref


def check_kernel(out: dict, ref: dict) -> list[str]:
    """QUADPACK kernels, flat multiplier values and Bessel's inequality.

    The kernel of every density must match the closed form (min(t, s) for
    the flat density, the fBm power law otherwise).  For the flat density
    the multiplier values must equal the Hermite functions to 5e-14 (over
    160 seeded times the largest gap at n_max 400 was 1.1e-14, about 100
    ulp of the largest Hermite value).  Partial sums
    of alpha_n(t)^2 must never exceed K(t, t): the gap K - S_N stays
    non-negative and never grows with N, and the dual-route kernel on the
    diagonal, which is S_N itself, obeys the same bound.
    """
    errors = []
    for label, want in ref["kernel"].items():
        worst = float(np.max(np.abs(out["kernel"][label] - want)))
        if not worst <= KERNEL_TOL:
            errors.append(f"{label}: kernel error {worst:.3e} > {KERNEL_TOL:g}")
        partial = np.cumsum(out["alpha"][label] ** 2, axis=1)
        gap = ref["diag"][label][:, None] - partial
        if not np.all(gap >= -BESSEL_TOL):
            errors.append(f"{label}: Bessel gap {float(np.min(gap)):.3e} < 0")
        if not np.all(np.diff(gap, axis=1) <= BESSEL_TOL):
            errors.append(f"{label}: Bessel gap grows with N")
        dual_gap = ref["diag"][label] - np.diag(out["dual"][label])
        if not np.all(dual_gap >= -BESSEL_TOL):
            errors.append(f"{label}: dual-route K(t, t) exceeds the kernel by "
                          f"{-float(np.min(dual_gap)):.3e}")
    worst = float(np.max(np.abs(out["tm_flat"] - ref["hermite"])))
    if not worst <= HERMITE_TOL:
        errors.append(f"flat multiplier vs Hermite error {worst:.3e} > {HERMITE_TOL:g}")
    return errors


# ------------------------------------------------------------- mc traces

MC_DIM = 600
MC_SAMPLES = 8
MC_MAX_LEN = 6
MC_FLOOR = 0.02
# The SE of 8 samples is itself an estimate, so (mean - exact) / SE follows
# Student's t with 7 degrees of freedom, and |t| > 3 has probability 0.02
# per word: a 3-SE gate failed 2 of 50 correct solves (tr X^6 = 5 estimated
# as 5.0357 with SE < 0.0067).  MC_T is the two-sided t_7 quantile for a
# false-alarm rate of 1e-5 per solve over its 127 words (Bonferroni).
MC_T = 22.81


def _binary_words(max_len: int) -> list[tuple[int, ...]]:
    out = [()]
    for length in range(1, max_len + 1):
        out.extend(itertools.product((0, 1), repeat=length))
    return out


def _mc_inputs(fn, seed, index):
    rng = solve_rng(seed, index, 3)
    cfg = fn.matmodel.EnsembleConfig(dim=MC_DIM, n_generators=2,
                                     n_samples=MC_SAMPLES,
                                     seed=int(rng.integers(2 ** 62)))
    return {"cfg": cfg, "words": _binary_words(MC_MAX_LEN)}


def _mc_solve(fn, inp):
    est = fn.matmodel.estimate_trace_many(inp["cfg"], inp["words"])
    return {"mean": [e.mean for e in est], "se": [e.se for e in est]}


def _mc_reference(inp):
    trace = importlib.import_module("freenoise.trace")
    return {"exact": [trace.trace_pairings(w) for w in inp["words"]]}


def check_mc(out: dict, ref: dict) -> list[str]:
    """Every estimate within max(MC_T SE, MC_FLOOR) of the exact pairing count."""
    errors = []
    for k, (m, se, exact) in enumerate(zip(out["mean"], out["se"], ref["exact"])):
        bound = max(MC_T * se, MC_FLOOR)
        if not abs(m - float(exact)) <= bound:
            errors.append(f"word {k}: estimate {m:.4f} vs exact {exact} "
                          f"outside {bound:.4f}")
    if len(out["mean"]) != len(ref["exact"]):
        errors.append("estimate count differs from word count")
    return errors


# --------------------------------------------------------- exact algebra

EXACT_MONOMIAL_LEN = 10
EXACT_UWORD_DEGREE = 5
EXACT_UWORD_LETTERS = 3
EXACT_TRIALS = 200
EXACT_TRIAL_LEVELS = ((0, 2), (1, 3), (2, 5))
FOCK_TOL = 1e-10
BOUND_SLACK = 1e-12


def _sparse_letters(rng: np.random.Generator, n_terms: int = 4):
    """Terms of a small random element: up to 4 words of length < 4."""
    terms = []
    for _ in range(n_terms):
        length = int(rng.integers(0, 4))
        letters = tuple(int(x) for x in rng.integers(0, 8, size=length))
        terms.append((letters, complex(rng.normal(), rng.normal())))
    return terms


def _element(fn, terms):
    d = {}
    for letters, c in terms:
        w = fn.words.normalize(letters)
        d[w] = d.get(w, 0j) + c
    return fn.fock.FockElement.from_dict(d)


def _exact_inputs(fn, seed, index):
    rng = solve_rng(seed, index, 4)
    pair = _relabel(rng, index, 2)
    monomials = [tuple(pair[i] for i in code)
                 for length in range(1, EXACT_MONOMIAL_LEN + 1)
                 for code in itertools.product((0, 1), repeat=length)]
    triple = _relabel(rng, index, EXACT_UWORD_LETTERS)
    uwords = [fn.words.normalize(tuple(triple[i] for i in code))
              for degree in range(EXACT_UWORD_DEGREE + 1)
              for code in itertools.product(range(EXACT_UWORD_LETTERS),
                                            repeat=degree)]
    trials = [(_element(fn, _sparse_letters(rng)), _element(fn, _sparse_letters(rng)))
              for _ in range(EXACT_TRIALS)]
    return {"monomials": monomials, "uwords": uwords, "trials": trials}


def _exact_solve(fn, inp):
    trace, fock = fn.trace, fn.fock
    engines = []
    for letters in inp["monomials"]:
        res = {r.engine: r.value for r in trace.trace_monomial_all(letters)}
        engines.append((res["reduction"], res["pairing"], res["fock"]))
    uw = inp["uwords"]
    exact_nonzero = {}
    for i, a in enumerate(uw):
        for j, b in enumerate(uw):
            v = trace.trace_reduction(a, b)
            if v != 0:
                exact_nonzero[(i, j)] = v
    vectors = [trace.wick_word_vector(w, 12) for w in uw]
    gram = np.array([[fock.inner(va, vb).real for vb in vectors] for va in vectors])
    seq = fn.words.WeightSequence.linear()
    bounds = []
    for p, q in EXACT_TRIAL_LEVELS:
        b = fock.vage_constant(q - p, seq).b
        for f, g in inp["trials"]:
            nf_p, nf_q = fock.norm(f, -p, seq), fock.norm(f, -q, seq)
            ng_p, ng_q = fock.norm(g, -p, seq), fock.norm(g, -q, seq)
            bounds.append((fock.norm(fock.tensor(f, g, cap=None), -q, seq),
                           b * nf_p * ng_q))
            bounds.append((fock.norm(fock.tensor(g, f, cap=None), -q, seq),
                           b * ng_p * nf_q))
    return {"engines": engines, "exact_nonzero": exact_nonzero,
            "n_uwords": len(uw), "gram": gram, "bounds": bounds}


def _exact_reference(inp):
    return {}


def check_exact(out: dict, ref: dict) -> list[str]:
    """Exact engines equal, Fock engine close, U-words orthonormal, bound held.

    ``ref`` is unused: the two exact engines check each other, the U-word
    Gram matrix must be the identity, and the product bound is an
    inequality that needs no reference.
    """
    errors = []
    for k, (red, pair, fk) in enumerate(out["engines"]):
        if not (isinstance(red, Fraction) and isinstance(pair, Fraction)):
            errors.append(f"monomial {k}: exact engines returned non-Fractions")
        elif red != pair:
            errors.append(f"monomial {k}: reduction {red} != pairing {pair}")
        if not abs(fk - float(pair)) <= FOCK_TOL:
            errors.append(f"monomial {k}: fock {fk!r} vs pairing {pair}")
    n = out["n_uwords"]
    want = {(i, i): Fraction(1) for i in range(n)}
    if out["exact_nonzero"] != want:
        bad = set(out["exact_nonzero"].items()) ^ set(want.items())
        errors.append(f"U-word reduction not the identity at {sorted(bad)[:3]}")
    worst = float(np.max(np.abs(out["gram"] - np.eye(n))))
    if not worst <= FOCK_TOL:
        errors.append(f"U-word Fock Gram error {worst:.3e} > {FOCK_TOL:g}")
    violations = sum(1 for lhs, rhs in out["bounds"] if lhs > rhs * (1.0 + BOUND_SLACK))
    if violations:
        errors.append(f"{violations} product-bound violations")
    return errors


# ------------------------------------------------ kernel grid + mc traces

def _kernel_mc_inputs(fn, seed, index):
    return {"kernel": _kernel_inputs(fn, seed, index), "mc": _mc_inputs(fn, seed, index)}


def _kernel_mc_solve(fn, inp):
    return {"kernel": _kernel_solve(fn, inp["kernel"]), "mc": _mc_solve(fn, inp["mc"])}


def _kernel_mc_reference(inp):
    return {"kernel": _kernel_reference(inp["kernel"]), "mc": _mc_reference(inp["mc"])}


def check_kernel_mc(out: dict, ref: dict) -> list[str]:
    """The kernel-grid checks on the first part, the Monte Carlo gate on the second."""
    return check_kernel(out["kernel"], ref["kernel"]) + check_mc(out["mc"], ref["mc"])


# ------------------------------------------------------------- registry

WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        "riemann_integral",
        9.8,
        ("spectral", "process", "fock"),
        _riemann_inputs, _riemann_solve, _riemann_reference, check_riemann),
    Workload(
        "kernel_mc",
        10.5,
        ("spectral", "matmodel"),
        _kernel_mc_inputs, _kernel_mc_solve, _kernel_mc_reference, check_kernel_mc),
    Workload(
        "exact_algebra",
        4.5,
        ("trace", "fock", "words"),
        _exact_inputs, _exact_solve, _exact_reference, check_exact),
)}
