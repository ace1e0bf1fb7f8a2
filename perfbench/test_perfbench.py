"""Tests of the benchmark itself: tracer arithmetic, patching, oracles, inputs.

Run with ``python3 -m pytest perfbench``.  They take a few seconds and run
no full solve.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
import types
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import layers  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402
from tracer import Target, Tracer, self_times, union_length  # noqa: E402


# ------------------------------------------------------- self-time arithmetic

def test_self_time_of_nested_spans():
    # root [0, 10] holds a [1, 4] and b [5, 7]; a holds c [2, 3]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 7.0]
    parents = [-1, 0, 1, 0]
    assert self_times(starts, ends, parents) == [5.0, 2.0, 1.0, 2.0]


def test_self_time_counts_overlapping_children_once():
    # children running in parallel threads cover [1, 9] together
    starts = [0.0, 1.0, 4.0, 2.0, 6.0]
    ends = [10.0, 6.0, 8.0, 3.0, 9.0]
    assert self_times(starts, ends, [-1, 0, 0, 0, 0])[0] == pytest.approx(2.0)


def test_self_time_clips_children_to_the_parent():
    # children stamped by other threads may start early or end late: only
    # [2, 3] and [9, 10] of them lie inside the parent [2, 10]
    starts = [2.0, 1.0, 9.0]
    ends = [10.0, 3.0, 12.0]
    assert self_times(starts, ends, [-1, 0, 0])[0] == pytest.approx(6.0)


def test_union_length_merges_touching_and_skips_empty():
    assert union_length([(0, 1), (1, 2), (3, 3), (5, 6)], 0, 10) == 3
    assert union_length([], 0, 1) == 0.0


def test_self_times_sum_to_root_duration():
    rng = np.random.default_rng(3)
    starts, ends, parents = [0.0], [100.0], [-1]

    def grow(parent, lo, hi, depth):
        cut = np.sort(rng.uniform(lo, hi, size=4))
        for a, b in ((cut[0], cut[1]), (cut[2], cut[3])):
            starts.append(a)
            ends.append(b)
            parents.append(parent)
            if depth:
                grow(len(starts) - 1, a, b, depth - 1)

    grow(0, 0.0, 100.0, 3)
    assert sum(self_times(starts, ends, parents)) == pytest.approx(100.0)


# ------------------------------------------------------------------ patching

def _fake_module():
    mod = types.ModuleType("perfbench_fake")

    class Base:
        def inherited(self):
            return "base"

    class Thing(Base):
        def method(self, x):
            return 2 * x

        @classmethod
        def build(cls, x):
            return cls().method(x)

    def outer(x):
        time.sleep(0.01)
        return mod.inner(x) + 1

    def inner(x):
        time.sleep(0.02)
        return x

    mod.Thing, mod.Base, mod.outer, mod.inner = Thing, Base, outer, inner
    return mod


@pytest.fixture
def fake():
    mod = _fake_module()
    sys.modules[mod.__name__] = mod
    yield mod
    del sys.modules[mod.__name__]


def test_tracer_records_nested_spans_and_restores(fake):
    originals = (fake.outer, fake.inner, fake.Thing.__dict__["build"],
                 fake.Thing.__dict__["method"])
    tr = Tracer()
    tr.install([Target("perfbench_fake:outer", "outer"),
                Target("perfbench_fake:inner", "inner"),
                Target("perfbench_fake:Thing.build", "build"),
                Target("perfbench_fake:Thing.method", "method", mode="count"),
                Target("perfbench_fake:Thing.inherited", "inherited", mode="count")])
    try:
        tr.solve_id = 0
        assert fake.outer(5) == 6
        assert fake.Thing.build(3) == 6
        assert fake.Thing().inherited() == "base"
    finally:
        tr.uninstall()
    assert (fake.outer, fake.inner, fake.Thing.__dict__["build"],
            fake.Thing.__dict__["method"]) == originals
    assert "inherited" not in vars(fake.Thing)
    names, starts, ends, parents, _ = tr.spans()
    assert names == ["outer", "inner", "build"]
    assert parents == [-1, 0, -1]
    own = self_times(starts, ends, parents)
    assert own[0] < ends[0] - starts[0] - 0.015
    assert tr.counts(0) == {"method.calls": 1.0, "inherited.calls": 1.0}


def test_missing_target_is_reported_not_fatal(fake):
    tr = Tracer()
    tr.install([Target("perfbench_fake:gone", "gone"),
                Target("perfbench_fake:Thing.gone", "gone2"),
                Target("no_such_module_here:f", "gone3"),
                Target("perfbench_fake:inner", "inner")])
    tr.uninstall()
    assert tr.missing == {"gone", "gone2", "gone3"}
    assert fake.inner(1) == 1


def test_failing_hook_marks_metric_broken(fake):
    def hook(tracer, fn, args, kwargs, result):
        return result.no_such_attribute

    tr = Tracer()
    tr.install([Target("perfbench_fake:inner", "inner", after=hook)])
    try:
        assert fake.inner(4) == 4
    finally:
        tr.uninstall()
    assert tr.broken == {"inner.after"}


def test_unmeasured_metrics_are_flagged():
    tr = Tracer()
    tr.missing.add("fock.tensor")
    traced = [run.Solve(0, 1.0, [], {k: (0, 0) for k, _ in layers.CACHES})]
    metrics = run.layer_metrics(tr, layers, traced, unresolved={"trace.u_mult"})
    assert metrics["fock.tensor.calls"]["status"] == "unmeasured"
    assert metrics["fock.tensor.kept_ratio"]["status"] == "unmeasured"
    assert metrics["trace.u_mult.hit_ratio"]["status"] == "unmeasured"
    assert "status" not in metrics["fock.add.calls"]
    assert {m.name for m in layers.PER_SOLVE} <= set(metrics)


def test_every_target_resolves_in_this_checkout():
    tr = Tracer()
    tr.install(layers.TARGETS)
    tr.uninstall()
    assert tr.missing == set()
    assert all(v is not None for v in run.resolve_caches(layers, sys.modules["tracer"]).values())


# ------------------------------------------------------------------- oracles

@pytest.fixture(scope="module")
def fn():
    return W.load_modules(("spectral", "process", "fock", "matmodel", "trace", "words"))


def test_riemann_checker_rejects_a_flipped_coefficient(fn):
    inp = W._riemann_inputs(fn, 1, 0)
    ref = W._riemann_reference(inp)
    mat = ref["matrix"]
    out = {"converged": True,
           "terms": {(j, k): complex(mat[j, k] + 1e-6) for j in range(64) for k in range(64)}}
    assert W.check_riemann(out, ref) == []
    j, k = np.unravel_index(np.argmax(np.abs(mat)), mat.shape)
    flipped = dict(out["terms"])
    flipped[(j, k)] = -flipped[(j, k)]
    assert W.check_riemann({**out, "terms": flipped}, ref)
    assert W.check_riemann({**out, "converged": False}, ref)
    assert W.check_riemann({**out, "terms": {**out["terms"], (1,): 1e-3}}, ref)


def test_riemann_reference_matches_the_spectral_route(fn):
    inp = W._riemann_inputs(fn, 2, 0)
    dens = inp["state"].density
    x, w = np.polynomial.legendre.leggauss(64)
    u = inp["a"] + 0.5 * (x + 1.0)
    alpha = np.stack([fn.spectral.alpha_vector(dens, float(t), 64) for t in u])
    tm = np.stack([fn.spectral.tm_values(dens, float(t), 64) for t in u])
    spectral_route = np.einsum("q,qj,qk->jk", 0.5 * w, alpha, tm)
    assert np.max(np.abs(spectral_route - W._riemann_reference(inp)["matrix"])) < 1e-12


def _kernel_case(fn):
    inp = W._kernel_inputs(fn, 1, 0)
    ref = W._kernel_reference(inp)
    out = {"kernel": {k: v.copy() for k, v in ref["kernel"].items()},
           # squares summing to 0.9 of K(t, t) along each row
           "alpha": {k: np.sqrt(0.9 * np.outer(d, np.ones(400)) / 400)
                     for k, d in ref["diag"].items()},
           "tm_flat": ref["hermite"].copy()}
    out["dual"] = {k: np.diag(0.9 * d) for k, d in ref["diag"].items()}
    return out, ref


def test_kernel_checker_rejects_shifted_values(fn):
    out, ref = _kernel_case(fn)
    assert W.check_kernel(out, ref) == []
    shifted = {k: v.copy() for k, v in out["kernel"].items()}
    shifted["fbm(0.3)"][5, 7] += 1e-6
    assert W.check_kernel({**out, "kernel": shifted}, ref)
    assert W.check_kernel({**out, "tm_flat": out["tm_flat"] + 1e-12}, ref)
    grown = {k: 1.1 * v for k, v in out["alpha"].items()}
    assert W.check_kernel({**out, "alpha": grown}, ref)
    assert W.check_kernel({**out, "dual": {k: 1.2 * v for k, v in out["dual"].items()}}, ref)


def test_fbm_closed_form_matches_quadpack(fn):
    for hurst in (0.3, 0.75):
        dens = fn.spectral.SpectralDensity.fbm(hurst)
        for t in (0.4, 1.3):
            assert abs(fn.spectral.r_function(dens, t) - W.fbm_r(hurst, t)) < 1e-9


def test_mc_checker_rejects_a_shifted_estimate(fn):
    words = W._binary_words(4)
    ref = W._mc_reference({"words": words})
    out = {"mean": [float(e) + 0.001 for e in ref["exact"]], "se": [0.002] * len(words)}
    assert W.check_mc(out, ref) == []
    shifted = list(out["mean"])
    shifted[7] += 0.05
    assert W.check_mc({**out, "mean": shifted}, ref)


def test_kernel_mc_checker_reports_either_part(fn):
    kernel_out, kernel_ref = _kernel_case(fn)
    words = W._binary_words(3)
    mc_ref = W._mc_reference({"words": words})
    mc_out = {"mean": [float(e) for e in mc_ref["exact"]], "se": [0.002] * len(words)}
    ref = {"kernel": kernel_ref, "mc": mc_ref}
    assert W.check_kernel_mc({"kernel": kernel_out, "mc": mc_out}, ref) == []
    bad_mc = {**mc_out, "mean": [m + 0.1 for m in mc_out["mean"]]}
    assert W.check_kernel_mc({"kernel": kernel_out, "mc": bad_mc}, ref)
    bad_kernel = {**kernel_out, "tm_flat": kernel_out["tm_flat"] + 1e-12}
    assert W.check_kernel_mc({"kernel": bad_kernel, "mc": mc_out}, ref)


def test_mc_gate_is_the_bonferroni_t_quantile():
    from scipy.stats import t

    n_words = len(W._binary_words(W.MC_MAX_LEN))
    want = t.ppf(1 - 1e-5 / (2 * n_words), W.MC_SAMPLES - 1)
    assert abs(W.MC_T - want) < 0.01


def _exact_case():
    engines = [(Fraction(2), Fraction(2), 2.0), (Fraction(0), Fraction(0), 1e-15)]
    return {"engines": engines, "exact_nonzero": {(0, 0): Fraction(1), (1, 1): Fraction(1)},
            "n_uwords": 2, "gram": np.eye(2), "bounds": [(0.5, 1.0), (1.0, 1.0)]}


def test_exact_checker_rejects_a_wrong_fraction():
    out = _exact_case()
    assert W.check_exact(out, {}) == []
    wrong = [(Fraction(2), Fraction(2), 2.0), (Fraction(1, 3), Fraction(0), 1e-15)]
    assert W.check_exact({**out, "engines": wrong}, {})
    assert W.check_exact({**out, "engines": [(Fraction(2), Fraction(2), 2.0 + 1e-8)]}, {})
    assert W.check_exact({**out, "exact_nonzero": {(0, 0): Fraction(1), (1, 1): Fraction(2)}}, {})
    assert W.check_exact({**out, "exact_nonzero": {(0, 0): Fraction(1)}}, {})
    assert W.check_exact({**out, "gram": np.eye(2) + 1e-8}, {})
    assert W.check_exact({**out, "bounds": [(1.0 + 1e-9, 1.0)]}, {})


# -------------------------------------------------------------------- inputs

def test_inputs_repeat_for_a_seed_and_differ_between_solves(fn):
    a = W._kernel_inputs(fn, 5, 0)
    assert a["t"] == W._kernel_inputs(fn, 5, 0)["t"]
    b = W._kernel_inputs(fn, 5, 1)
    assert not set(a["t"]) & set(b["t"])
    assert W._riemann_inputs(fn, 5, 0)["a"] != W._riemann_inputs(fn, 5, 1)["a"]
    assert W._mc_inputs(fn, 5, 0)["cfg"].seed != W._mc_inputs(fn, 5, 1)["cfg"].seed


def test_kernel_grid_differences_are_exact(fn):
    inp = W._kernel_inputs(fn, 9, 3)
    diffs = {t - s for t in inp["t"] for s in inp["s"]}
    assert len(diffs) == 2 * W.KERNEL_GRID - 1
    assert 0.0 not in diffs


def test_relabelled_letters_are_disjoint_between_solves(fn):
    letters = []
    for index in (0, 1, 2):
        inp = W._exact_inputs(fn, 4, index)
        letters.append({x for m in inp["monomials"] for x in m}
                       | {x for w in inp["uwords"] for x in w.letters()})
    assert not letters[0] & letters[1] and not letters[1] & letters[2]


# ---------------------------------------------------------------------- CLI

def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact_algebra",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_file_lists_what_the_run_reports():
    bench = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(W.WORKLOADS)
    reported = {m.name: m.unit for m in layers.PER_SOLVE} | layers.PER_RUN
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == reported
    assert {m["name"] for m in bench["end_to_end"]} == {"solve_s", "setup_s", "peak_rss_mb"}
