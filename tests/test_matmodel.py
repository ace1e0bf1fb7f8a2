import itertools
import math
from functools import reduce

import numpy as np
import pytest

from chebyshev_oracle import eval_u
from freenoise.errors import FreenoiseError, ValidationError
from freenoise.matmodel import (
    EnsembleConfig,
    _gram,
    _gram_rows,
    _half_products,
    _stream,
    estimate_trace,
    estimate_trace_many,
    estimate_trace_uword,
    gue_matrix,
    gue_spectrum,
    sample_generators,
)
from freenoise.trace import trace_genus
from freenoise.words import EMPTY_WORD, normalize


def test_config_validation():
    with pytest.raises(ValidationError):
        EnsembleConfig(dim=1)
    with pytest.raises(ValidationError):
        EnsembleConfig(n_generators=0)
    with pytest.raises(ValidationError):
        EnsembleConfig(n_samples=0)
    for radius in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValidationError):
            EnsembleConfig(radius=radius)


def test_word_validation():
    cfg = EnsembleConfig(dim=8, n_generators=2, n_samples=2, max_word_len=4)
    with pytest.raises(ValidationError):
        estimate_trace(cfg, [0, 2])
    with pytest.raises(ValidationError):
        estimate_trace(cfg, [0, 1] * 3)


def test_samples_are_hermitian():
    cfg = EnsembleConfig(dim=50, n_generators=2, n_samples=1, seed=7)
    for g in range(2):
        h = gue_matrix(cfg, 0, g)
        assert np.allclose(h, h.conj().T)


def test_seed_determinism():
    cfg = EnsembleConfig(dim=30, n_generators=2, n_samples=1, seed=11)
    again = gue_matrix(cfg, 0, 1)
    assert np.array_equal(gue_matrix(cfg, 0, 1), again)
    other = EnsembleConfig(dim=30, n_generators=2, n_samples=1, seed=12)
    assert not np.array_equal(gue_matrix(other, 0, 1), again)
    # distinct samples and generator slots give distinct matrices
    assert not np.array_equal(gue_matrix(cfg, 1, 1), again)
    assert not np.array_equal(gue_matrix(cfg, 0, 0), again)


def test_spectrum_close_to_configured_radius():
    cfg = EnsembleConfig(dim=300, n_generators=1, n_samples=1, seed=3)
    evals = np.linalg.eigvalsh(gue_matrix(cfg, 0, 0))
    assert np.abs(evals).max() < 2.5
    half = EnsembleConfig(dim=300, n_generators=1, n_samples=1, seed=3,
                          radius=1.0)
    assert np.abs(np.linalg.eigvalsh(gue_matrix(half, 0, 0))).max() < 1.25


def _finite_n_trace(letters, dim, radius=2.0):
    # exact E tr_dim of the word in independent GUE matrices, by genus
    counts = trace_genus(letters)
    return (radius / 2.0) ** len(letters) * sum(
        c * float(dim) ** (-2 * g) for g, c in enumerate(counts))


def _mean_se(vals):
    vals = np.asarray(vals)
    return vals.mean(axis=0), vals.std(axis=0, ddof=1) / np.sqrt(len(vals))


@pytest.mark.parametrize("radius", [2.0, 1.7])
def test_spectrum_moments_match_gue_scaling(radius):
    # 400 draws at dim 40, 4 SE: the tridiagonal spectrum and gue_matrix
    # both match E tr D^2 = (r/2)^2 and E tr D^4 = (r/2)^4 (2 + dim^-2)
    cfg = EnsembleConfig(dim=40, n_generators=1, n_samples=1, seed=31,
                         radius=radius)
    exact = np.array([_finite_n_trace((0,) * p, cfg.dim, radius) for p in (2, 4)])
    spec, dense = [], []
    for s in range(400):
        d = gue_spectrum(cfg, s, 0)
        spec.append([np.mean(d ** 2), np.mean(d ** 4)])
        h = gue_matrix(cfg, s, 0)
        h2 = h @ h
        dense.append([np.trace(h2).real, np.vdot(h2, h2).real])
    dense = np.asarray(dense) / cfg.dim
    for vals in (spec, dense):
        mean, se = _mean_se(vals)
        assert np.all(np.abs(mean - exact) <= 4.0 * se)


def test_spectrum_is_keyed_by_seed_sample_and_generator():
    cfg = EnsembleConfig(dim=30, n_generators=2, n_samples=1, seed=11)
    again = gue_spectrum(cfg, 0, 1)
    assert again.shape == (30,) and again.dtype == np.float64
    assert np.array_equal(gue_spectrum(cfg, 0, 1), again)
    other = EnsembleConfig(dim=30, n_generators=2, n_samples=1, seed=12)
    assert not np.array_equal(gue_spectrum(other, 0, 1), again)
    assert not np.array_equal(gue_spectrum(cfg, 1, 1), again)
    assert not np.array_equal(gue_spectrum(cfg, 0, 0), again)


@pytest.mark.parametrize("dim", [2, 4, 7, 64, 600])
def test_spectrum_matches_eigvalsh_tridiagonal(dim):
    # the same draws through scipy's general tridiagonal eigensolver
    from scipy.linalg import eigvalsh_tridiagonal

    cfg = EnsembleConfig(dim=dim, n_generators=2, n_samples=1, seed=23,
                         radius=1.7)
    rng = _stream(cfg.seed, 5, 1)
    diag = rng.standard_normal(dim)
    off = np.sqrt(rng.standard_gamma(np.arange(dim - 1, 0, -1, dtype=float)))
    ref = eigvalsh_tridiagonal(diag, off)
    ref *= cfg.radius / 2.0
    ref *= 1.0 / math.sqrt(dim)
    assert gue_spectrum(cfg, 5, 1).tobytes() == ref.tobytes()


def test_spectrum_failure_raises(monkeypatch):
    # a LAPACK failure is a numerical error (CLI exit 3), never a fallback
    import scipy.linalg.lapack as lapack

    monkeypatch.setattr(lapack, "dsterf", lambda d, e, overwrite_d: (d, 2))
    cfg = EnsembleConfig(dim=8, n_generators=1, n_samples=1)
    with pytest.raises(FreenoiseError, match="dsterf info 2"):
        gue_spectrum(cfg, 0, 0)


def test_finite_n_law_of_the_old_and_new_pair():
    # 5,000 samples at N = 4, 4 SE: two dense GUE matrices, and the
    # dense-diagonal pair estimate_trace_many draws, both match the exact
    # genus expansion; ABAB's free limit 0 sits outside the bound
    cfg = EnsembleConfig(dim=4, n_generators=2, n_samples=5_000, seed=2026)
    words = [(0, 1, 0, 1), (0, 0, 0, 0), (1, 1, 1, 1), (0, 0, 1, 1),
             (0,) * 6, (1,) * 6, (0, 0, 1, 0, 0, 1), (0, 1, 0, 1, 0, 1)]
    exact = np.array([_finite_n_trace(w, cfg.dim) for w in words])
    assert exact[0] == 1.0 / 16.0
    pairs = np.empty((2, cfg.n_samples, cfg.dim, cfg.dim), np.complex128)
    for s in range(cfg.n_samples):
        for g in range(2):
            gue_matrix(cfg, s, g, pairs[g, s])
    old = [np.trace(reduce(np.matmul, [pairs[i] for i in w]),
                    axis1=1, axis2=2).real for w in words]
    old_mean, old_se = _mean_se(np.transpose(old) / cfg.dim)
    new = estimate_trace_many(cfg, words)
    new_mean = np.array([e.mean for e in new])
    new_se = np.array([e.se for e in new])
    for mean, se in ((old_mean, old_se), (new_mean, new_se)):
        assert np.all(np.abs(mean - exact) <= 4.0 * se)
        assert abs(mean[0]) > 4.0 * se[0]


def _words_up_to(n_letters, max_len):
    return [w for n in range(max_len + 1)
            for w in itertools.product(range(n_letters), repeat=n)]


def _dense(mats):
    return [m if m.ndim == 2 else np.diag(m).astype(np.complex128) for m in mats]


def test_estimates_match_direct_products():
    # oracle: per-sample plain matmul chain, no pooling, prefix reuse,
    # reversal or Gram product
    cfg = EnsembleConfig(dim=24, n_generators=3, n_samples=4, seed=21,
                         radius=1.7, max_word_len=12)
    words = _words_up_to(3, 4)  # includes palindromes and reverse pairs
    # halves (0, 1, 2, 2) and reversed (1, 2, 0, 1) need prefixes such as
    # (1, 2, 0) that are no half of any word
    words += [(0, 1, 2, 2, 1, 0, 2, 1), (2, 1, 0, 1, 2, 2, 1, 0),
              (2, 0, 1, 1, 2, 0, 1, 0, 0, 2, 1, 2),
              (1, 1, 0, 2, 0, 1, 2, 2, 1, 0, 0, 1)]
    # rows (2, 0, 1) and (2, 1, 2, 0) above, and (2, 2, 1) here, have no
    # reverse among the rows: a power of the diagonal letter 2 times an
    # earlier row
    words += [(2, 2, 1, 0, 1, 0, 0, 1)]
    got = estimate_trace_many(cfg, words)
    for k, letters in enumerate(words):
        vals = []
        for s in range(cfg.n_samples):
            # the new pair: two dense generators and one diagonal
            gens = sample_generators(cfg, s)
            assert [m.ndim for m in gens] == [2, 2, 1]
            mats = _dense(gens)
            prod = reduce(np.matmul, [mats[i] for i in letters],
                          np.eye(cfg.dim))
            vals.append(np.trace(prod).real / cfg.dim)
        vals = np.asarray(vals)
        assert got[k].mean == pytest.approx(vals.mean(), abs=1e-12)
        assert got[k].se == pytest.approx(
            vals.std(ddof=1) / np.sqrt(cfg.n_samples), abs=1e-12)


def test_half_products_reuse_conjugate_transposes():
    # the 127 binary words up to length 6 need every word of length 1-3;
    # the pool holds the 11 that contain the dense letter 0.  Of its 10
    # of length 2-3, three reverse pairs are conjugate copies, four end
    # in the diagonal letter and scale columns, and only 00, 000 and 010
    # are matrix products
    cfg = EnsembleConfig(dim=16, n_generators=2, n_samples=1, seed=4)
    halves = set(_words_up_to(2, 3))
    labels = _gram_rows(halves, cfg.n_generators)
    assert len(labels) == 11
    assert all(0 in label for label in labels)
    pool = np.full((len(labels), cfg.dim, cfg.dim), np.nan, np.complex128)
    mats = sample_generators(cfg, 0, pool)
    prods = _half_products(mats, labels, pool)
    assert sorted(prods) == [(0,), (0, 0), (0, 0, 0), (0, 1, 0), (1,)]
    dense = _dense(mats)
    for label, row in zip(labels, pool):
        direct = reduce(np.matmul, [dense[i] for i in label], np.eye(cfg.dim))
        assert np.allclose(row, direct, rtol=0.0, atol=1e-13)


def test_gram_of_diagonal_rows_matches_direct_products():
    # every Gram entry, the diagonal rows I, D, D^2 and D^3 included,
    # against the real inner products of directly multiplied matrices
    cfg = EnsembleConfig(dim=24, n_generators=3, n_samples=1, seed=8,
                         radius=1.7)
    halves = set(_words_up_to(3, 3))
    labels = _gram_rows(halves, cfg.n_generators)
    assert len(labels) == 36
    pool = np.empty((len(labels), cfg.dim, cfg.dim), np.complex128)
    mats = sample_generators(cfg, 0, pool)
    _half_products(mats, labels, pool)
    powers = np.arange(4.0)[:, None]
    gram = _gram(pool.reshape(len(labels), -1).view(np.float64),
                 pool.diagonal(axis1=1, axis2=2).real, mats[2] ** powers)
    dense = _dense(mats)
    rows = labels + [(2,) * p for p in range(4)]
    direct = np.array([reduce(np.matmul, [dense[i] for i in label],
                              np.eye(cfg.dim)) for label in rows])
    flat = direct.reshape(len(rows), -1)
    want = (flat @ flat.conj().T).real
    assert gram.shape == want.shape == (40, 40)
    assert np.allclose(gram, want, rtol=0.0, atol=1e-12)


def _reference_gue(cfg, sample, gen_index):
    # the allocating formula the in-place sampler must match bit for bit
    rng = _stream(cfg.seed, sample, gen_index)
    d = cfg.dim

    def normals(count):
        half = (count + 1) // 2
        u1 = 1.0 - rng.random(half)
        u2 = rng.random(half)
        radius = np.sqrt(-2.0 * np.log(u1))
        angle = 2.0 * math.pi * u2
        return np.concatenate([radius * np.cos(angle),
                               radius * np.sin(angle)])[:count]

    re = normals(d * d).reshape(d, d)
    im = normals(d * d).reshape(d, d)
    a = re + 1j * im
    h = 0.5 * (a + a.conj().T)
    return (cfg.radius / 2.0) * h / math.sqrt(d)


@pytest.mark.parametrize("dim", [7, 64])
@pytest.mark.parametrize("radius", [2.0, 1.7])
def test_in_place_sampler_is_bit_identical(dim, radius):
    cfg = EnsembleConfig(dim=dim, n_generators=2, n_samples=1, seed=2026,
                         radius=radius)
    for g in range(2):
        ref = _reference_gue(cfg, 3, g)
        assert gue_matrix(cfg, 3, g).tobytes() == ref.tobytes()
        out = np.full((dim, dim), np.nan, np.complex128)
        assert gue_matrix(cfg, 3, g, out) is out
        assert out.tobytes() == ref.tobytes()


def test_empty_word_is_exact():
    cfg = EnsembleConfig(dim=8, n_generators=1, n_samples=2)
    assert estimate_trace(cfg, []) == (1.0, 0.0)
    assert estimate_trace_uword(cfg, EMPTY_WORD) == (1.0, 0.0)


def test_thread_count_never_changes_results(monkeypatch):
    cfg = EnsembleConfig(dim=30, n_generators=2, n_samples=7, seed=5)
    words = [(0, 0), (0, 1, 0, 1)]
    word = normalize([0, 1, 0])
    monkeypatch.setenv("FREENOISE_THREADS", "1")
    base = estimate_trace_many(cfg, words)
    base_u = estimate_trace_uword(cfg, word)
    for threads in ("2", "3"):
        monkeypatch.setenv("FREENOISE_THREADS", threads)
        assert estimate_trace_many(cfg, words) == base
        assert estimate_trace_uword(cfg, word) == base_u


def test_moments_approach_free_limit():
    cfg = EnsembleConfig(dim=300, n_generators=2, n_samples=10, seed=9)
    second, alternating = estimate_trace_many(cfg, [(0, 0), (0, 1, 0, 1)])
    assert abs(second.mean - 1.0) <= max(4.0 * second.se, 0.05)
    assert abs(alternating.mean) <= max(4.0 * alternating.se, 0.05)


def _uword_oracle(cfg, word):
    # per sample, U_e(H / r) of each run's letter: from eigh for a dense
    # letter, entrywise for the diagonal one; no monomial expansion
    vals = []
    for s in range(cfg.n_samples):
        mats = sample_generators(cfg, s)
        prod = np.eye(cfg.dim, dtype=np.complex128)
        for letter, exp in word.runs:
            if mats[letter].ndim == 1:
                prod = prod * eval_u(exp, mats[letter] / cfg.radius)
            else:
                evals, vecs = np.linalg.eigh(mats[letter])
                poly = (vecs * eval_u(exp, evals / cfg.radius)) @ vecs.conj().T
                prod = prod @ poly
        vals.append(np.trace(prod).real / cfg.dim)
    return _mean_se(vals)


@pytest.mark.parametrize("letters", [
    (0,) * 12,
    (1, 1, 1, 0, 2, 2, 0, 1, 2, 2, 2),
    (2, 2, 0, 0, 0, 1, 2, 1, 1, 0, 0, 2),
    (),
])
def test_uword_estimate_matches_eigen_oracle(letters):
    cfg = EnsembleConfig(dim=24, n_generators=3, n_samples=4, seed=13,
                         radius=1.7)
    word = normalize(letters)
    mean, se = _uword_oracle(cfg, word)
    est = estimate_trace_uword(cfg, word)
    assert est.mean == pytest.approx(mean, abs=1e-10)
    assert est.se == pytest.approx(se, abs=1e-10)


def test_uword_estimate_shifts_the_monomial():
    # the degree-2 basis element is x^2 - 1, so the uword trace equals
    # the monomial trace minus one, sample by sample
    cfg = EnsembleConfig(dim=60, n_generators=1, n_samples=6, seed=17)
    mono = estimate_trace(cfg, [0, 0])
    uest = estimate_trace_uword(cfg, normalize([0, 0]))
    assert uest.mean == pytest.approx(mono.mean - 1.0, abs=1e-12)
    assert uest.se == pytest.approx(mono.se, abs=1e-12)
    # with a dense letter 0 and the diagonal letter 1, the basis element
    # z1^2 z0 z1 is (x1^2 - 1) x0 x1
    pair = EnsembleConfig(dim=60, n_generators=2, n_samples=6, seed=17)
    long, short = estimate_trace_many(pair, [(1, 1, 0, 1), (0, 1)])
    uest = estimate_trace_uword(pair, normalize([1, 1, 0, 1]))
    assert uest.mean == pytest.approx(long.mean - short.mean, abs=1e-12)


def test_uword_traces_vanish_asymptotically():
    cfg = EnsembleConfig(dim=200, n_generators=2, n_samples=8, seed=19)
    est = estimate_trace_uword(cfg, normalize([0, 1, 0]))
    assert abs(est.mean) <= max(4.0 * est.se, 0.05)
