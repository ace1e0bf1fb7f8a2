import itertools
import math
from functools import reduce

import numpy as np
import pytest

from freenoise.chebyshev import eval_u
from freenoise.errors import ValidationError
from freenoise.matmodel import (
    EnsembleConfig,
    _cheb_of_matrix,
    _gram_rows,
    _half_products,
    _stream,
    estimate_trace,
    estimate_trace_many,
    estimate_trace_uword,
    gue_matrix,
    sample_generators,
)
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


def _words_up_to(n_letters, max_len):
    return [w for n in range(max_len + 1)
            for w in itertools.product(range(n_letters), repeat=n)]


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
    got = estimate_trace_many(cfg, words)
    for k, letters in enumerate(words):
        vals = []
        for s in range(cfg.n_samples):
            mats = sample_generators(cfg, s)
            prod = reduce(np.matmul, [mats[i] for i in letters],
                          np.eye(cfg.dim))
            vals.append(np.trace(prod).real / cfg.dim)
        vals = np.asarray(vals)
        assert got[k].mean == pytest.approx(vals.mean(), abs=1e-12)
        assert got[k].se == pytest.approx(
            vals.std(ddof=1) / np.sqrt(cfg.n_samples), abs=1e-12)


def test_half_products_reuse_conjugate_transposes():
    # the 127 binary words up to length 6 need every word of length 1-3;
    # of the 12 of length 2-3, three reverse pairs are conjugate copies
    cfg = EnsembleConfig(dim=16, n_generators=2, n_samples=1, seed=4)
    halves = set(_words_up_to(2, 3))
    labels = _gram_rows(halves, cfg.n_generators)
    assert len(labels) == 15
    pool = np.empty((len(labels), cfg.dim, cfg.dim), np.complex128)
    pool[0] = np.eye(cfg.dim)
    mats = sample_generators(cfg, 0, pool[1:3])
    prods = _half_products(mats, halves, pool)
    assert len(prods) - len(mats) == 9
    for label, row in zip(labels, pool):
        direct = reduce(np.matmul, [mats[i] for i in label], np.eye(cfg.dim))
        assert np.allclose(row, direct, rtol=0.0, atol=1e-13)


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


def test_cheb_of_matrix_matches_eigen_oracle():
    cfg = EnsembleConfig(dim=30, n_generators=1, n_samples=1, seed=13)
    h = gue_matrix(cfg, 0, 0)
    evals, vecs = np.linalg.eigh(h)
    for degree in (0, 1, 2, 5):
        oracle = (vecs * eval_u(degree, evals / 2.0)) @ vecs.conj().T
        got = _cheb_of_matrix(h, degree, 2.0)
        assert np.allclose(got, oracle, atol=1e-10)


def test_uword_estimate_shifts_the_monomial():
    # the degree-2 basis element is x^2 - 1, so the uword trace equals
    # the monomial trace minus one, sample by sample
    cfg = EnsembleConfig(dim=60, n_generators=1, n_samples=6, seed=17)
    mono = estimate_trace(cfg, [0, 0])
    uest = estimate_trace_uword(cfg, normalize([0, 0]))
    assert uest.mean == pytest.approx(mono.mean - 1.0, abs=1e-12)
    assert uest.se == pytest.approx(mono.se, abs=1e-12)


def test_uword_traces_vanish_asymptotically():
    cfg = EnsembleConfig(dim=200, n_generators=2, n_samples=8, seed=19)
    est = estimate_trace_uword(cfg, normalize([0, 1, 0]))
    assert abs(est.mean) <= max(4.0 * est.se, 0.05)
