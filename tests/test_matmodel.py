import itertools
import math
import tracemalloc
from dataclasses import replace
from functools import reduce

import numpy as np
import pytest

from chebyshev_oracle import eval_u
from freenoise.errors import FreenoiseError, ValidationError
from freenoise.matmodel import (
    EnsembleConfig,
    _core_plan,
    _half_products,
    _row_blocks,
    _split,
    _stream,
    _trace_table,
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
    cfg = EnsembleConfig(dim=8, n_generators=2, n_samples=2)
    with pytest.raises(ValidationError):
        estimate_trace(cfg, [0, 2])
    with pytest.raises(ValidationError, match="word length 13 exceeds cap 12"):
        estimate_trace(cfg, [0, 1] * 6 + [0])


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


@pytest.mark.parametrize("dim", [2, 4, 7, 64, 600, 1000])
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
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr("freenoise.matmodel.np.linalg.eigvalsh", fail)
    cfg = EnsembleConfig(dim=8, n_generators=1, n_samples=1)
    with pytest.raises(FreenoiseError, match="did not converge"):
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
                         radius=1.7)
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


def _direct_traces(cfg, words):
    # samples x words: plain matmuls along the tree of prefixes, each
    # word's trace read from its prefix's product and its last letter
    longest = max(map(len, words))
    table = []
    for s in range(cfg.n_samples):
        mats = _dense(sample_generators(cfg, s))
        traces = {}

        def walk(prefix, prod):
            for i, m in enumerate(mats):
                word = prefix + (i,)
                traces[word] = np.sum(prod * m.T).real / cfg.dim
                if len(word) < longest:
                    walk(word, prod @ m)

        walk((), np.eye(cfg.dim))
        table.append([traces.get(w, 1.0) for w in words])
    return np.asarray(table)


@pytest.mark.parametrize("dim", [65, 150])
@pytest.mark.parametrize("n_letters,max_len", [(3, 5), (2, 6)])
def test_estimates_match_direct_products_across_row_blocks(dim, n_letters, max_len):
    # as above, at dims of two and three 64-row blocks: cores formed on
    # and right of the diagonal block, and pairs summed as
    # M_diag + M_off + M_off^T, must cross block edges exactly
    cfg = EnsembleConfig(dim=dim, n_generators=n_letters, n_samples=3,
                         seed=29, radius=1.7)
    words = _words_up_to(n_letters, max_len)
    got = estimate_trace_many(cfg, words)
    mean, se = _mean_se(_direct_traces(cfg, words))
    assert [e.mean for e in got] == pytest.approx(mean, rel=0.0, abs=1e-12)
    assert [e.se for e in got] == pytest.approx(se, rel=0.0, abs=1e-12)


def _pairs(words, diag):
    # the core pairs the words' halves make, smaller core first, and
    # whether both cores of each are palindromes
    pairs = {}
    for w in words:
        mid = (len(w) + 1) // 2
        c, c2 = (_split(h, diag)[1] for h in (w[:mid], w[mid:][::-1]))
        pairs[min(c, c2), max(c, c2)] = None
    return list(pairs), [c == c[::-1] and c2 == c2[::-1] for c, c2 in pairs]


def _check_row_blocks(cfg, plan):
    # every core's row blocks, as _half_products forms them from sample
    # 0, against the core's direct product: from the diagonal block on
    # where the plan marks the core (its columns left of that are
    # stale), whole rows elsewhere
    gens = sample_generators(cfg, 0)
    dense = _dense(gens)
    slices = np.full((len(plan) + 1, 64, cfg.dim), np.nan, np.complex128)
    for rows in _row_blocks(cfg.dim):
        blocks = _half_products(gens, rows, plan, slices)
        # the letters, then one matmul per planned core
        assert list(blocks) == [(i,) for i in range(len(gens))] + list(plan)
        for core, upper in plan.items():
            direct = reduce(np.matmul, [dense[i] for i in core])
            start = rows.start if upper else 0
            assert np.allclose(blocks[core][:, start:], direct[rows, start:],
                               rtol=0.0, atol=1e-13)


def test_binary_words_form_three_cores_two_right_of_the_diagonal():
    # each half of the 127 binary words up to length 6 is D^a c D^b with
    # D the diagonal letter 1 and a core c among 0, 00, 000 and 010; all
    # are palindromes, so 000 and 010 are formed on and right of the
    # diagonal block only, while 00 is 000's prefix and formed whole
    cfg = EnsembleConfig(dim=150, n_generators=2, n_samples=1, seed=4)
    plan = _core_plan(*_pairs(_words_up_to(2, 6), 1), 1)
    assert plan == {(0, 0): False, (0, 0, 0): True, (0, 1, 0): True}
    _check_row_blocks(cfg, plan)


def test_core_blocks_and_gram_entries_match_direct_products():
    # runs of the diagonal letter 2 lead, trail and sit inside halves,
    # some cores are reverses of others, and palindromes meet
    # non-palindromes; per word, the Gram entry it reads (its one-sample
    # trace times dim) against Re <P_r, P_l> of its direct halves
    cfg = EnsembleConfig(dim=70, n_generators=3, n_samples=1, seed=8,
                         radius=1.7)
    words = _words_up_to(3, 4)
    words += [(0, 2, 1, 0, 2, 1), (0, 1, 2, 1, 0, 1, 2, 1),
              (2, 2, 0, 1, 0, 1, 2), (0, 2, 2, 1, 1, 2, 0, 2),
              (1, 0, 2, 2, 2, 0, 1, 2), (2, 0, 2, 1, 2, 2),
              (2, 2, 2, 0, 2, 2, 2, 1), (2, 2, 2, 0, 0, 2, 2, 2), (2,) * 12,
              (0, 1, 0, 0, 1, 0), (0, 2, 0, 0, 2, 1)]
    plan = _core_plan(*_pairs(words, 2), 2)
    # a core's reverse is formed on its own, and a prefix core such as
    # (1, 2, 1) is formed although no half has it
    assert {(0, 2, 1), (1, 2, 0), (0, 1, 2, 1), (1, 2, 1, 0), (1, 2, 1)} <= set(plan)
    # (0, 1, 0) meets only itself, and the palindrome (0, 2, 0) meets
    # (1, 2, 0), so it is formed whole
    assert [c for c, upper in plan.items() if upper] == [(0, 1, 0)]
    _check_row_blocks(cfg, plan)
    entries = _trace_table(cfg, words)[0] * cfg.dim
    dense = _dense(sample_generators(cfg, 0))
    for entry, letters in zip(entries, words):
        mid = (len(letters) + 1) // 2
        left, right = (reduce(np.matmul, [dense[i] for i in half], np.eye(cfg.dim))
                       for half in (letters[:mid], letters[mid:][::-1]))
        assert entry == pytest.approx(np.vdot(right, left).real, rel=0.0, abs=1e-12)


def test_trace_memory_is_the_letters_and_row_slices(monkeypatch):
    # the 127 binary words hold their dense letter, the sampler's 64-row
    # float block (at most 1.25 blocks, as the sampler test bounds it),
    # one 64-row slice for each of the 3 formed cores and one of scratch,
    # and the chunk's spectra; the arrays of dim x exponents entries take
    # under 1/32 of a matrix, and the contraction's strided multiply takes
    # numpy's iteration buffers, at most np.getbufsize() floats for each
    # of its three operands whatever the dim.  The spectrum's dense
    # tridiagonal is gone before the letter and the slices are allocated
    monkeypatch.setenv("FREENOISE_THREADS", "1")
    words = _words_up_to(2, 6)
    cfg = EnsembleConfig(dim=256, n_generators=2, n_samples=2, seed=3)
    matrix = cfg.dim ** 2 * 16
    bound = (matrix + 1.25 * 64 * cfg.dim * 8 + (3 + 1) * 64 * cfg.dim * 16
             + cfg.n_samples * cfg.dim * 8 + matrix / 32 + 3 * np.getbufsize() * 8)
    # a first call imports numpy.random outside the trace
    estimate_trace_many(EnsembleConfig(dim=4, n_generators=2, n_samples=2), words)
    tracemalloc.start()
    try:
        estimate_trace_many(cfg, words)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound


@pytest.mark.parametrize("n_generators", [1, 2, 3])
def test_spectra_are_taken_before_the_pool(monkeypatch, n_generators):
    # at every eigvalsh call of a trace table, the traced memory is the
    # dense tridiagonal, the spectra taken so far and bookkeeping under a
    # quarter of one 64-row slice: no letter buffer, core slice or
    # scratch slice is alive while LAPACK works
    monkeypatch.setenv("FREENOISE_THREADS", "1")
    cfg = EnsembleConfig(dim=256, n_generators=n_generators, n_samples=3, seed=3)
    words = _words_up_to(n_generators, 4)
    eigvalsh, seen = np.linalg.eigvalsh, []

    def spy(a):
        seen.append(tracemalloc.get_traced_memory()[0])
        return eigvalsh(a)

    monkeypatch.setattr("freenoise.matmodel.np.linalg.eigvalsh", spy)
    # a first call imports numpy.random outside the trace
    _trace_table(replace(cfg, dim=4), words)
    seen.clear()
    tracemalloc.start()
    try:
        _trace_table(cfg, words)
    finally:
        tracemalloc.stop()
    bound = cfg.dim ** 2 * 8 + cfg.n_samples * cfg.dim * 8 + 64 * cfg.dim * 16 / 4
    assert len(seen) == cfg.n_samples
    assert max(seen) <= bound


@pytest.mark.parametrize("threads", ["1", "2"])
def test_sample_chunks_keep_every_row(monkeypatch, threads):
    # 130 samples cross the 64-sample chunk edges at 64 and 128, and over
    # two workers at 64 and 129: every row of the table against the
    # sample's direct products
    monkeypatch.setenv("FREENOISE_THREADS", threads)
    cfg = EnsembleConfig(dim=6, n_generators=3, n_samples=130, seed=37, radius=1.7)
    words = _words_up_to(3, 4)
    table = _trace_table(cfg, words)
    assert table.shape == (cfg.n_samples, len(words))
    assert table == pytest.approx(_direct_traces(cfg, words), rel=0.0, abs=1e-12)


def _reference_gue(cfg, sample, gen_index):
    # the allocating formula the in-place sampler must match bit for bit
    rng = _stream(cfg.seed, sample, gen_index)
    d = cfg.dim
    re = rng.standard_normal((d, d))
    im = rng.standard_normal((d, d))
    a = re + 1j * im
    return (a + a.conj().T) * (0.25 * cfg.radius / math.sqrt(d))


@pytest.mark.parametrize("dim", [7, 64, 65, 130])
@pytest.mark.parametrize("radius", [2.0, 1.7])
def test_in_place_sampler_is_bit_identical(dim, radius):
    # 65 and 130 cross the sampler's 64-row block edges
    cfg = EnsembleConfig(dim=dim, n_generators=2, n_samples=1, seed=2026,
                         radius=radius)
    for g in range(2):
        ref = _reference_gue(cfg, 3, g)
        assert gue_matrix(cfg, 3, g).tobytes() == ref.tobytes()
        out = np.full((dim, dim), np.nan, np.complex128)
        assert gue_matrix(cfg, 3, g, out) is out
        assert out.tobytes() == ref.tobytes()


def test_sampler_memory_is_one_row_block():
    # into a caller buffer, gue_matrix holds one 64 x dim float block for
    # its normals and no other temporary of that size
    cfg = EnsembleConfig(dim=256, n_generators=1, n_samples=1, seed=3)
    out = np.empty((cfg.dim, cfg.dim), np.complex128)
    gue_matrix(cfg, 0, 0, out)
    tracemalloc.start()
    try:
        gue_matrix(cfg, 1, 0, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 64 * cfg.dim * 8


def test_empty_word_is_exact():
    cfg = EnsembleConfig(dim=8, n_generators=1, n_samples=2)
    assert estimate_trace(cfg, []) == (1.0, 0.0)
    assert estimate_trace_uword(cfg, EMPTY_WORD) == (1.0, 0.0)


def test_thread_count_never_changes_results(monkeypatch):
    cfg = EnsembleConfig(dim=30, n_generators=2, n_samples=7, seed=5)
    words = [(0, 0), (0, 1, 0, 1)]
    word = normalize([0, 1, 0])
    # the 127 binary words over two row blocks
    binary = EnsembleConfig(dim=70, n_generators=2, n_samples=7, seed=5)
    table = {}
    for threads in ("1", "2", "3"):
        monkeypatch.setenv("FREENOISE_THREADS", threads)
        table[threads] = (estimate_trace_many(cfg, words),
                          estimate_trace_uword(cfg, word),
                          _trace_table(binary, _words_up_to(2, 6)).tobytes())
    assert table["1"] == table["2"] == table["3"]


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


def test_uword_estimate_does_not_depend_on_the_radius():
    # U_n(X / r) is the same matrix at every radius, so every radius
    # gives the radius-2 estimate, even where r^-n overflows a float
    word = normalize([0, 0, 1, 0, 0, 0, 1])
    base = estimate_trace_uword(EnsembleConfig(dim=12, n_samples=3, seed=6), word)
    assert math.isfinite(base.mean) and base.se > 0
    for radius in (1.7, 1e-100, 1e200):
        cfg = EnsembleConfig(dim=12, n_samples=3, seed=6, radius=radius)
        assert estimate_trace_uword(cfg, word) == base


def test_uword_traces_vanish_asymptotically():
    cfg = EnsembleConfig(dim=200, n_generators=2, n_samples=8, seed=19)
    est = estimate_trace_uword(cfg, normalize([0, 1, 0]))
    assert abs(est.mean) <= max(4.0 * est.se, 0.05)
