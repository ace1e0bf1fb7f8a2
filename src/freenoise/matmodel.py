"""Random-matrix Monte Carlo oracle for the trace engines.

Independent unitary-ensemble matrices of growing size behave like a
free semicircular family: normalized traces of words in them converge
to the non-crossing pairing counts.  This module samples such families
reproducibly and estimates traces with standard errors, giving an
asymptotic cross-check that is independent of every exact engine.

Sampling is deterministic per (seed, sample index, generator index)
through counter-based Philox streams, and every Gaussian is numpy's
standard_normal of that stream.  A Hermitian sample is H = (A + A*)/2
with A filled by independent standard complex normals, so off-diagonal
entries have unit second moment and the spectrum of H/sqrt(dim) fills
the radius-2 semicircle; the configured radius rescales that support.
Samples are written in place into caller buffers, the normals drawn 64
rows at a time into one 64 x dim float block.

The last generator of a sample is drawn diagonal, with the same law.
Write a GUE matrix B as U D U* with U Haar and D its eigenvalues, and
conjugate the pair (A, B) by U*: the pair becomes (U* A U, D).  A is
unitarily invariant and independent of (U, D), so (U* A U, D) has the
law of (A, D), and every trace expectation of words in the pair is
unchanged.  D is the spectrum of the beta = 2 tridiagonal model of
Dumitriu and Edelman ("Matrix models for beta ensembles", J. Math.
Phys. 43, 2002), taken by numpy's eigvalsh from the tridiagonal matrix
stored dense.  LAPACK reduces a matrix that is already tridiagonal with
Householder reflectors of tau = 0, so the root-free QR it then runs
sees the draws unchanged, and the spectrum briefly holds two dim x dim
float matrices: the dense tridiagonal and LAPACK's copy of it.  A worker
takes its samples 64 at a time and their spectra before anything else
of the chunk, so those two matrices never sit on top of its buffers.
The finite-N traces this law gives are counted by genus in
trace.trace_genus (Mingo and Speicher, "Free Probability and Random
Matrices", 2017, ch. 1).

Traces of many words share each sample.  Words are split in half, and
because the generators are Hermitian, the product of a reversed word is
the conjugate transpose of the word's product, so tr(P_l P_r) is an
entrywise inner product of P_l with P_reverse(r).  Each half is
D^a c D^b, D the diagonal generator and c its core, which starts and
ends with a dense letter or is the identity.  Only the cores are
multiplied, so only dense times dense is a matrix product, and the
powers of D weight the inner product of each core pair.  The cores are
formed 64 rows at a time, and each pair's inner product is summed from
those rows before the next are formed.  A worker holds its dense
letters, one 64 x dim slice per formed core and one of scratch, the
chunk's spectra, and the sampler's 64 x dim float block while it
draws: the 127 binary words up to length 6 form the cores 00, 000 and
010 from the letter 0.  A palindromic core is Hermitian, and one that
is no other core's prefix and meets only palindromes is formed only on
and right of its diagonal block, as 000 and 010 are.

U-words, the orthonormal basis elements p_{a1}(X_{i1}) ... p_{ak}(X_{ik})
with p_n(x) = U_n(x / radius), do not depend on the radius: X / radius
is the same matrix at every radius, up to rounding.  They are estimated
on the radius-2 ensemble, where each run contributes the integer
coefficients of U_n(x / 2) (chebyshev.orthonormal_poly), and every
sample's U-word trace is that combination of its monomial traces.  The
empty word is the single monomial (), whose weighted Gram entry is dim
itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from .chebyshev import orthonormal_poly
from .errors import FreenoiseError, ValidationError
from .parallel import ordered_map, thread_count
from .words import Word

__all__ = [
    "EnsembleConfig",
    "TraceEstimate",
    "gue_matrix",
    "gue_spectrum",
    "sample_generators",
    "estimate_trace",
    "estimate_trace_many",
    "estimate_trace_uword",
    "uword_monomials",
]

# longest word a trace estimate accepts
MAX_WORD_LEN = 12

# rows of a core formed at a time
_BLOCK_ROWS = 64


@dataclass(frozen=True)
class EnsembleConfig:
    dim: int = 1000
    n_generators: int = 2
    n_samples: int = 50
    seed: int = 0
    radius: float = 2.0

    def __post_init__(self):
        if self.dim < 2:
            raise ValidationError("matrix dimension must be >= 2")
        if self.n_generators < 1 or self.n_samples < 1:
            raise ValidationError("need at least one generator and one sample")
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise ValidationError("radius must be positive and finite")


class TraceEstimate(NamedTuple):
    mean: float
    se: float


def _stream(seed: int, sample: int, gen_index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(sample, gen_index))
    return np.random.Generator(np.random.Philox(ss))


def gue_matrix(cfg: EnsembleConfig, sample: int, gen_index: int,
               out: np.ndarray | None = None) -> np.ndarray:
    """One Hermitian sample, written into out when given."""
    rng = _stream(cfg.seed, sample, gen_index)
    d = cfg.dim
    h = np.empty((d, d), np.complex128) if out is None else out
    # N + N^T, then N' - N'^T.  Each plane first takes its normals as
    # drawn, row-major through one 64-row float block; then each block of
    # rows is finished against its column strip, copied transposed into
    # the block.  From the strip's diagonal tile on, the rows below still
    # hold draws, so an entry is N_ij +- N_ji; left of it the rows above
    # are finished, and -0 + S_ji or 0 - S_ji rounds exactly as N_ij +- N_ji
    # does.  Assignments and whole rows take no numpy iteration buffer
    block = np.empty((min(_BLOCK_ROWS, d), d))
    for plane, op, zero in ((h.real, np.add, -0.0), (h.imag, np.subtract, 0.0)):
        for rows in _row_blocks(d):
            normals = block[:rows.stop - rows.start]
            rng.standard_normal(out=normals)
            plane[rows] = normals
        for rows in _row_blocks(d):
            strip = block[:rows.stop - rows.start]
            strip[...] = plane[:, rows].T
            plane[rows, :rows.start] = zero
            op(plane[rows], strip, out=plane[rows])
    flat = h.view(np.float64)
    flat *= 0.25 * cfg.radius / math.sqrt(d)
    return h


def gue_spectrum(cfg: EnsembleConfig, sample: int, gen_index: int) -> np.ndarray:
    """Eigenvalues of one GUE sample, scaled as gue_matrix scales its matrix.

    The beta = 2 tridiagonal model has independent N(0, 1) diagonal
    entries and off-diagonal entries chi_{2k}/sqrt(2), k = dim-1, ..., 1;
    chi_{2k}^2 / 2 is a Gamma(k) variable.  Its eigenvalues have the law
    of those of gue_matrix before scaling.  numpy's eigvalsh takes them
    from the matrix stored dense, the draws on its diagonal and first
    subdiagonal: the reduction to tridiagonal form finds every
    Householder tau = 0, so the values are those of LAPACK's root-free
    QR on the draws themselves, and the call briefly holds two dim x dim
    float matrices, this one and LAPACK's copy; _trace_table takes its
    spectra before it allocates its buffers.  The draws come from the
    (seed, sample, gen_index) stream.
    """
    rng = _stream(cfg.seed, sample, gen_index)
    d = cfg.dim
    tri = np.zeros((d, d))
    tri.flat[::d + 1] = rng.standard_normal(d)
    tri.flat[d::d + 1] = np.sqrt(rng.standard_gamma(np.arange(d - 1, 0, -1, dtype=float)))
    try:
        evals = np.linalg.eigvalsh(tri)
    except np.linalg.LinAlgError as exc:
        raise FreenoiseError(f"tridiagonal eigenvalues failed: {exc}") from exc
    evals *= cfg.radius / 2.0
    evals *= 1.0 / math.sqrt(d)
    return evals


def sample_generators(cfg: EnsembleConfig, sample: int,
                      out: np.ndarray | None = None,
                      spectrum: np.ndarray | None = None) -> list[np.ndarray]:
    """The sample's generators: gue_matrix draws, then one gue_spectrum.

    The last generator is the diagonal matrix of its gue_spectrum draw
    and is returned as that real vector, spectrum itself when given; the
    others are dense, and are written into the leading rows of out when
    it is given.
    """
    last = cfg.n_generators - 1
    mats = [gue_matrix(cfg, sample, g, None if out is None else out[g])
            for g in range(last)]
    return mats + [gue_spectrum(cfg, sample, last) if spectrum is None else spectrum]


def _check_word(cfg: EnsembleConfig, letters: tuple[int, ...]) -> None:
    if len(letters) > MAX_WORD_LEN:
        raise ValidationError(
            f"word length {len(letters)} exceeds cap {MAX_WORD_LEN}")
    for i in letters:
        if not 0 <= i < cfg.n_generators:
            raise ValidationError(f"letter {i} outside the generator range")


def _split(half: tuple[int, ...], diag: int) -> tuple[int, tuple[int, ...], int]:
    """(a, core, b) with half = D^a core D^b for the diagonal letter
    D = diag: the core starts and ends with a dense letter, or is the
    identity () when half is a power of D."""
    a = next((k for k, x in enumerate(half) if x != diag), len(half))
    b = next((k for k, x in enumerate(half[::-1]) if x != diag), 0)
    return a, half[a:len(half) - b], b


def _core_plan(pairs: Sequence[tuple[tuple[int, ...], tuple[int, ...]]],
               symmetric: Sequence[bool], diag: int) -> dict[tuple[int, ...], bool]:
    """Every core that is a matrix product, with whether it is formed only
    on and right of its diagonal block.

    These are the pairs' cores longer than one letter and the prefix core
    c' of each core c = c' D^k x, ordered by (length, letters) so that a
    prefix comes before the cores it starts.  A core is formed on and
    right of its diagonal block when it is a palindrome, so Hermitian, no
    core's prefix, and in no pair that symmetric marks False, one with a
    non-palindrome (see _trace_table).
    """
    cores = {c for pair in pairs for c in pair if len(c) > 1}
    prefixes = set()
    for length in range(max(map(len, cores), default=0), 1, -1):
        for c in [c for c in cores if len(c) == length]:
            prefix = _split(c[:-1], diag)[1]
            if len(prefix) > 1:
                prefixes.add(prefix)
                cores.add(prefix)
    mixed = {c for pair, sym in zip(pairs, symmetric) if not sym for c in pair}
    return {c: c == c[::-1] and c not in prefixes and c not in mixed
            for c in sorted(cores, key=lambda t: (len(t), t))}


def _row_blocks(dim: int) -> list[slice]:
    """The rows of a dim x dim matrix, _BLOCK_ROWS at a time."""
    return [slice(lo, min(lo + _BLOCK_ROWS, dim)) for lo in range(0, dim, _BLOCK_ROWS)]


def _half_products(mats: Sequence[np.ndarray],
                   rows: slice,
                   plan: dict[tuple[int, ...], bool],
                   slices: np.ndarray,
                   ) -> dict[tuple[int, ...], np.ndarray]:
    """One row block of every letter and of every planned core.

    mats is what sample_generators returned, plan what _core_plan did,
    and slices holds one _BLOCK_ROWS x dim slice per planned core and a
    last one of scratch.  A core c = c' D^k x is (rows of c') D^k @ X_x,
    the prefix core's columns scaled into the scratch when k > 0; a core
    the plan marks is formed in the columns from the block's first row
    index on, and its other columns are stale.  The returned dict is
    keyed by letter and core, the diagonal letter giving its entries in
    the rows, so its length beyond len(mats) is the number of matmuls
    made.
    """
    diag = len(mats) - 1
    n, scratch = rows.stop - rows.start, slices[-1]
    memo = {(i,): m[rows] for i, m in enumerate(mats)}
    for (c, upper), out in zip(plan.items(), slices):
        _, prefix, power = _split(c[:-1], diag)
        left, start = memo[prefix], rows.start if upper else 0
        if power:
            left = np.multiply(left, mats[diag] ** power, out=scratch[:n])
        np.matmul(left, mats[c[-1]][:, start:], out=out[:n, start:])
        memo[c] = out[:n]
    return memo


def _sample_slices(cfg: EnsembleConfig) -> list[range]:
    """Contiguous sample ranges, one per worker thread."""
    n_workers = max(1, min(thread_count(), cfg.n_samples))
    step = cfg.n_samples / n_workers
    bounds = [round(i * step) for i in range(n_workers + 1)]
    return [range(a, b) for a, b in zip(bounds, bounds[1:]) if a < b]


def _trace_table(cfg: EnsembleConfig,
                 words: Sequence[tuple[int, ...]]) -> np.ndarray:
    """Normalized trace of every word in every sample, samples x words.

    Each word w = l r is split at mid = (len + 1) // 2, so only products
    of half length are ever multiplied.  The halves' products are
    D^a C D^b and, for the right half read reversed, D^a' C' D^b', with
    C and C' the products of their cores (see _split); for Hermitian
    generators

        Re tr(P_w) = sum_ij d_i^(a + a') d_j^(b + b') Re(C_ij conj C'_ij),

    entry (a + a', b + b') of V R V^T, where R holds the real parts of
    the entrywise products of the two cores and row p of V the powers
    d_i^p.  Each core pair that some word needs makes one such table,
    summed over the row blocks of R as _half_products forms them.  When
    both cores are palindromes they are Hermitian and R is symmetric, so
    only its blocks on and right of the diagonal are read: the table is
    M_diag + M_off + M_off^T, M_diag from the diagonal blocks and M_off
    from those right of them.  Sample streams are counter-based, so
    neither the worker count nor the 64-sample chunks change a digit.
    """
    diag, dim = cfg.n_generators - 1, cfg.dim
    pairs: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
    at = []  # per word: its core pair, smaller core first, and exponents
    for t in words:
        _check_word(cfg, t)
        mid = (len(t) + 1) // 2
        (a, c, b), (a2, c2, b2) = _split(t[:mid], diag), _split(t[mid:][::-1], diag)
        at.append((pairs.setdefault((min(c, c2), max(c, c2)), len(pairs)), a + a2, b + b2))
    at = np.array(at, dtype=np.intp).reshape(-1, 3)
    symmetric = [all(t == t[::-1] for t in pair) for pair in pairs]
    plan = _core_plan(list(pairs), symmetric, diag)
    exponents = np.arange(at[:, 1:].max(initial=0) + 1.0)[:, None]

    def sample_row(sample: int, spectrum: np.ndarray, letters: np.ndarray,
                   slices: np.ndarray, grams: np.ndarray, halves: np.ndarray,
                   sums: np.ndarray) -> np.ndarray:
        mats = sample_generators(cfg, sample, letters, spectrum)
        grams.fill(0.0)
        halves.fill(0.0)
        # an overflowing ensemble gives a non-finite table, which the
        # caller rejects; numpy's warnings would only precede that
        with np.errstate(over="ignore", invalid="ignore"):
            powers = mats[-1] ** exponents
            twice = np.repeat(powers, 2, axis=1)
            for rows in _row_blocks(dim):
                lo, hi = rows.start, rows.stop
                blocks = _half_products(mats, rows, plan, slices)
                v, part = powers[:, rows], sums[:hi - lo]
                for p, (first, second) in enumerate(pairs):
                    if not first:  # an identity core meets the other on its diagonal
                        weights = blocks[second][:, lo:hi].diagonal().real if second else 1.0
                        grams[p] += (v * weights) @ v.T
                        continue
                    # columns start to cut count once, those past cut twice
                    start, cut = (lo, hi) if symmetric[p] else (0, dim)
                    # real and imaginary parts interleaved
                    flat = np.multiply(blocks[first][:, start:].view(np.float64),
                                       blocks[second][:, start:].view(np.float64),
                                       out=slices[-1, :hi - lo, start:].view(np.float64))
                    width = 2 * (cut - start)
                    grams[p] += v @ np.matmul(flat[:, :width],
                                              twice[:, 2 * start:2 * cut].T, out=part)
                    if cut < dim:
                        halves[p] += v @ np.matmul(flat[:, width:],
                                                   twice[:, 2 * cut:].T, out=part)
            grams += halves
            grams += halves.transpose(0, 2, 1)
        return grams[at[:, 0], at[:, 1], at[:, 2]] / dim

    def run_chunk(samples: range) -> list[np.ndarray]:
        # the chunk's spectra first, so that the dense tridiagonal and
        # LAPACK's copy of it never sit on top of the buffers below, which
        # go when the call returns, before the next chunk's spectra
        spectra = [gue_spectrum(cfg, sample, diag) for sample in samples]
        # buffers per chunk: fresh per-sample outputs grow the resident
        # set without bound on glibc
        letters = np.empty((diag, dim, dim), np.complex128)
        slices = np.empty((len(plan) + 1, min(_BLOCK_ROWS, dim), dim), np.complex128)
        grams = np.empty((len(pairs), len(exponents), len(exponents)))
        halves = np.empty_like(grams)
        sums = np.empty((len(slices[0]), len(exponents)))
        return [sample_row(sample, spectrum, letters, slices, grams, halves, sums)
                for sample, spectrum in zip(samples, spectra)]

    def run_slice(samples: range) -> np.ndarray:
        # _BLOCK_ROWS samples at a time, so the spectra held stay bounded
        return np.array([row for lo in range(0, len(samples), _BLOCK_ROWS)
                         for row in run_chunk(samples[lo:lo + _BLOCK_ROWS])])

    return np.concatenate(ordered_map(run_slice, _sample_slices(cfg)))


def _estimates(table: np.ndarray) -> list[TraceEstimate]:
    """Mean and standard error of each column of a samples x words table;
    a column that is not finite gives estimates that are not finite."""
    n = len(table)
    with np.errstate(over="ignore", invalid="ignore"):
        ses = table.std(axis=0, ddof=1) / math.sqrt(n) if n > 1 else np.zeros(table.shape[1])
        means = table.mean(axis=0)
    return [TraceEstimate(float(m), float(se)) for m, se in zip(means, ses)]


def estimate_trace_many(cfg: EnsembleConfig,
                        words: Sequence[Sequence[int]]) -> list[TraceEstimate]:
    """Monte Carlo traces of many words over shared sample matrices.

    Estimates are correlated across words but each is unbiased, and the
    result is deterministic in the seed alone.
    """
    return _estimates(_trace_table(cfg, [tuple(int(i) for i in w) for w in words]))


def estimate_trace(cfg: EnsembleConfig, letters: Sequence[int]) -> TraceEstimate:
    return estimate_trace_many(cfg, [letters])[0]


def uword_monomials(word: Word) -> dict[tuple[int, ...], int]:
    """Integer monomial coefficients of the U-word at radius 2, run by run."""
    terms = {(): 1}
    for letter, exp in word.runs:
        poly = orthonormal_poly(exp)
        grown: dict[tuple[int, ...], int] = {}
        for mono, c in terms.items():
            for j, a in enumerate(poly):
                key = mono + (letter,) * j
                grown[key] = grown.get(key, 0) + c * a
        terms = grown
    return {mono: c for mono, c in terms.items() if c}


def estimate_trace_uword(cfg: EnsembleConfig, word: Word) -> TraceEstimate:
    """Monte Carlo trace of the orthonormal basis element labelled by word.

    Exact engines give exactly zero for nonempty words; the estimate
    quantifies how fast the matrix model approaches that.  It is drawn
    on the radius-2 ensemble, whatever cfg.radius is.
    """
    _check_word(cfg, word.letters())
    terms = uword_monomials(word)
    coeffs = np.array(list(terms.values()), float)
    traces = _trace_table(replace(cfg, radius=2.0), list(terms)) @ coeffs
    return _estimates(traces[:, None])[0]
