"""Random-matrix Monte Carlo oracle for the trace engines.

Independent unitary-ensemble matrices of growing size behave like a
free semicircular family: normalized traces of words in them converge
to the non-crossing pairing counts.  This module samples such families
reproducibly and estimates traces with standard errors, giving an
asymptotic cross-check that is independent of every exact engine.

Sampling is deterministic per (seed, sample index, generator index)
through counter-based Philox streams, and Gaussians come from an
explicit Box-Muller transform of the uniform stream:

    z1 = sqrt(-2 ln u1) cos(2 pi u2),  z2 = sqrt(-2 ln u1) sin(2 pi u2),

with u1 flipped to (0, 1] so the log is finite.  A Hermitian sample is
H = (A + A*)/2 with A filled by independent standard complex normals,
so off-diagonal entries have unit second moment and the spectrum of
H/sqrt(dim) fills the radius-2 semicircle; the configured radius
rescales that support.  Samples are written in place into caller
buffers, in the same floating-point operation order as that formula.

The last generator of a sample is drawn diagonal, with the same law.
Write a GUE matrix B as U D U* with U Haar and D its eigenvalues, and
conjugate the pair (A, B) by U*: the pair becomes (U* A U, D).  A is
unitarily invariant and independent of (U, D), so (U* A U, D) has the
law of (A, D), and every trace expectation of words in the pair is
unchanged.  D is the spectrum of the beta = 2 tridiagonal model of
Dumitriu and Edelman ("Matrix models for beta ensembles", J. Math.
Phys. 43, 2002), which needs no dim x dim matrix.  The finite-N traces
this law gives are counted by genus in trace.trace_genus (Mingo and
Speicher, "Free Probability and Random Matrices", 2017, ch. 1).

Traces of many words share each sample.  Words are split in half, and
because the generators are Hermitian, the product of a reversed word is
the conjugate transpose of the word's product.  So tr(P_l P_r) is an
entrywise inner product of P_l with P_reverse(r), and one Gram matrix
over the identity, the left halves and the reversed right halves gives
every trace of the sample; a half whose reverse is already built is a
conjugate-transpose copy, and a product with the diagonal generator
scales rows or columns, so only dense times dense is a matrix product.
The halves that are powers of the diagonal generator, the identity
included, are diagonal themselves: their Gram entries need only the
diagonals of the dense halves, so only the dense halves are stored as
matrices and enter the Gram product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .chebyshev import eval_u
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
]


@dataclass(frozen=True)
class EnsembleConfig:
    dim: int = 1000
    n_generators: int = 2
    n_samples: int = 50
    seed: int = 0
    radius: float = 2.0
    max_word_len: int = 12

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


def _standard_normals(rng: np.random.Generator, out: np.ndarray) -> None:
    """Fill the flat float buffer with normals: cosine half, then sine half."""
    count = out.size
    half = (count + 1) // 2
    rest = count - half
    radius = rng.random(half)  # u1, flipped to (0, 1] next
    angle = rng.random(half)  # u2
    np.subtract(1.0, radius, out=radius)
    np.log(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    angle *= 2.0 * math.pi
    np.cos(angle, out=out[:half])
    out[:half] *= radius
    np.sin(angle, out=angle)
    np.multiply(radius[:rest], angle[:rest], out=out[half:])


def gue_matrix(cfg: EnsembleConfig, sample: int, gen_index: int,
               out: np.ndarray | None = None) -> np.ndarray:
    """One Hermitian sample, written into out when given.

    The scaling repeats the operation order of (radius/2) (A + A*)/2 /
    sqrt(dim) on the float view, so every entry is bit for bit what
    that complex expression gives; numpy divides a complex array by a
    real scalar through the reciprocal, hence the last factor.
    """
    rng = _stream(cfg.seed, sample, gen_index)
    d = cfg.dim
    h = np.empty((d, d), np.complex128) if out is None else out
    normals = np.empty((d, d))
    _standard_normals(rng, normals.reshape(-1))
    np.add(normals, normals.T, out=h.real)
    _standard_normals(rng, normals.reshape(-1))
    np.subtract(normals, normals.T, out=h.imag)
    flat = h.view(np.float64)
    flat *= 0.5
    flat *= cfg.radius / 2.0
    flat *= 1.0 / math.sqrt(d)
    return h


def gue_spectrum(cfg: EnsembleConfig, sample: int, gen_index: int) -> np.ndarray:
    """Eigenvalues of one GUE sample, scaled as gue_matrix scales its matrix.

    The beta = 2 tridiagonal model has independent N(0, 1) diagonal
    entries and off-diagonal entries chi_{2k}/sqrt(2), k = dim-1, ..., 1;
    chi_{2k}^2 / 2 is a Gamma(k) variable.  Its eigenvalues have the law
    of those of gue_matrix before scaling, and cost O(dim^2) through
    LAPACK's root-free QR (dsterf, which scipy's eigvalsh_tridiagonal
    also ends in).  The draws come from the (seed, sample, gen_index)
    stream.
    """
    from scipy.linalg.lapack import dsterf

    rng = _stream(cfg.seed, sample, gen_index)
    d = cfg.dim
    diag = rng.standard_normal(d)
    off = np.sqrt(rng.standard_gamma(np.arange(d - 1, 0, -1, dtype=float)))
    evals, info = dsterf(diag, off, overwrite_d=True)
    if info != 0:
        raise FreenoiseError(f"tridiagonal eigenvalues failed: dsterf info {info}")
    evals *= cfg.radius / 2.0
    evals *= 1.0 / math.sqrt(d)
    return evals


def sample_generators(cfg: EnsembleConfig, sample: int,
                      out: np.ndarray | None = None) -> list[np.ndarray]:
    """The sample's generators: gue_matrix draws, then one gue_spectrum.

    The last generator is the diagonal matrix of its gue_spectrum draw
    and is returned as that real vector; the others are dense, and are
    written into the leading rows of out when it is given.
    """
    last = cfg.n_generators - 1
    mats = [gue_matrix(cfg, sample, g, None if out is None else out[g])
            for g in range(last)]
    return mats + [gue_spectrum(cfg, sample, last)]


def _check_word(cfg: EnsembleConfig, letters: tuple[int, ...]) -> None:
    if len(letters) > cfg.max_word_len:
        raise ValidationError(
            f"word length {len(letters)} exceeds cap {cfg.max_word_len}")
    for i in letters:
        if not 0 <= i < cfg.n_generators:
            raise ValidationError(f"letter {i} outside the generator range")


def _gram_rows(halves: set[tuple[int, ...]],
               n_letters: int) -> list[tuple[int, ...]]:
    """Pool row labels: every dense letter, then every prefix of length
    two or more of the halves that holds a dense letter, ordered by
    (length, letters).  The last letter is the diagonal one: the
    identity and the powers of that letter are diagonal and are not
    pool rows (see _gram)."""
    diag = n_letters - 1
    need = {t[:k] for t in halves for k in range(2, len(t) + 1)}
    return [(i,) for i in range(diag)] + sorted(
        (t for t in need if t.count(diag) < len(t)),
        key=lambda t: (len(t), t))


def _half_products(mats: Sequence[np.ndarray],
                   labels: Sequence[tuple[int, ...]],
                   pool: np.ndarray,
                   ) -> dict[tuple[int, ...], np.ndarray]:
    """Fill the pool rows past the letters with their products.

    Row k of pool holds the product labelled by labels[k], the rows of
    _gram_rows.  The dense letter rows are already in place, and mats is
    what sample_generators returned for the letters: dense letters alias
    their rows, and the diagonal letter is its real vector of entries.
    The generators are Hermitian, so the product of a reversed word is
    the conjugate transpose of the word's product: a row whose reverse
    is an earlier row is copied that way.  A row ending in the diagonal
    letter is its prefix with columns scaled; a row that starts with a
    power of the diagonal letter, followed by an earlier row, is that
    row with rows scaled; every other row is its prefix times its last
    letter.  The returned dict holds the letters and the matmul products
    only, so its length beyond len(mats) is the number of matmuls made.
    """
    index = {t: k for k, t in enumerate(labels)}
    memo: dict[tuple[int, ...], np.ndarray] = {
        (i,): m for i, m in enumerate(mats)}
    for k in range(len(mats) - 1, len(labels)):
        t = labels[k]
        rev = index.get(t[::-1], k)
        last = mats[t[-1]]
        if rev < k:
            np.conjugate(pool[rev].T, out=pool[k])
        elif last.ndim == 1:
            np.multiply(pool[index[t[:-1]]], last, out=pool[k])
        elif (lead := _diagonal_lead(mats, t)) and t[lead:] in index:
            scale = mats[t[0]] ** lead
            np.multiply(pool[index[t[lead:]]], scale[:, None], out=pool[k])
        else:
            memo[t] = np.matmul(pool[index[t[:-1]]], last, out=pool[k])
    return memo


def _gram(flat: np.ndarray, diagonals: np.ndarray,
          powers: np.ndarray) -> np.ndarray:
    """Gram matrix of the pool rows, then of the diagonal rows D^p.

    flat holds the pool rows as real vectors of length 2 dim^2 and
    diagonals their real diagonals; powers holds the entries of each
    D^p.  Entry (a, b) is the real inner product Re <row_a, row_b> of
    the two matrices' entries.  A diagonal row meets a pool row X only
    on its diagonal, Re <X, D^p> = sum_i Re X_ii d_i^p, and two
    diagonal rows give sum_i d_i^p d_i^q, so only the pool rows need
    a product over all 2 dim^2 entries.
    """
    cross = diagonals @ powers.T
    return np.block([[flat @ flat.T, cross], [cross.T, powers @ powers.T]])


def _diagonal_lead(mats: Sequence[np.ndarray], t: tuple[int, ...]) -> int:
    """Length of the run of diagonal letters that starts t."""
    n = 0
    while n < len(t) and mats[t[n]].ndim == 1:
        n += 1
    return n


def _sample_slices(cfg: EnsembleConfig) -> list[range]:
    """Contiguous sample ranges, one per worker thread."""
    n_workers = max(1, min(thread_count(), cfg.n_samples))
    step = cfg.n_samples / n_workers
    bounds = [round(i * step) for i in range(n_workers + 1)]
    return [range(a, b) for a, b in zip(bounds, bounds[1:]) if a < b]


def estimate_trace_many(cfg: EnsembleConfig,
                        words: Sequence[Sequence[int]]) -> list[TraceEstimate]:
    """Monte Carlo traces of many words over shared sample matrices.

    Each word w = l r is split at mid = (len + 1) // 2, so only products
    of half length are ever multiplied.  For Hermitian generators the
    product of reverse(r) is the conjugate transpose of the product of
    r, so

        Re tr(P_l P_r) = Re <P_reverse(r), P_l>,

    a real inner product of the two matrices' entries.  Every left half
    and every reversed right half, closed under prefixes, that holds a
    dense letter is a row of one (rows, dim, dim) pool; seen as real
    vectors of length 2 dim^2 they give their traces through one Gram
    matrix F F^T, which numpy computes with a single symmetric rank-k
    BLAS update.  The halves that are powers D^p of the diagonal
    letter, the identity included, are diagonal, so their Gram entries
    come from the pool rows' diagonals in O(dim) each (see _gram).
    All words of one call see the same matrices, so estimates are
    correlated across words but each is unbiased, and the result is
    deterministic in the seed alone: sample streams are counter-based,
    so the worker count never changes a digit.
    """
    tuples = [tuple(int(i) for i in w) for w in words]
    for t in tuples:
        _check_word(cfg, t)
    splits = []
    for t in tuples:
        mid = (len(t) + 1) // 2
        splits.append((t[:mid], t[mid:][::-1]))
    halves = {h for pair in splits for h in pair}
    diag = cfg.n_generators - 1
    labels = _gram_rows(halves, cfg.n_generators)
    powers = sorted({len(h) for h in halves if h.count(diag) == len(h)})
    index = {t: k for k, t in enumerate(labels + [(diag,) * p for p in powers])}
    left = np.array([index[lh] for lh, _ in splits], dtype=np.intp)
    right = np.array([index[rh] for _, rh in splits], dtype=np.intp)
    exponents = np.array(powers, dtype=float)[:, None]

    def run_slice(samples: range) -> np.ndarray:
        # one pool per worker: fresh per-sample outputs grow the resident
        # set without bound on glibc
        pool = np.empty((len(labels), cfg.dim, cfg.dim), np.complex128)
        flat = pool.reshape(len(labels), cfg.dim * cfg.dim).view(np.float64)
        diagonals = pool.diagonal(axis1=1, axis2=2).real
        rows = np.empty((len(samples), len(tuples)))
        for row, sample in enumerate(samples):
            mats = sample_generators(cfg, sample, pool)
            _half_products(mats, labels, pool)
            gram = _gram(flat, diagonals, mats[-1] ** exponents)
            rows[row] = gram[right, left] / cfg.dim
        return rows

    table = np.concatenate(ordered_map(run_slice, _sample_slices(cfg)))
    means = table.mean(axis=0)
    if cfg.n_samples > 1:
        ses = table.std(axis=0, ddof=1) / math.sqrt(cfg.n_samples)
    else:
        ses = np.zeros(len(tuples))
    return [TraceEstimate(float(m), float(se)) for m, se in zip(means, ses)]


def estimate_trace(cfg: EnsembleConfig, letters: Sequence[int]) -> TraceEstimate:
    return estimate_trace_many(cfg, [letters])[0]


def _cheb_of_matrix(mat: np.ndarray, degree: int, radius: float,
                    work: list[np.ndarray] | None = None) -> np.ndarray:
    """Orthonormal Chebyshev polynomial of a Hermitian matrix.

    Matrix form of the recurrence for U_n(x/radius): q_{n+1} =
    (2/radius) x q_n - q_{n-1}, started at q_0 = I.  With a three-entry
    work list the whole recurrence runs in the caller's buffers; the
    result aliases one of them and must be consumed before the next
    call reuses it.
    """
    d = mat.shape[0]
    if work is None:
        work = [np.empty((d, d), dtype=mat.dtype) for _ in range(3)]
    prev, cur, nxt = work
    prev[:] = 0.0
    np.fill_diagonal(prev, 1.0)
    if degree == 0:
        return prev
    np.multiply(mat, 2.0 / radius, out=cur)
    for _ in range(degree - 1):
        np.matmul(mat, cur, out=nxt)
        nxt *= 2.0 / radius
        nxt -= prev
        prev, cur, nxt = cur, nxt, prev
    return cur


def estimate_trace_uword(cfg: EnsembleConfig, word: Word) -> TraceEstimate:
    """Monte Carlo trace of the orthonormal basis element labelled by word.

    Exact engines give exactly zero for nonempty words; the estimate
    quantifies how fast the matrix model approaches that.
    """
    _check_word(cfg, word.letters())
    if word.is_empty():
        return TraceEstimate(1.0, 0.0)

    def run_slice(samples: range) -> np.ndarray:
        work = [np.empty((cfg.dim, cfg.dim), np.complex128) for _ in range(3)]
        acc = [np.empty((cfg.dim, cfg.dim), np.complex128) for _ in range(2)]
        out = np.empty(len(samples))
        for row, sample in enumerate(samples):
            mats = sample_generators(cfg, sample)
            total = None
            for letter, exp in word.runs:
                if mats[letter].ndim == 1:
                    # U_n of a diagonal matrix acts entrywise, and a
                    # diagonal right factor scales columns
                    factor = eval_u(exp, mats[letter] / cfg.radius)
                    if total is None:
                        total = acc[0]
                        total[:] = 0.0
                        np.fill_diagonal(total, factor)
                    else:
                        total *= factor
                    continue
                factor = _cheb_of_matrix(mats[letter], exp, cfg.radius, work)
                if total is None:
                    np.copyto(acc[0], factor)
                    total = acc[0]
                else:
                    spare = acc[1] if total is acc[0] else acc[0]
                    np.matmul(total, factor, out=spare)
                    total = spare
            out[row] = np.trace(total).real / cfg.dim
        return out

    vals = np.concatenate(ordered_map(run_slice, _sample_slices(cfg)))
    mean = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(cfg.n_samples)) if cfg.n_samples > 1 else 0.0
    return TraceEstimate(mean, se)
