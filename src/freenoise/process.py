"""The stationary-increment free process, its white-noise derivative,
and Riemann-sum stochastic integration.

A density and a Hermite truncation define the process operator at time
t as the field operator of the one-particle vector with coefficient
vector alpha(t), the letter i carrying the Hermite index i + 1.  Its
time derivative uses the multiplier values instead.  The stochastic
integral of an operator-valued path Y against the white noise is the
limit of left-tagged dyadic Riemann sums

    sum_j Y(u_j) (x) (W(u_j) f) * delta,

measured in a weighted norm two levels above the state's own, where
the tensor-product inequality controls each term.  The path is one
coefficient matrix over its tags, built once, and the integral stays
on coefficient arrays from its tags to its result: the noise rows are
Z = T M_f, the multiplier values at the tags times the matrix of the
field operator on f, since W(u) f is linear in tm(u); each dyadic
level's sum is one matrix product Y^T Z of the path's rows at its
tags and the noise's rows, folded onto the product words, and all
levels are rows over one list of words.  The distance between
consecutive levels is one weighted norm of the difference of their
rows, and only the finest sum and its extrapolation become Fock
elements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import compress
from typing import Callable, Sequence

import numpy as np

from . import fock, spectral
from .errors import LevelTooLowError, NonCauchyError, UncertifiedError, ValidationError
from .fock import DEFAULT_DEGREE_CAP, FockElement, vacuum
from .spectral import SpectralDensity, TailReport
from .words import WeightSequence, Word, weight

__all__ = [
    "ProcessState",
    "IntegrandPath",
    "IntegralResult",
    "apply_process",
    "apply_whitenoise",
    "derivative_errors",
    "derivative_order",
    "riemann_sum",
    "stochastic_integral",
]

# the one time at which the per-state tail certificate is fitted; it is
# not re-checked at other times, where its bound need not hold
_CERT_TIME = 1.0

# finest dyadic refinement a path is sampled at and a sum is taken over:
# 2^16 tags
_MAX_LEVELS = 16


@dataclass(frozen=True)
class ProcessState:
    """Density plus the truncation and weight bookkeeping for one process.

    level is the weight exponent p of the distribution-space norm the
    process lives at; a polynomial-class density needs p at least its
    class index plus 3, which is also what the tail certificate checks.
    """

    density: SpectralDensity
    n_max: int = 200
    degree_cap: int | None = DEFAULT_DEGREE_CAP
    level: int | None = None
    seq: WeightSequence = field(default_factory=WeightSequence.linear)

    def __post_init__(self):
        if self.n_max < 16:
            raise ValidationError("need a Hermite truncation of at least 16")
        if self.level is None:
            object.__setattr__(self, "level", self.density.class_index + 3)
        if self.density.growth == "polynomial" and \
                self.level < self.density.class_index + 3:
            raise LevelTooLowError(
                f"weight level {self.level} below the regularity threshold "
                f"{self.density.class_index + 3} for this density")

    def certificate(self) -> TailReport:
        return _certificate(self.density, self.level, self.n_max, self.seq)


@lru_cache(maxsize=64)
def _certificate(dens: SpectralDensity, level: int, n_max: int,
                 seq: WeightSequence) -> TailReport:
    return spectral.certify_tail(dens, level, _CERT_TIME, n_max=n_max, seq=seq)


def _require_certified(state: ProcessState) -> None:
    report = state.certificate()
    if not report.certified:
        raise UncertifiedError(
            f"truncation at {state.n_max} not certified at level "
            f"{state.level}: {report.detail}")


def apply_process(state: ProcessState, t: float, f: FockElement) -> FockElement:
    """Process operator at time t applied to f; zero at t = 0."""
    _require_certified(state)
    if t == 0.0:
        return FockElement()
    coeffs = spectral.alpha_vector(state.density, t, state.n_max)
    return fock.apply_x(coeffs, f, state.degree_cap)


def apply_whitenoise(state: ProcessState, t: float, f: FockElement) -> FockElement:
    """White-noise derivative at time t applied to f."""
    _require_certified(state)
    coeffs = spectral.tm_values(state.density, t, state.n_max)
    return fock.apply_x(coeffs, f, state.degree_cap)


def derivative_errors(state: ProcessState, t: float,
                      steps: Sequence[float]) -> list[float]:
    """Finite-difference errors of the white noise as the process derivative.

    For each step h, the level -p norm of (1/h)(X(t+h) - X(t)) - W(t)
    applied to the vacuum; first order means the errors fall like h.
    """
    if any(h <= 0 for h in steps):
        raise ValidationError("step sizes must be positive")
    p = float(state.level)
    base = apply_process(state, t, vacuum())
    noise = apply_whitenoise(state, t, vacuum())
    errors = []
    for h in steps:
        shifted = apply_process(state, t + h, vacuum())
        diff = (1.0 / h) * (shifted - base) - noise
        errors.append(fock.norm(diff, -p, state.seq))
    return errors


def derivative_order(state: ProcessState, t: float,
                     steps: Sequence[float]) -> tuple[list[float], float]:
    """Finite-difference errors and the order at which they fall.

    The order is minus the exponent of a power-law fit of the errors
    against 1/h, so first order reads 1; the fit needs 3 step sizes.
    """
    if len(steps) < 3:
        raise ValidationError(
            f"the slope fit needs at least 3 step sizes, got {len(steps)}")
    errors = derivative_errors(state, t, steps)
    return errors, -spectral.fit_power_law([1.0 / h for h in steps], errors).exponent


@dataclass(frozen=True, eq=False)
class IntegrandPath:
    """An operator-integrand path Y as one coefficient matrix over its tags:
    rows[k] holds the coefficients of Y(times[k]) over words, the union
    support of the samples in first-seen order.  A Riemann sum reads its
    tags as row indices, so each of its tags must be one of times."""

    times: tuple[float, ...]
    words: tuple[Word, ...]
    rows: np.ndarray

    @classmethod
    def dyadic(cls, fn: Callable[[float], FockElement], a: float, b: float,
               levels: int) -> "IntegrandPath":
        """Sample fn at the left tags of the finest dyadic partition.

        Coarser dyadic partitions of [a, b] use subsets of these tags,
        so one sampled path serves every refinement level up to levels,
        which is at most _MAX_LEVELS.
        """
        if not 0 <= levels <= _MAX_LEVELS:
            raise ValidationError(
                f"levels must be between 0 and {_MAX_LEVELS}, got {levels}")
        _check_interval(a, b)
        n = 1 << levels
        step = (b - a) / n
        times = tuple(a + j * step for j in range(n))
        if any(u <= t for t, u in zip(times, times[1:])):
            raise ValidationError(f"[{a!r}, {b!r}] is too short for {n} distinct tags")
        values = [fn(t) for t in times]
        index: dict[Word, int] = {}
        cols = [index.setdefault(w, len(index)) for v in values for w in v.coeffs]
        rows = np.zeros((n, len(index)), dtype=complex)
        rows[np.repeat(np.arange(n), [len(v.coeffs) for v in values]), cols] = \
            [c for v in values for c in v.coeffs.values()]
        rows.flags.writeable = False
        return cls(times, tuple(index), rows)


def _check_interval(a: float, b: float) -> None:
    if not (math.isfinite(a) and math.isfinite(b - a) and b > a):
        raise ValidationError(f"need finite a < b, got a = {a!r}, b = {b!r}")


@dataclass(frozen=True)
class IntegralResult:
    """Finest Riemann sum plus the refinement diagnostics.

    extrapolated removes the leading 1/n error term from the last two
    sums; once convergence is declared at first order it is the best
    available estimate of the limit.
    """
    value: FockElement
    extrapolated: FockElement
    distances: tuple[float, ...]
    ratios: tuple[float, ...]
    converged: bool
    level_p: int
    level_q: int


def riemann_sum(state: ProcessState, path: IntegrandPath, f: FockElement,
                a: float, b: float, n_intervals: int) -> FockElement:
    """Left-tagged Riemann sum sum_j step * Y(u_j) (x) W(u_j) f."""
    if not 1 <= n_intervals <= 1 << _MAX_LEVELS:
        raise ValidationError(
            f"n_intervals must be between 1 and {1 << _MAX_LEVELS}, got {n_intervals}")
    words, rows, dropped, _ = _riemann_sums(state, path, f, a, b, n_intervals, 1, 0.0)
    return _element(words, rows[0], dropped[0])


def _riemann_sums(state: ProcessState, path: IntegrandPath, f: FockElement,
                  a: float, b: float, n_intervals: int, depth: int,
                  level: float) -> tuple[list[Word], np.ndarray, np.ndarray, np.ndarray]:
    """The sums at n_intervals / 2^k intervals, for k = depth - 1, ..., 0,
    as coefficient rows over one list of words.

    Y is the path's rows at the tags of the finest partition, each tag
    looked up exactly among its times, and Z the noise rows
    (``_noise_rows``).  The sum that takes every 2^k-th tag is
    step * Y[::2^k]^T Z[::2^k], one matrix product whose entry (i, j)
    lands on the product word of left word i and right word j; entries
    on one word are added in pair order.

    Returns the words up to the degree cap on which some sum is nonzero,
    in slot order (``fock.tensor_slots``); one complex row per sum over
    them; each sum's mass above the cap, the sum of its |c|^2 there; and
    the level-``level`` weight of each word, weight(l) * weight(r) of
    the first pair (l, r) that lands on it.
    """
    _check_interval(a, b)
    step = (b - a) / n_intervals
    tags = [a + j * step for j in range(n_intervals)]
    index = {t: k for k, t in enumerate(path.times)}
    try:
        ks = [index[u] for u in tags]
    except KeyError as e:
        raise ValidationError(f"path not sampled at t = {e.args[0]!r}") from None
    left, y = path.words, path.rows[ks]
    right, z = _noise_rows(state, tags, f)
    words, slots = fock.tensor_slots(left, right)
    slots = np.asarray(slots, dtype=np.intp)
    n = len(words)
    # real rows, as on the process path, take the real product: einsum
    # forms its terms and adds them in the same order, so its sums are
    # the real parts of the complex product's, bit for bit
    if not (y.imag.any() or z.imag.any()):
        y, z = y.real, z.real
    # Y^T Z by einsum: BLAS hands a product this small to a second
    # thread, whose handoff can double the whole solve on two cores
    pairs = np.array([(b - a) / (n_intervals >> k)
                      * np.einsum("ti,tj->ij", y[::1 << k], z[::1 << k]).ravel()
                      for k in range(depth - 1, -1, -1)])
    # one bincount for all sums adds each word's entries in pair order
    bins = (np.arange(depth)[:, None] * n + slots).ravel()
    sums = (np.bincount(bins, pairs.real.ravel(), depth * n)
            + 1j * np.bincount(bins, pairs.imag.ravel(), depth * n)).reshape(depth, n)
    # each word read at the first pair that lands on it
    first = np.unique(slots, return_index=True)[1]
    cap = math.inf if state.degree_cap is None else state.degree_cap
    over = np.add.outer([len(w) for w in left], [len(w) for w in right]).ravel()[first] > cap
    keep = np.flatnonzero(~over & sums.any(axis=0))
    weights = np.multiply.outer([weight(w, level, state.seq) for w in left],
                                [weight(w, level, state.seq) for w in right]).ravel()[first[keep]]
    return ([words[i] for i in keep.tolist()], sums.take(keep, axis=1),
            np.sum(np.abs(sums[:, over]) ** 2, axis=1), weights)


def _noise_rows(state: ProcessState, tags: Sequence[float],
                f: FockElement) -> tuple[list[Word], np.ndarray]:
    """Words on which some noise value W(u) f over the tags is nonzero,
    in the column order of M_f below, and one complex row per tag over
    them.

    W(u) f is linear in tm(u): the rows are T M_f, with T the multiplier
    values at the tags and M_f the n_max x words matrix of ``fock.apply_x``
    on f, built once from the words of f: letter i creates i + w below
    the degree cap, and the first letter of w annihilates to the rest.
    """
    _require_certified(state)
    n_max, cap = state.n_max, state.degree_cap
    index: dict[Word, int] = {}
    entries = [(i, index.setdefault(Word((i,) + w), len(index)), c)
               for w, c in f.coeffs.items() if cap is None or len(w) < cap
               for i in range(n_max)]
    entries += [(w[0], index.setdefault(Word(w[1:]), len(index)), c)
                for w, c in f.coeffs.items() if w and w[0] < n_max]
    m = np.zeros((n_max, len(index)), dtype=complex)
    for i, col, c in entries:
        m[i, col] += c
    t = np.array([spectral.tm_values(state.density, u, n_max) for u in tags], dtype=complex)
    z = np.einsum("ti,iw->tw", t, m)
    order = np.flatnonzero(z.any(axis=0))
    words = list(index)
    return [words[i] for i in order.tolist()], z.take(order, axis=1)


def _element(words: Sequence[Word], row: np.ndarray, dropped_mass: float = 0.0) -> FockElement:
    """The element with the nonzero coefficients of row on their words."""
    nonzero = row != 0
    return FockElement(dict(zip(compress(words, nonzero.tolist()), row[nonzero].tolist())),
                       dropped_mass=float(dropped_mass))


def stochastic_integral(state: ProcessState, path: IntegrandPath,
                        f: FockElement, a: float, b: float, levels: int,
                        q: int | None = None) -> IntegralResult:
    """Dyadic-refinement stochastic integral over [a, b].

    Successive Riemann sums at 1, 2, 4, ... 2^levels intervals are
    compared in the level -q norm; convergence is declared once three
    consecutive distances each drop to at most 0.6 of the previous one.
    Distances that grow beyond rounding noise, 1e-14 of the finest
    sum's norm, abort instead.
    """
    if not 3 <= levels <= _MAX_LEVELS:
        raise ValidationError(f"levels must be between 3 and {_MAX_LEVELS}, got {levels}")
    p = state.level
    if q is None:
        q = p + 2
    if q < p + 2:
        raise LevelTooLowError(
            f"pairing level {q} below the product-bound threshold {p + 2}")

    words, rows, dropped, weights = _riemann_sums(
        state, path, f, a, b, 1 << levels, levels + 1, -float(q))
    distances = tuple(np.sqrt(np.abs(np.diff(rows, axis=0)) ** 2 @ weights).tolist())
    scale = math.sqrt(np.abs(rows[-1]) ** 2 @ weights)
    floor = 1e-14 * scale
    ratios = tuple(
        0.0 if d1 <= floor else (math.inf if d0 <= floor else d1 / d0)
        for d0, d1 in zip(distances, distances[1:]))
    for d0, d1 in zip(distances, distances[1:]):
        if d1 > d0 * (1.0 + 1e-9) and d1 > floor:
            raise NonCauchyError(
                f"refinement distance grew from {d0:.3e} to {d1:.3e}")
    converged = (len(ratios) >= 3 and all(r <= 0.6 for r in ratios[-3:])) \
        or all(d <= floor for d in distances)
    return IntegralResult(value=_element(words, rows[-1], dropped[-1]),
                          extrapolated=_element(words, 2.0 * rows[-1] + (-1.0) * rows[-2]),
                          distances=distances, ratios=ratios,
                          converged=bool(converged), level_p=p, level_q=q)
