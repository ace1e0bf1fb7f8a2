"""Trace of the free semicircular family, by four independent routes.

Generators are the field operators X_i on the full Fock space; the trace
is the vacuum state.  A word alpha = z_{i_1}^{a_1} ... z_{i_k}^{a_k}
with adjacent letters distinct labels the basis element

    U_alpha = p_{a_1}(X_{i_1}) ... p_{a_k}(X_{i_k}),

where p_n(x) = U_n(x/2) is the radius-2 orthonormal Chebyshev family.
These are orthonormal for the trace pairing; the recursive engine proves
it case by case, the Fock engine checks it by applying operators to the
vacuum, and the pairing engine counts non-crossing matchings.  At radius
2 every product U_m U_n is a sum of U_d with unit coefficients, so the
recursive engines count in integers.

Engines:

* ``trace_reduction(beta, alpha)`` evaluates tau(U_beta^* U_alpha),
  0 or 1, by induction on the degree of beta.
* ``trace_pairings(letters)`` evaluates tau(X_{i_1} ... X_{i_k}) as the
  number of letter-matched non-crossing pair partitions, times
  (radius/2)^2 per pair.
* ``trace_fock(letters)`` applies X_{i_1} ... X_{i_k} to the vacuum and
  reads off the vacuum coefficient, in floating point.
* ``trace_monomial_reduction(letters)`` expands the monomial in the
  U-word basis through the product linearization and reads the constant
  coefficient, as a Fraction.
* ``trace_genus(letters)`` counts the letter-matched pair partitions of
  every genus, which gives the exact trace of GUE matrices at each
  finite size; its genus-0 count is the free trace.  It is not part of
  ``trace_monomial_all``, whose engines answer the free trace alone.

The Fock and U-word routes reuse affixes: each keeps the vector of
every suffix applied to the vacuum, or the expansion of every prefix,
that its walks pass, and starts a word from its longest kept affix.
Each keeps at most 1,024 proper affixes of at most 16 letters, the
least recently used evicted first.  Each engine reuses only its own
work, so the engines still check each other.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from . import fock
from .chebyshev import linearize, orthonormal_poly
from .errors import CapExceededError
from .fock import DEFAULT_DEGREE_CAP, FockElement, apply_x, vacuum
from .words import EMPTY_WORD, Word, normalize

__all__ = [
    "TraceResult",
    "trace_reduction",
    "trace_pairings",
    "trace_genus",
    "u_mult",
    "monomial_to_uwords",
    "trace_monomial_reduction",
    "apply_monomial",
    "trace_fock",
    "wick_word_vector",
    "trace_monomial_all",
]

@dataclass(frozen=True)
class TraceResult:
    engine: str
    value: Fraction | float


# Stores nothing: callers that relabel letters rarely repeat a pair, and
# an unbounded cache only grew.  cache_info() still counts the calls for
# perfbench's trace.reduction metrics.
@lru_cache(maxsize=0)
def trace_reduction(beta: Word, alpha: Word) -> int:
    """tau(U_beta^* U_alpha) = delta_{beta,alpha}, by induction on |beta|.

    Base case: an alternating product of trace-zero factors has trace
    zero by freeness, so tau(U_alpha) = delta_{alpha,1}.  When the lead
    letters differ the product is alternating and centered, giving zero.
    When they agree the adjacent Chebyshev factors linearize into a sum
    over degrees |a-b|+2k; the degree-zero term continues the recursion
    and, for distinct exponents, never appears.

    This entry answers the empty words and differing lead letters; the
    induction itself runs in ``_reduce`` on plain letter tuples.
    """
    if not beta:
        return 1 if not alpha else 0
    if not alpha:
        # tau(U_beta^*) is the conjugate of tau(U_beta), zero by the base case
        return 0
    if beta[0] != alpha[0]:
        return 0
    return _reduce(beta, alpha)


def _reduce(beta: tuple[int, ...], alpha: tuple[int, ...]) -> int:
    """trace_reduction's induction step for nonempty words with one lead letter.

    A term where either word is empty is answered by the base case, and
    a term whose lead letter differs from that of beta's rest is zero, so
    the recursion only ever sees two nonempty words with one lead letter.
    """
    i = alpha[0]
    b, a = _lead_run(beta), _lead_run(alpha)
    beta_rest, alpha_rest = beta[b:], alpha[a:]
    total = 0
    for deg in linearize(b, a):
        nxt = (i,) * deg + alpha_rest
        if beta_rest and nxt:
            if nxt[0] == beta_rest[0]:
                total += _reduce(beta_rest, nxt)
        elif not beta_rest and not nxt:
            total += 1
    return total


def _lead_run(letters: Sequence[int]) -> int:
    """Exponent of the run that starts a nonempty letter sequence."""
    n = 1
    while n < len(letters) and letters[n] == letters[0]:
        n += 1
    return n


# 4,096 entries hold the 2,047 sub-words of every monomial of length
# <= 10 over two letters twice over; callers that keep relabelling
# letters evict old entries instead of growing the cache.
@lru_cache(maxsize=4096)
def _noncrossing_matched(letters: tuple[int, ...]) -> int:
    """Number of non-crossing pair partitions matching equal letters."""
    if not letters:
        return 1
    if len(letters) % 2 == 1:
        return 0
    first = letters[0]
    count = 0
    for j in range(1, len(letters), 2):
        if letters[j] == first:
            count += _noncrossing_matched(letters[1:j]) * _noncrossing_matched(letters[j + 1:])
    return count


def trace_pairings(letters: Sequence[int], radius: Fraction | int = 2) -> Fraction:
    """tau(X_{i_1} ... X_{i_k}) by the free Wick rule.

    Each pairing contributes (radius/2)^2 per pair; at the default
    radius 2 the value is the plain matched non-crossing count.
    """
    letters = tuple(int(x) for x in letters)
    count = _noncrossing_matched(letters)
    if count == 0:
        return Fraction(0)
    pair_weight = (Fraction(radius) / 2) ** len(letters)
    return count * pair_weight


def trace_genus(letters: Sequence[int]) -> tuple[int, ...]:
    """Genus counts c_g of the letter-matched pair partitions of a word.

    For independent GUE matrices of size N at radius 2,
    E tr_N(X_{i_1} ... X_{i_n}) = sum_g c_g N^{-2g}, and each pair adds
    a factor (radius/2)^2 at other radii (Mingo and Speicher, "Free
    Probability and Random Matrices", 2017, ch. 1).  A pairing pi of the
    n = 2k positions has genus g when gamma pi, with gamma the cyclic
    shift i -> i + 1, has k + 1 - 2g cycles.  Every pairing is
    enumerated, so genus 0 checks trace_pairings by another algorithm;
    for one letter the counts are the Harer-Zagier numbers.  The result
    has floor(k/2) + 1 entries, k = floor(n/2), all zero when no pairing
    matches the letters.
    """
    letters = tuple(int(x) for x in letters)
    if not letters:
        return (1,)
    n = len(letters)
    k = n // 2
    counts = [0] * (k // 2 + 1)
    if n % 2:
        return tuple(counts)
    partner = [-1] * n

    def cycles() -> int:
        seen = [False] * n
        total = 0
        for start in range(n):
            if not seen[start]:
                total += 1
                i = start
                while not seen[i]:
                    seen[i] = True
                    i = (partner[i] + 1) % n
        return total

    def pair(first: int) -> None:
        while first < n and partner[first] >= 0:
            first += 1
        if first == n:
            counts[(k + 1 - cycles()) // 2] += 1
            return
        for j in range(first + 1, n):
            if partner[j] < 0 and letters[j] == letters[first]:
                partner[first], partner[j] = j, first
                pair(first + 1)
                partner[first] = partner[j] = -1

    pair(0)
    return tuple(counts)


# 4,096 entries hold the 2,557 products that expanding every monomial of
# length <= 10 over two letters needs; relabelled letters evict old
# entries instead of growing the cache.
@lru_cache(maxsize=4096)
def u_mult(a: Word, b: Word) -> tuple[tuple[Word, int], ...]:
    """Product U_a U_b expanded over U-words, with integer coefficients.

    Concatenation except at the boundary: equal boundary letters
    linearize, and a degree-zero middle term can make the neighbours
    touch, which resolves recursively.
    """
    if a.is_empty():
        return ((b, 1),)
    if b.is_empty():
        return ((a, 1),)
    letter = a[-1]
    if b[0] != letter:
        return ((Word(a + b), 1),)
    ea, eb = _lead_run(a[::-1]), _lead_run(b)
    a_head, b_tail = Word(a[:-ea]), Word(b[eb:])
    out: dict[Word, int] = {}
    for deg in linearize(ea, eb):
        if deg == 0:
            for w, c in u_mult(a_head, b_tail):
                out[w] = out.get(w, 0) + c
        else:
            w = Word(a_head + (letter,) * deg + b_tail)
            out[w] = out.get(w, 0) + 1
    return tuple(sorted(out.items(), key=lambda kv: kv[0].sort_key()))


# Affix caches of the U-word and Fock routes (module docstring): the
# 2,046 binary monomials of length <= 10 pass 1,022 proper affixes per
# pair of letters.  The walks' starting points are not entries, so no
# eviction removes them.  Longer affixes are not stored: a vector's
# support can grow exponentially with its length (X_a X_a X_b X_b ...
# has 2^{k/2} terms), so an entry bound bounds memory only if each
# entry is bounded.
_AFFIX_ENTRIES = 1024
_AFFIX_LETTERS = 16
_prefix_expansions: OrderedDict[tuple[int, ...], dict[Word, int]] = OrderedDict()
_suffix_vectors: OrderedDict[tuple[int, ...], FockElement] = OrderedDict()


def _longest_cached(cache: OrderedDict, keys):
    """First of ``keys`` held by ``cache`` and its value, else ((), None)."""
    for key in keys:
        value = cache.get(key)
        if value is not None:
            cache.move_to_end(key)
            return key, value
    return (), None


def _store(cache: OrderedDict, key: tuple[int, ...], value) -> None:
    cache[key] = value
    if len(cache) > _AFFIX_ENTRIES:
        cache.popitem(last=False)


def _uword_expansion(letters: tuple[int, ...]) -> dict[Word, int]:
    """U-word expansion of the monomial; may be a cache entry, do not mutate."""
    k = len(letters)
    prefix, acc = _longest_cached(
        _prefix_expansions, (letters[:j] for j in range(min(k, _AFFIX_LETTERS), 0, -1)))
    if acc is None:
        acc = {EMPTY_WORD: 1}
    for j in range(len(prefix), k):
        step = Word((letters[j],))
        nxt: dict[Word, int] = {}
        for w, c in acc.items():
            for prod, pc in u_mult(w, step):
                nxt[prod] = nxt.get(prod, 0) + c * pc
        acc = nxt
        if j + 1 < k and j < _AFFIX_LETTERS:
            _store(_prefix_expansions, letters[:j + 1], acc)
    return acc


def monomial_to_uwords(letters: Sequence[int]) -> dict[Word, int]:
    """Expansion of X_{i_1} ... X_{i_k} in the U-word basis.

    Every coefficient is a positive count, so no term ever cancels.
    The caller gets a copy of what the prefix cache may hold.
    """
    return dict(_uword_expansion(tuple(int(x) for x in letters)))


def trace_monomial_reduction(letters: Sequence[int]) -> Fraction:
    """Constant coefficient of the U-word expansion of the monomial."""
    return Fraction(_uword_expansion(tuple(int(x) for x in letters)).get(EMPTY_WORD, 0))


def apply_monomial(letters: Sequence[int], vec: FockElement,
                   cap: int | None = DEFAULT_DEGREE_CAP) -> FockElement:
    """X_{i_1} ... X_{i_k} applied to vec, rightmost factor first."""
    out = vec
    for letter in reversed(tuple(letters)):
        out = apply_x({int(letter): 1.0}, out, cap)
    return out


def trace_fock(letters: Sequence[int], cap: int | None = DEFAULT_DEGREE_CAP) -> float:
    """Vacuum coefficient of X_{i_1} ... X_{i_k} applied to the vacuum.

    Intermediate degrees stay below the monomial degree, so the result
    is exact up to rounding once the cap admits it; a too-small cap
    raises instead of silently truncating.  Nothing is truncated, so a
    suffix's vector does not depend on the cap and is cached without it.
    """
    fock.require_cap(len(letters), cap)
    letters = tuple(int(x) for x in letters)
    k = len(letters)
    suffix, vec = _longest_cached(
        _suffix_vectors, (letters[j:] for j in range(max(0, k - _AFFIX_LETTERS), k)))
    if vec is None:
        vec = vacuum()
    for j in range(k - len(suffix) - 1, -1, -1):
        vec = apply_x({letters[j]: 1.0}, vec, cap)
        if j and k - j <= _AFFIX_LETTERS:
            _store(_suffix_vectors, letters[j:], vec)
    return float(vec.coeff(EMPTY_WORD).real)


def _poly_powers(letter: int, top_power: int, vec: FockElement,
                 cap: int | None) -> list[FockElement]:
    powers = [vec]
    for _ in range(top_power):
        powers.append(apply_x({letter: 1.0}, powers[-1], cap))
    return powers


def wick_word_vector(alpha: Word, cap: int | None = DEFAULT_DEGREE_CAP) -> FockElement:
    """U_alpha applied to the vacuum; equals the basis vector e_alpha.

    Runs are applied right to left, each as the radius-2 Chebyshev
    polynomial of the matching field operator.
    """
    if cap is not None and alpha.degree > cap:
        raise CapExceededError(f"word degree {alpha.degree} exceeds cap {cap}")
    vec = vacuum()
    for letter, exp in reversed(alpha.runs):
        powers = _poly_powers(letter, exp, vec, cap)
        combo = FockElement()
        for j, c in enumerate(orthonormal_poly(exp, 2)):
            if c != 0:
                combo = combo + complex(c) * powers[j]
        vec = combo
    return vec


def trace_monomial_all(word_or_letters, cap: int | None = DEFAULT_DEGREE_CAP) -> list[TraceResult]:
    """All three engines on one monomial; exact engines return Fractions."""
    letters = normalize(word_or_letters).letters()
    return [
        TraceResult("reduction", trace_monomial_reduction(letters)),
        TraceResult("pairing", trace_pairings(letters)),
        TraceResult("fock", trace_fock(letters, cap)),
    ]
