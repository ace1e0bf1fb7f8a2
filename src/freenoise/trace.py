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
  ``trace_monomial_all``, whose engines answer the free trace alone;
  ``trace_finite_n(letters, dim)`` sums its counts at one size.

The Fock and U-word routes reuse affixes: a word starts from the
vector of its longest proper suffix of at most 16 letters applied to
the vacuum, or from the expansion of its longest such prefix, and each
affix is built from the next shorter one.  Each route caches at most
1,024 affixes, the least recently used evicted first.  Each engine
reuses only its own work, so the engines still check each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from . import fock
from .chebyshev import linearize, orthonormal_poly
from .fock import DEFAULT_DEGREE_CAP, FockElement, apply_x, vacuum
from .words import EMPTY_WORD, Word, normalize

__all__ = [
    "TraceResult",
    "trace_reduction",
    "trace_pairings",
    "trace_genus",
    "trace_finite_n",
    "u_mult",
    "monomial_to_uwords",
    "trace_monomial_reduction",
    "trace_fock",
    "wick_word_vector",
    "ENGINES",
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


def _first_letter_splits(letters: tuple[int, ...]):
    """Generator that sums, over each partner j of the first letter, the
    product of the counts of letters[1:j] and letters[j + 1:]: it yields
    each sub-word, is sent its count, and returns the sum."""
    first = letters[0]
    count = 0
    for j in range(1, len(letters), 2):
        if letters[j] == first:
            count += (yield letters[1:j]) * (yield letters[j + 1:])
    return count


# Sub-words of at most this many letters are counted by cached calls,
# which nest at most 16 deep; longer ones go on the explicit stack.
_CACHED_SUBWORD_LEN = 32


# 4,096 entries hold the 2,047 sub-words of every monomial of length
# <= 10 over two letters twice over; callers that keep relabelling
# letters evict old entries instead of growing the cache.
@lru_cache(maxsize=4096)
def _noncrossing_matched(letters: tuple[int, ...]) -> int:
    """Number of non-crossing pair partitions matching equal letters.

    The recursion over the first letter's partner runs on an explicit
    stack, so a long word needs no deep Python stack, whatever the
    cache holds.
    """
    if len(letters) % 2 == 1:
        return 0
    if not letters:
        return 1
    long_counts: dict[tuple[int, ...], int] = {}
    stack = [(letters, _first_letter_splits(letters))]
    count = None
    while stack:
        word, splits = stack[-1]
        try:
            sub = splits.send(count)
        except StopIteration as done:
            stack.pop()
            count = long_counts[word] = done.value
            continue
        # every sub-word has even length
        if len(sub) <= _CACHED_SUBWORD_LEN:
            count = _noncrossing_matched(sub)
        else:
            count = long_counts.get(sub)
            if count is None:
                stack.append((sub, _first_letter_splits(sub)))
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


def trace_finite_n(letters: Sequence[int], dim: int, radius: Fraction | float = 2) -> Fraction:
    """E tr_N(X_{i_1} ... X_{i_n}) of GUE matrices of size N = dim, exactly:
    sum_g c_g N^(-2g) over the counts of trace_genus, times (radius/2)^n."""
    return (Fraction(radius) / 2) ** len(letters) \
        * sum(Fraction(c, dim ** (2 * g)) for g, c in enumerate(trace_genus(letters)))


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
    if not a:
        return ((b, 1),)
    if not b:
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
# pair of letters.  Longer affixes are not stored: a vector's support
# can grow exponentially with its length (X_a X_a X_b X_b ... has
# 2^{k/2} terms), so an entry bound bounds memory only if each entry is
# bounded.
_AFFIX_ENTRIES = 1024
_AFFIX_LETTERS = 16


def _times_letter(expansion: dict[Word, int], letter: int) -> dict[Word, int]:
    """U-word expansion of the monomial times X_letter."""
    step = Word((letter,))
    out: dict[Word, int] = {}
    for w, c in expansion.items():
        for prod, pc in u_mult(w, step):
            out[prod] = out.get(prod, 0) + c * pc
    return out


@lru_cache(maxsize=_AFFIX_ENTRIES)
def _prefix_expansions(prefix: tuple[int, ...]) -> dict[Word, int]:
    """U-word expansion of a prefix of at most 16 letters; a cache entry,
    do not mutate."""
    if not prefix:
        return {EMPTY_WORD: 1}
    return _times_letter(_prefix_expansions(prefix[:-1]), prefix[-1])


def _uword_expansion(letters: tuple[int, ...]) -> dict[Word, int]:
    """U-word expansion of the monomial; may be a cache entry, do not mutate."""
    prefix = letters[:-1][:_AFFIX_LETTERS]
    acc = _prefix_expansions(prefix)
    for letter in letters[len(prefix):]:
        acc = _times_letter(acc, letter)
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


@lru_cache(maxsize=_AFFIX_ENTRIES)
def _suffix_vectors(suffix: tuple[int, ...]) -> FockElement:
    """X_{i_1} ... X_{i_k} applied to the vacuum, for a suffix of at most
    16 letters; a cache entry."""
    if not suffix:
        return vacuum()
    return apply_x({suffix[0]: 1.0}, _suffix_vectors(suffix[1:]), None)


def trace_fock(letters: Sequence[int], cap: int | None = DEFAULT_DEGREE_CAP) -> float:
    """Vacuum coefficient of X_{i_1} ... X_{i_k} applied to the vacuum.

    Intermediate degrees stay below the monomial degree, so the result
    is exact up to rounding once the cap admits it; a too-small cap
    raises instead of silently truncating.  Nothing is truncated, so a
    suffix's vector does not depend on the cap and is cached without it.
    """
    fock.require_cap(len(letters), cap)
    letters = tuple(int(x) for x in letters)
    suffix = letters[1:][-_AFFIX_LETTERS:]
    vec = _suffix_vectors(suffix)
    for letter in reversed(letters[:len(letters) - len(suffix)]):
        vec = apply_x({letter: 1.0}, vec, cap)
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
    fock.require_cap(len(alpha), cap)
    vec = vacuum()
    for letter, exp in reversed(alpha.runs):
        powers = _poly_powers(letter, exp, vec, cap)
        combo = FockElement()
        for j, c in enumerate(orthonormal_poly(exp)):
            if c != 0:
                combo = combo + complex(c) * powers[j]
        vec = combo
    return vec


# engine name -> its trace of a letter sequence under a Fock degree cap;
# each entry looks its engine up by name when called, so a wrapper put
# in place of the module attribute sees every call
ENGINES = {
    "reduction": lambda letters, cap: trace_monomial_reduction(letters),
    "pairing": lambda letters, cap: trace_pairings(letters),
    "fock": lambda letters, cap: trace_fock(letters, cap),
}


def trace_monomial_all(word_or_letters, cap: int | None = DEFAULT_DEGREE_CAP) -> list[TraceResult]:
    """All three engines on one monomial; exact engines return Fractions."""
    letters = normalize(word_or_letters).letters()
    return [TraceResult(name, engine(letters, cap)) for name, engine in ENGINES.items()]
