"""Trace of the free semicircular family, by three independent routes.

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
"""

from __future__ import annotations

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
    """
    if beta.is_empty():
        return 1 if alpha.is_empty() else 0
    if alpha.is_empty():
        # tau(U_beta^*) is the conjugate of tau(U_beta), zero by the base case
        return 0
    i = alpha[0]
    if beta[0] != i:
        return 0
    b, a = _lead_run(beta), _lead_run(alpha)
    beta_rest = Word(beta[b:])
    return sum(trace_reduction(beta_rest, Word((i,) * deg + alpha[a:]))
               for deg in linearize(b, a))


def _lead_run(letters: Sequence[int]) -> int:
    """Exponent of the run that starts a nonempty letter sequence."""
    n = 1
    while n < len(letters) and letters[n] == letters[0]:
        n += 1
    return n


@lru_cache(maxsize=None)
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


@lru_cache(maxsize=None)
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


def monomial_to_uwords(letters: Sequence[int]) -> dict[Word, int]:
    """Expansion of X_{i_1} ... X_{i_k} in the U-word basis.

    Every coefficient is a positive count, so no term ever cancels.
    """
    acc: dict[Word, int] = {EMPTY_WORD: 1}
    for letter in letters:
        step = Word((int(letter),))
        nxt: dict[Word, int] = {}
        for w, c in acc.items():
            for prod, pc in u_mult(w, step):
                nxt[prod] = nxt.get(prod, 0) + c * pc
        acc = nxt
    return acc


def trace_monomial_reduction(letters: Sequence[int]) -> Fraction:
    """Constant coefficient of the U-word expansion of the monomial."""
    return Fraction(monomial_to_uwords(letters).get(EMPTY_WORD, 0))


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
    raises instead of silently truncating.
    """
    fock.require_cap(len(letters), cap)
    return float(apply_monomial(letters, vacuum(), cap).coeff(EMPTY_WORD).real)


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
