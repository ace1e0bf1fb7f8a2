"""Words of the free monoid over generator indices.

A word is a finite product of generators z_i (i in N_0) stored as the
tuple of its letters: ``z0^2 z1`` is ``(0, 0, 1)``.  The empty word is
the monoid identity, spelled ``"1"`` in text form.  Run form, the
(letter, exponent) pairs of ``Word.runs``, serves printing and the
Chebyshev factors of a U-word: ``trace.wick_word_vector`` and the
monomials of ``matmodel``; ``weight`` reads the letters.  Words are
immutable and hashable; ``Word.sort_key`` is their graded order
(degree, then letters), by which sparse maps are sorted for output.

The same module holds the weight sequences a_1 <= a_2 <= ... that grade
the Fock norms.  The weight of a word at exponent p multiplies
a_{letter+1}**p over every letter occurrence, counted with multiplicity.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from typing import Iterator, Sequence

__all__ = [
    "Word",
    "WeightSequence",
    "normalize",
    "concat",
    "weight",
    "parse_word",
    "iter_words",
    "zeta",
]

# Bernoulli numbers B_2, B_4, ... used by the Euler-Maclaurin tail.
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730)


def zeta(s: float) -> float:
    """Riemann zeta for s > 1 via Euler-Maclaurin accelerated partial sums.

    Direct terms up to 24 plus the integral, midpoint and Bernoulli
    corrections; accurate to ~1e-15 for s >= 2.  Returns inf for s <= 1.
    """
    if s <= 1:
        return math.inf
    n = 24
    total = sum(k ** float(-s) for k in range(1, n))
    total += 0.5 * n ** float(-s) + n ** float(1 - s) / (s - 1)
    rising = s  # s (s+1) ... (s + 2j - 2)
    for j, b in enumerate(_BERNOULLI, start=1):
        power = n ** float(1 - s - 2 * j)
        if not power:  # every term from here on is 0, and rising may overflow
            break
        total += b / math.factorial(2 * j) * rising * power
        rising *= (s + 2 * j - 1) * (s + 2 * j)
    return total


@dataclass(frozen=True)
class WeightSequence:
    """Non-decreasing sequence a_1 <= a_2 <= ... with a_n >= 1.

    ``linear`` is a_n = 2n and ``exponential`` is a_n = 2**n.
    """

    kind: str

    def __post_init__(self):
        if self.kind not in ("linear", "exponential"):
            raise ValueError(f"unknown weight sequence kind {self.kind!r}")

    @classmethod
    def linear(cls) -> "WeightSequence":
        return cls("linear")

    @classmethod
    def exponential(cls) -> "WeightSequence":
        return cls("exponential")

    def value(self, n: int) -> float:
        """a_n for n >= 1."""
        if n < 1:
            raise ValueError("weight index starts at 1")
        if self.kind == "linear":
            return 2.0 * n
        return float(2 ** n)

    def inverse_power_sum(self, d: float) -> float:
        """Sum of a_n**(-d) over the whole sequence; may be inf."""
        if self.kind == "linear":
            if d <= 1:
                return math.inf
            return 2.0 ** (-d) * zeta(d)
        if d <= 0:
            return math.inf
        try:
            gap = 2.0 ** d - 1.0
        except OverflowError:  # where 1 / (2^d - 1) rounds as 2^-d
            return 2.0 ** -d
        # 2^d rounds to 1 below d ~ 1.6e-16, where the sum is past the float range
        return 1.0 / gap if gap else math.inf


class Word(tuple):
    """Word as the tuple of its letters: ``z0^2 z1`` is ``(0, 0, 1)``.

    Equality, hashing and comparison are the tuple's; ``sort_key`` is
    the graded order.  The constructor does not check its letters,
    ``normalize`` does.
    """

    __slots__ = ()

    @property
    def degree(self) -> int:
        return len(self)

    def letters(self) -> tuple[int, ...]:
        """Letter sequence with multiplicity, as a plain tuple."""
        return tuple(self)

    @property
    def runs(self) -> tuple[tuple[int, int], ...]:
        """Run form: (letter, exponent) pairs, adjacent letters distinct."""
        out: list[tuple[int, int]] = []
        for letter in self:
            if out and out[-1][0] == letter:
                out[-1] = (letter, out[-1][1] + 1)
            else:
                out.append((letter, 1))
        return tuple(out)

    def sort_key(self):
        return (len(self), tuple(self))

    def __str__(self) -> str:
        if not self:
            return "1"
        return " ".join(
            f"z{l}^{e}" if e > 1 else f"z{l}" for l, e in self.runs
        )


EMPTY_WORD = Word()


def normalize(letters: Sequence[int]) -> Word:
    """Word from a raw letter sequence, checking every letter."""
    w = Word(int(letter) for letter in letters)
    if any(letter < 0 for letter in w):
        raise ValueError("letters are non-negative indices")
    return w


def concat(a: Word, b: Word) -> Word:
    """Monoid product."""
    return Word(a + b)


def weight(w: Word, p: float, seq: WeightSequence) -> float:
    """Product of a_{letter+1}**p over letter occurrences of w.

    Letter i contributes the weight a_{i+1}, so letter 0 carries a_1.
    Each run of one letter contributes one power, a_{i+1}**(p * exp),
    read off the letters without building Word.runs.
    """
    out = 1.0
    prev, exp = -1, 0
    for letter in w:
        if letter == prev:
            exp += 1
            continue
        if exp:
            out *= seq.value(prev + 1) ** (p * exp)
        prev, exp = letter, 1
    if exp:
        out *= seq.value(prev + 1) ** (p * exp)
    return out


_TOKEN = re.compile(r"^z(\d+)(?:\^(\d+))?$")


def parse_word(text: str) -> Word:
    """Inverse of str(word); accepts un-normalized input like "z0 z0"."""
    text = text.strip()
    if text == "1" or text == "":
        return EMPTY_WORD
    letters: list[int] = []
    for token in text.split():
        m = _TOKEN.match(token)
        if not m:
            raise ValueError(f"cannot parse word token {token!r}")
        letter = int(m.group(1))
        exp = int(m.group(2)) if m.group(2) else 1
        if exp < 1:
            raise ValueError(f"exponent must be positive in {token!r}")
        letters.extend([letter] * exp)
    return normalize(letters)


def iter_words(max_degree: int, n_letters: int) -> Iterator[Word]:
    """All words of degree <= max_degree over letters 0..n_letters-1.

    Degree by degree, each degree in lexicographic order.  Count for
    (degree 5, 3 letters) is 364 including the empty word.
    """
    for degree in range(max_degree + 1):
        for letters in itertools.product(range(n_letters), repeat=degree):
            yield Word(letters)
