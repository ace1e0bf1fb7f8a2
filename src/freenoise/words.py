"""Words of the free monoid over generator indices.

A word is a finite product of generators z_i (i in N_0) stored as the
tuple of its letters: ``z0^2 z1`` is ``(0, 0, 1)``.  The empty word is
the monoid identity, spelled ``"1"`` in text form.  Run form, the
(letter, exponent) pairs of ``Word.runs``, serves weights, printing and
the Chebyshev factors of a U-word.  Words are immutable, hashable and
totally ordered (graded, then lexicographic on letters), so they can
key sorted sparse maps deterministically.

The same module holds the weight sequences a_1 <= a_2 <= ... that grade
the Fock norms.  The weight of a word at exponent p multiplies
a_{letter+1}**p over every letter occurrence, counted with multiplicity.
"""

from __future__ import annotations

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


def zeta(s: float, n_direct: int = 24) -> float:
    """Riemann zeta for s > 1 via Euler-Maclaurin accelerated partial sums.

    Direct terms up to ``n_direct`` plus the integral, midpoint and
    Bernoulli corrections; accurate to ~1e-15 for s >= 2.  Returns inf
    for s <= 1.
    """
    if s <= 1:
        return math.inf
    n = n_direct
    total = sum(k ** float(-s) for k in range(1, n))
    total += 0.5 * n ** float(-s) + n ** float(1 - s) / (s - 1)
    rising = s  # s (s+1) ... (s + 2j - 2)
    for j, b in enumerate(_BERNOULLI, start=1):
        total += b / math.factorial(2 * j) * rising * n ** float(1 - s - 2 * j)
        rising *= (s + 2 * j - 1) * (s + 2 * j)
    return total


@dataclass(frozen=True)
class WeightSequence:
    """Non-decreasing sequence a_1 <= a_2 <= ... with a_n >= 1.

    ``linear`` is a_n = 2n, ``exponential`` is a_n = 2**n, and
    ``custom`` carries a finite explicit table (sums below run over the
    table only, so they are always finite).
    """

    kind: str
    table: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind not in ("linear", "exponential", "custom"):
            raise ValueError(f"unknown weight sequence kind {self.kind!r}")
        if self.kind == "custom":
            if not self.table:
                raise ValueError("custom weight sequence needs a non-empty table")
            prev = 1.0
            for a in self.table:
                if a < 1.0:
                    raise ValueError("weights must be >= 1")
                if a < prev:
                    raise ValueError("weights must be non-decreasing")
                prev = a

    @classmethod
    def linear(cls) -> "WeightSequence":
        return cls("linear")

    @classmethod
    def exponential(cls) -> "WeightSequence":
        return cls("exponential")

    @classmethod
    def custom(cls, values: Sequence[float]) -> "WeightSequence":
        return cls("custom", tuple(float(v) for v in values))

    def value(self, n: int) -> float:
        """a_n for n >= 1."""
        if n < 1:
            raise ValueError("weight index starts at 1")
        if self.kind == "linear":
            return 2.0 * n
        if self.kind == "exponential":
            return float(2 ** n)
        if n > len(self.table):
            raise ValueError(f"custom table has no entry a_{n}")
        return self.table[n - 1]

    def inverse_power_sum(self, d: float) -> float:
        """Sum of a_n**(-d) over the whole sequence; may be inf."""
        if self.kind == "linear":
            if d <= 1:
                return math.inf
            return 2.0 ** (-d) * zeta(d)
        if self.kind == "exponential":
            if d <= 0:
                return math.inf
            return 1.0 / (2.0 ** d - 1.0)
        return sum(a ** (-d) for a in self.table)


class Word(tuple):
    """Word as the tuple of its letters: ``z0^2 z1`` is ``(0, 0, 1)``.

    Equality and hashing are the tuple's; the order is graded.  The
    constructor does not check its letters, ``normalize`` does.
    """

    __slots__ = ()

    @property
    def degree(self) -> int:
        return len(self)

    def is_empty(self) -> bool:
        return not self

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

    def __lt__(self, other: "Word"):
        return self.sort_key() < other.sort_key()

    def __le__(self, other: "Word"):
        return self.sort_key() <= other.sort_key()

    def __gt__(self, other: "Word"):
        return self.sort_key() > other.sort_key()

    def __ge__(self, other: "Word"):
        return self.sort_key() >= other.sort_key()

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

    Deterministic order: by degree of the first run, then letter, depth first.
    Count for (degree 5, 3 letters) is 364 including the empty word.
    """
    yield EMPTY_WORD

    def rec(prefix: tuple[int, ...], last: int, left: int):
        for letter in range(n_letters):
            if letter == last:
                continue
            for exp in range(1, left + 1):
                letters = prefix + (letter,) * exp
                yield Word(letters)
                yield from rec(letters, letter, left - exp)

    yield from rec((), -1, max_degree)
