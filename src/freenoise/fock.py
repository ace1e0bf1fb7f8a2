"""Weighted full Fock space over a countable generator family.

Elements are finitely supported maps from words to complex coefficients;
the word ``z_{i_1} ... z_{i_k}`` indexes the tensor e_{i_1} x ... x e_{i_k}
and the empty word indexes the vacuum.  An element holds its coefficients
in a dict that keeps insertion order, and operations iterate that dict;
only the ``terms`` view, used where output is rendered, sorts the
support by the word order.  The level-p norm squares the coefficients
against ``words.weight(w, p, seq)``, so level 0 is the plain l^2 norm
and negative levels give the distribution-side norms.

``apply_x`` applies the field operator of a one-particle vector, the
sum of creation (prepend the vector letterwise) and annihilation (strip
the first letter), whose vacuum distribution is the radius-2 semicircle
law, in one pass over the element.

For a weight gap d with s = sum a_n^{-d} < 1 the tensor product obeys

    norm(f (x) g, -q) <= B_d * norm(f, -p) * norm(g, -q),  q - p = d,

in both orders, with B_d^2 = 1/(1 - s); ``vage_constant`` returns it and
``product_bound_check`` tests the inequality on given pairs.

Every operator application takes an explicit degree cap (default 12);
coefficient mass discarded by the cap is reported on the result's
``dropped_mass`` attribute, which does not take part in equality.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

from .errors import CapExceededError, GapTooSmallError
from .words import EMPTY_WORD, WeightSequence, Word, concat, weight

__all__ = [
    "FockElement",
    "DEFAULT_DEGREE_CAP",
    "vacuum",
    "basis_vector",
    "norm",
    "inner",
    "tensor",
    "tensor_slots",
    "apply_x",
    "VageConstant",
    "vage_constant",
    "product_bound_check",
    "to_json_terms",
]

DEFAULT_DEGREE_CAP = 12


@dataclass(frozen=True)
class FockElement:
    """Immutable sparse vector over words.

    ``coeffs`` maps each word of the support to its coefficient in
    insertion order and holds no exact zeros; operations iterate it in
    that order.  ``terms`` is the word-ordered view used for output.
    """

    coeffs: dict[Word, complex] = field(default_factory=dict)
    dropped_mass: float = field(default=0.0, compare=False)

    @classmethod
    def from_dict(cls, d: Mapping[Word, complex], dropped_mass: float = 0.0) -> "FockElement":
        return cls({w: complex(c) for w, c in d.items() if c != 0}, dropped_mass)

    @property
    def terms(self) -> tuple[tuple[Word, complex], ...]:
        """(word, coefficient) pairs sorted by the word order."""
        return tuple(sorted(self.coeffs.items(), key=lambda kv: kv[0].sort_key()))

    def as_dict(self) -> dict[Word, complex]:
        return dict(self.coeffs)

    def coeff(self, w: Word) -> complex:
        return self.coeffs.get(w, 0j)

    def __add__(self, other: "FockElement") -> "FockElement":
        d = dict(self.coeffs)
        for w, c in other.coeffs.items():
            d[w] = d.get(w, 0j) + c
        return FockElement.from_dict(d)

    def __sub__(self, other: "FockElement") -> "FockElement":
        return self + (-1.0) * other

    def __mul__(self, scalar: complex) -> "FockElement":
        return FockElement.from_dict({w: scalar * c for w, c in self.coeffs.items()})

    __rmul__ = __mul__


def vacuum() -> FockElement:
    return FockElement({EMPTY_WORD: 1.0 + 0j})


def basis_vector(w: Word) -> FockElement:
    return FockElement({w: 1.0 + 0j})


def norm(f: FockElement, level: float = 0.0, seq: WeightSequence = WeightSequence.linear()) -> float:
    """Level-p norm: sqrt(sum |f_w|^2 weight(w, p)).

    The distribution-side product inequality reads
    norm(f (x) g, -q) <= B * norm(f, -p) * norm(g, -q).
    """
    acc = 0.0
    for w, c in f.coeffs.items():
        acc += abs(c) ** 2 * weight(w, level, seq)
    return math.sqrt(acc)


def inner(f: FockElement, g: FockElement) -> complex:
    """Sesquilinear l^2 pairing, conjugate-linear in the first slot."""
    gd = g.coeffs
    acc = 0j
    for w, c in f.coeffs.items():
        other = gd.get(w)
        if other is not None:
            acc += c.conjugate() * other
    return acc


def tensor(f: FockElement, g: FockElement, cap: int | None = DEFAULT_DEGREE_CAP) -> FockElement:
    """Concatenation product; distinct support pairs can land on one word."""
    out: dict[Word, complex] = {}
    lost = 0.0
    right = [(wg, len(wg), cg) for wg, cg in g.coeffs.items()]
    for wf, cf in f.coeffs.items():
        df = len(wf)
        for wg, dg, cg in right:
            if cap is not None and df + dg > cap:
                lost += abs(cf * cg) ** 2
                continue
            w = concat(wf, wg)
            out[w] = out.get(w, 0j) + cf * cg
    return FockElement.from_dict(out, dropped_mass=lost)


def tensor_slots(left: Sequence[Word], right: Sequence[Word]) -> tuple[list[Word], list[int]]:
    """Words of every product left[i] (x) right[j], each built once.

    Returns the distinct words in the order first built, row-major over
    (i, j), and the slot of each pair in that order: pair (i, j) lands
    on ``words[slots[i * len(right) + j]]``.  Distinct pairs can share
    a slot, as z0 (x) z1 and z0 z1 (x) 1 do.
    """
    index: dict[Word, int] = {}
    slots = [index.setdefault(concat(wf, wg), len(index))
             for wf in left for wg in right]
    return list(index), slots


def _letter_items(coeffs) -> list[tuple[int, complex]]:
    if isinstance(coeffs, Mapping):
        return [(int(i), complex(c)) for i, c in coeffs.items() if c != 0]
    if hasattr(coeffs, "astype"):
        # a NumPy vector, converted once rather than element by element
        return [(i, c) for i, c in enumerate(coeffs.astype(complex).tolist()) if c != 0]
    return [(i, complex(c)) for i, c in enumerate(coeffs) if c != 0]


def apply_x(coeffs, u: FockElement, cap: int | None = DEFAULT_DEGREE_CAP) -> FockElement:
    """Field operator: creation plus annihilation by sum_i coeffs[i] e_i.

    Creation prepends a letter and annihilation strips the first
    letter, conjugating the coefficient.  Both parts are built in one
    pass over u, then merged as adding the two elements merges them:
    the nonzero created terms in order, then each nonzero annihilated
    term added in.  The dropped mass is that of the created terms above
    the cap.
    """
    items = _letter_items(coeffs)
    firsts = dict(items)
    item_mass = None
    created: dict[Word, complex] = {}
    killed: dict[Word, complex] = {}
    lost = 0.0
    for w, c in u.coeffs.items():
        if cap is not None and len(w) >= cap:
            if item_mass is None:
                item_mass = sum(abs(ci) ** 2 for _, ci in items)
            lost += abs(c) ** 2 * item_mass
        else:
            for i, ci in items:
                nw = Word((i,) + w)
                created[nw] = created.get(nw, 0j) + ci * c
        if w:
            ci = firsts.get(w[0])
            if ci is not None:
                rest = Word(w[1:])
                killed[rest] = killed.get(rest, 0j) + ci.conjugate() * c
    out = {w: c for w, c in created.items() if c != 0}
    for w, c in killed.items():
        if c != 0:
            total = out.get(w, 0j) + c
            if total != 0:
                out[w] = total
            else:
                # only a created term can cancel, and no later term lands on w
                del out[w]
    return FockElement(out, dropped_mass=lost)


class VageConstant(NamedTuple):
    b: float
    b_squared: float


def vage_constant(d: float, seq: WeightSequence = WeightSequence.linear()) -> VageConstant:
    """Product-bound constant at gap d: B^2 = 1 / (1 - sum a_n^{-d}).

    Raises GapTooSmallError when the inverse-power sum is not below one.
    """
    s = seq.inverse_power_sum(d)
    if not s < 1.0:
        raise GapTooSmallError(
            f"inverse power sum at gap {d} is {s:g}, need strictly below 1"
        )
    b2 = 1.0 / (1.0 - s)
    return VageConstant(math.sqrt(b2), b2)


def product_bound_check(pairs: Iterable[tuple[FockElement, FockElement]], p: float,
                        d: float, seq: WeightSequence) -> tuple[float, int]:
    """Worst ratio and violation count of the product bound over pairs.

    With q = p + d, each pair (f, g) is checked in both orders:
    norm(f (x) g, -q) against B_d norm(f, -p) norm(g, -q) and against
    B_d norm(f, -q) norm(g, -p).  A ratio above 1 + 1e-12 is a
    violation; a zero bound is skipped.
    """
    b = vage_constant(d, seq).b
    q = p + d
    worst = 0.0
    violations = 0
    for f, g in pairs:
        prod = norm(tensor(f, g, cap=None), -q, seq)
        for bound in (b * norm(f, -p, seq) * norm(g, -q, seq),
                      b * norm(f, -q, seq) * norm(g, -p, seq)):
            if bound == 0.0:
                continue
            ratio = prod / bound
            worst = max(worst, ratio)
            if ratio > 1.0 + 1e-12:
                violations += 1
    return worst, violations


def require_cap(expression_degree: int, cap: int | None) -> None:
    """Guard used by trace evaluations that must not truncate silently."""
    if cap is not None and expression_degree > cap:
        raise CapExceededError(
            f"expression degree {expression_degree} exceeds cap {cap}"
        )


def to_json_terms(f: FockElement) -> list[dict]:
    """JSON-friendly term list: word text plus real and imaginary parts."""
    return [
        {"word": str(w), "re": c.real, "im": c.imag}
        for w, c in f.terms
    ]
