"""Creation and annihilation as separate operators: the oracle that
``fock.apply_x``, their sum in one pass, is checked against term for
term."""

from freenoise.fock import DEFAULT_DEGREE_CAP, FockElement, _letter_items
from freenoise.words import Word


def creation(coeffs, u: FockElement, cap: int | None = DEFAULT_DEGREE_CAP) -> FockElement:
    """Creation by the one-particle vector sum_i coeffs[i] e_i."""
    items = _letter_items(coeffs)
    out: dict[Word, complex] = {}
    lost = 0.0
    for w, c in u.coeffs.items():
        if cap is not None and w.degree + 1 > cap:
            lost += abs(c) ** 2 * sum(abs(ci) ** 2 for _, ci in items)
            continue
        for i, ci in items:
            nw = Word((i,) + w)
            out[nw] = out.get(nw, 0j) + ci * c
    return FockElement.from_dict(out, dropped_mass=lost)


def annihilation(coeffs, u: FockElement) -> FockElement:
    """Adjoint of creation: strips the first letter, kills the vacuum."""
    items = dict(_letter_items(coeffs))
    out: dict[Word, complex] = {}
    for w, c in u.coeffs.items():
        if not w:
            continue
        ci = items.get(w[0])
        if ci is None:
            continue
        rest = Word(w[1:])
        out[rest] = out.get(rest, 0j) + ci.conjugate() * c
    return FockElement.from_dict(out)
