import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fock_oracle import annihilation, creation
from freenoise.errors import CapExceededError, GapTooSmallError
from freenoise.fock import (
    FockElement,
    apply_x,
    basis_vector,
    inner,
    norm,
    product_bound_check,
    require_cap,
    tensor,
    to_json_terms,
    vacuum,
    vage_constant,
)
from freenoise.words import EMPTY_WORD, WeightSequence, Word, concat, normalize, parse_word

words = st.lists(st.integers(0, 3), max_size=4).map(normalize)
coeffs = st.complex_numbers(max_magnitude=2.0, allow_nan=False,
                            allow_infinity=False)


@st.composite
def elements(draw, max_terms=4):
    d = draw(st.dictionaries(words, coeffs, max_size=max_terms))
    return FockElement.from_dict(d)


def test_vacuum_and_basis_orthonormal():
    ws = [normalize(seq) for seq in ([], [0], [1], [0, 1], [0, 0], [1, 0, 1])]
    for i, w in enumerate(ws):
        for j, v in enumerate(ws):
            expected = 1.0 if i == j else 0.0
            assert inner(basis_vector(w), basis_vector(v)) == pytest.approx(
                expected)
    assert norm(vacuum()) == 1.0


@given(words, words)
def test_tensor_of_basis_vectors_concatenates(w, v):
    prod = tensor(basis_vector(w), basis_vector(v), cap=None)
    assert prod.as_dict() == {concat(w, v): 1.0 + 0j}


def test_tensor_records_dropped_mass():
    f = basis_vector(normalize([0, 1, 0]))
    g = basis_vector(normalize([1, 0])) * 2.0 + vacuum()
    prod = tensor(f, g, cap=3)
    # only the vacuum partner survives the degree cap
    assert prod.as_dict() == {normalize([0, 1, 0]): 1.0 + 0j}
    assert prod.dropped_mass == pytest.approx(4.0)


@given(elements(), elements())
def test_creation_annihilation_adjoint(u, v):
    c = [0.5, -0.25 + 0.5j, 0.0, 1.0]
    lhs = inner(creation(c, u, cap=None), v)
    rhs = inner(u, annihilation(c, v))
    assert lhs.real == pytest.approx(rhs.real, abs=1e-10)
    assert lhs.imag == pytest.approx(rhs.imag, abs=1e-10)


@given(elements(), elements())
def test_apply_x_symmetric_for_real_coefficients(u, v):
    c = [1.0, 0.5, 0.25]
    lhs = inner(apply_x(c, u, cap=None), v)
    rhs = inner(u, apply_x(c, v, cap=None))
    assert lhs.real == pytest.approx(rhs.real, abs=1e-10)
    assert lhs.imag == pytest.approx(rhs.imag, abs=1e-10)


# Small alphabets and coefficients of one magnitude, so created and
# annihilated terms often land on one word and cancel to exactly 0.
_units = st.sampled_from([1.0, -1.0, 2.0, -2.0, 1j, -1j, 0.0])
_short_words = st.lists(st.integers(0, 1), max_size=4).map(normalize)
_letter_vectors = st.one_of(
    st.dictionaries(st.integers(0, 2), _units, max_size=3),
    st.lists(_units, max_size=3).map(lambda c: np.array(c, dtype=complex)),
)


@given(_letter_vectors,
       st.dictionaries(_short_words, _units, max_size=6).map(FockElement.from_dict),
       st.sampled_from([None, 3, 12]))
def test_apply_x_is_creation_plus_annihilation_term_for_term(c, u, cap):
    want = creation(c, u, cap)
    total = want + annihilation(c, u)
    got = apply_x(c, u, cap)
    assert list(got.coeffs.items()) == list(total.coeffs.items())
    assert all(type(w) is Word for w in got.coeffs)
    assert got.dropped_mass == want.dropped_mass


def test_apply_x_drops_terms_that_cancel():
    # creation sends the vacuum to e_0, annihilation sends -e_00 to
    # -e_0, and the cap drops the created -e_000 with its mass 1
    u = vacuum() - basis_vector(normalize([0, 0]))
    out = apply_x({0: 1.0}, u, cap=2)
    assert out.as_dict() == {}
    assert out.dropped_mass == 1.0


def test_annihilation_kills_vacuum():
    assert not annihilation([1.0, 1.0], vacuum()).coeffs


def test_field_operator_on_vacuum_is_one_particle():
    out = apply_x([0.0, 2.0], vacuum())
    assert out.as_dict() == {normalize([1]): 2.0 + 0j}


def test_vage_constant_linear_frozen():
    # sum (2n)^-2 = zeta(2)/4 = pi^2/24, so B^2 = 1/(1 - pi^2/24)
    vc = vage_constant(2.0)
    assert vc.b_squared == pytest.approx(1.0 / (1.0 - math.pi ** 2 / 24),
                                         rel=1e-12)
    assert vc.b_squared == pytest.approx(1.6984662483087338, rel=1e-12)
    assert vc.b == pytest.approx(1.3032521813941973, rel=1e-12)


def test_vage_constant_exponential():
    # sum 2^-2n = 1/3, so B^2 = 3/2
    vc = vage_constant(2.0, WeightSequence.exponential())
    assert vc.b_squared == pytest.approx(1.5, rel=1e-12)


def test_vage_constant_rejects_small_gap():
    with pytest.raises(GapTooSmallError):
        vage_constant(1.0)
    with pytest.raises(GapTooSmallError):
        vage_constant(1.2)
    with pytest.raises(GapTooSmallError):
        # sum 2^-n = 1 exactly, not strictly below it
        vage_constant(1.0, WeightSequence.exponential())


@given(elements(), elements())
def test_vage_product_bound(f, g):
    # norm(f (x) g, -q) <= B(d) norm(f, -p) norm(g, -q) with q = p + d
    seq = WeightSequence.linear()
    p, d = 1.0, 2.0
    q = p + d
    b = vage_constant(d, seq).b
    prod = norm(tensor(f, g, cap=None), -q, seq)
    bound = b * norm(f, -p, seq) * norm(g, -q, seq)
    assert prod <= bound + 1e-9
    worst, violations = product_bound_check([(f, g)], p, d, seq)
    assert violations == 0 and worst <= 1.0 + 1e-12


def test_norm_weights_by_level():
    # single letter 0 carries weight a_1 = 2 per level unit
    e = basis_vector(normalize([0]))
    assert norm(e, 1.0) == pytest.approx(math.sqrt(2.0))
    assert norm(e, -2.0) == pytest.approx(0.5)


def test_element_arithmetic():
    f = basis_vector(normalize([0])) + vacuum() * 2.0
    g = f - vacuum() * 2.0
    assert g.as_dict() == {normalize([0]): 1.0 + 0j}
    assert not (g * 0.0).coeffs
    assert max(map(len, f.coeffs)) == 1
    assert f.coeff(EMPTY_WORD) == 2.0 + 0j


def test_require_cap():
    require_cap(5, None)
    require_cap(5, 5)
    with pytest.raises(CapExceededError):
        require_cap(6, 5)


@given(elements())
def test_json_terms_round_trip(f):
    fd = f.as_dict()
    bd = {parse_word(t["word"]): complex(t["re"], t["im"]) for t in to_json_terms(f)}
    assert set(fd) == set(bd)
    for w in fd:
        assert bd[w] == pytest.approx(fd[w])
