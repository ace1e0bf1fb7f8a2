import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from freenoise.errors import CapExceededError, GapTooSmallError
from freenoise.fock import (
    FockElement,
    annihilation,
    apply_x,
    basis_vector,
    creation,
    inner,
    norm,
    product_bound_check,
    require_cap,
    tensor,
    to_json_terms,
    vacuum,
    vage_constant,
)
from freenoise.words import EMPTY_WORD, WeightSequence, concat, normalize, parse_word

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


def test_annihilation_kills_vacuum():
    assert annihilation([1.0, 1.0], vacuum()).is_zero()


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
        vage_constant(2.0, WeightSequence.custom([1.0, 1.0]))


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
    assert (g * 0.0).is_zero()
    assert f.degree == 1
    assert f.coeff(EMPTY_WORD) == 2.0 + 0j


def test_truncated_accumulates_dropped_mass():
    f = basis_vector(normalize([0, 1, 0])) * 2.0 + vacuum()
    cut = f.truncated(2)
    assert cut.as_dict() == {EMPTY_WORD: 1.0 + 0j}
    assert cut.dropped_mass == pytest.approx(4.0)


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
