import gc
import itertools
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from freenoise.chebyshev import catalan
from freenoise.fock import inner
from freenoise.trace import (
    monomial_to_uwords,
    trace_fock,
    trace_monomial_all,
    trace_pairings,
    trace_reduction,
    u_mult,
    wick_word_vector,
)
from freenoise.words import EMPTY_WORD, Word, iter_words, normalize


def _pairings(idx):
    if not idx:
        yield ()
        return
    first, rest = idx[0], idx[1:]
    for j, other in enumerate(rest):
        left = rest[:j]
        right = rest[j + 1:]
        for sub in _pairings(left + right):
            yield ((first, other),) + sub


def _noncrossing_matched_bruteforce(letters):
    """Count pairings with equal letters in each pair and no crossings."""
    k = len(letters)
    if k % 2:
        return 0
    count = 0
    for pairing in _pairings(tuple(range(k))):
        if any(letters[a] != letters[b] for a, b in pairing):
            continue
        crossed = False
        for (a, b), (c, d) in itertools.combinations(pairing, 2):
            lo1, hi1 = min(a, b), max(a, b)
            lo2, hi2 = min(c, d), max(c, d)
            if lo1 < lo2 < hi1 < hi2 or lo2 < lo1 < hi2 < hi1:
                crossed = True
                break
        if not crossed:
            count += 1
    return count


@given(st.lists(st.integers(0, 2), max_size=8))
def test_pairing_engine_matches_bruteforce(letters):
    expected = Fraction(_noncrossing_matched_bruteforce(tuple(letters)))
    assert trace_pairings(letters) == expected


@given(st.lists(st.integers(0, 2), max_size=8))
def test_three_engines_agree(letters):
    results = trace_monomial_all(letters)
    by_name = {r.engine: r.value for r in results}
    assert by_name["reduction"] == by_name["pairing"]
    assert float(by_name["fock"]) == pytest.approx(float(by_name["pairing"]),
                                                   abs=1e-9)


def test_even_powers_give_catalan_numbers():
    for n in range(6):
        assert trace_pairings([0] * (2 * n)) == catalan(n)


def test_odd_powers_vanish():
    for n in (1, 3, 5, 7):
        assert trace_pairings([0] * n) == 0


def test_radius_rescales_moments():
    # each pair carries (radius/2)^2
    r = Fraction(3)
    for n in range(5):
        assert trace_pairings([0] * (2 * n), radius=r) == (
            catalan(n) * (r / 2) ** (2 * n))


def test_freeness_examples():
    assert trace_pairings([0, 0, 1, 1]) == 1
    assert trace_pairings([0, 1, 0, 1]) == 0
    assert trace_pairings([0, 0, 1, 1, 0, 0]) == 2
    assert trace_pairings([0, 1, 1, 0]) == 1


def test_reduction_engine_is_orthonormality():
    small = list(iter_words(4, 2))
    for beta in small:
        for alpha in small:
            expected = Fraction(1 if beta == alpha else 0)
            assert trace_reduction(beta, alpha) == expected


def test_u_mult_single_run_matches_chebyshev_linearization():
    a = normalize([0, 0])
    b = normalize([0, 0, 0])
    terms = dict(u_mult(a, b))
    expected = {normalize([0] * d): Fraction(1) for d in (1, 3, 5)}
    assert terms == expected


def test_u_mult_distinct_boundary_letters_concatenate():
    a = normalize([0, 1])
    b = normalize([0])
    assert dict(u_mult(a, b)) == {normalize([0, 1, 0]): Fraction(1)}


@given(st.lists(st.integers(0, 1), min_size=1, max_size=4).map(normalize),
       st.lists(st.integers(0, 1), min_size=1, max_size=4).map(normalize))
def test_u_mult_trace_consistency(a, b):
    # the empty-word coefficient of U_a U_b is tau(U_a U_b); the adjoint
    # reverses letters, so this is delta between reversed a and b
    terms = dict(u_mult(a, b))
    got = terms.get(EMPTY_WORD, Fraction(0))
    reversed_a = normalize(list(reversed(a.letters())))
    assert got == trace_reduction(reversed_a, b)


def test_monomial_to_uwords_low_degree():
    # x^2 = U_2 + 1 and x^3 = U_3 + 2 U_1 in the radius-2 normalization
    assert monomial_to_uwords([0, 0]) == {
        normalize([0, 0]): Fraction(1), EMPTY_WORD: Fraction(1)}
    assert monomial_to_uwords([0, 0, 0]) == {
        normalize([0, 0, 0]): Fraction(1), normalize([0]): Fraction(2)}


def test_wick_vector_is_basis_vector():
    for w in ([0], [0, 0], [0, 1], [0, 0, 1], [1, 0, 1, 0]):
        word = normalize(w)
        vec = wick_word_vector(word)
        d = vec.as_dict()
        assert d[word] == pytest.approx(1.0)
        off = sum(abs(c) for v, c in d.items() if v != word)
        assert off == pytest.approx(0.0, abs=1e-12)


def test_uword_fock_orthonormality():
    small = list(iter_words(3, 2))
    vectors = {w: wick_word_vector(w) for w in small}
    for beta in small:
        for alpha in small:
            expected = 1.0 if beta == alpha else 0.0
            assert inner(vectors[beta], vectors[alpha]).real == pytest.approx(
                expected, abs=1e-12)


def test_fock_engine_on_words_and_letter_lists():
    assert trace_fock([0, 0, 1, 1]) == pytest.approx(1.0, abs=1e-12)
    assert trace_fock([0, 1, 0, 1]) == pytest.approx(0.0, abs=1e-12)


def test_exact_layer_counts_in_int_and_answers_in_fractions():
    # every binary monomial of length 1 to 10: the recursive engines count
    # in int, and the public exact engines still return equal Fractions
    for length in range(1, 11):
        for letters in itertools.product((0, 1), repeat=length):
            by_name = {r.engine: r.value for r in trace_monomial_all(letters)}
            assert type(by_name["reduction"]) is Fraction
            assert type(by_name["pairing"]) is Fraction
            assert by_name["reduction"] == by_name["pairing"]
            assert all(type(c) is int for c in monomial_to_uwords(letters).values())
            word = normalize(letters)
            head, tail = normalize(letters[:length // 2]), normalize(letters[length // 2:])
            assert type(trace_reduction(word, word)) is int
            assert type(trace_reduction(head, tail)) is int
            assert all(type(c) is int for _, c in u_mult(head, tail))


def test_trace_reduction_retains_nothing():
    # letters no other test uses: a cache would have to grow by every pair
    uwords = [Word(tuple(1000 + x for x in w)) for w in iter_words(5, 3)]
    assert len(uwords) == 364
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        hits = sum(trace_reduction(a, b) for a in uwords for b in uwords)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert hits == len(uwords)
    assert retained < 1 << 20
