import gc
import itertools
import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from freenoise import trace
from freenoise.chebyshev import catalan
from freenoise.fock import inner, vacuum
from freenoise.trace import (
    _noncrossing_matched,
    apply_monomial,
    monomial_to_uwords,
    trace_fock,
    trace_genus,
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
    # every U-word of degree <= 5 over three letters, relabelled to
    # letters no other test uses: exactly the identity, counted in int
    uwords = [Word(tuple(2000 + 7 * x for x in w)) for w in iter_words(5, 3)]
    for i, beta in enumerate(uwords):
        for j, alpha in enumerate(uwords):
            value = trace_reduction(beta, alpha)
            assert type(value) is int
            assert value == (1 if i == j else 0)


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


def _binary_monomial_pass(x, y):
    for length in range(1, 11):
        for code in itertools.product((x, y), repeat=length):
            monomial_to_uwords(code)
            trace_pairings(code)


def test_product_and_pairing_caches_stay_bounded():
    # Each pass relabels the 2,046 binary monomials of length 1 to 10 to
    # letters no other test uses; two passes fill both caches, and later
    # passes must evict instead of growing them.  Tracing starts before
    # the filling passes, so the entries evicted later count as freed.
    gc.collect()
    tracemalloc.start()
    try:
        for k in range(2):
            _binary_monomial_pass(3000 + 2 * k, 3001 + 2 * k)
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for k in range(2, 4):
            _binary_monomial_pass(3000 + 2 * k, 3001 + 2 * k)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    for cache in (u_mult, _noncrossing_matched):
        info = cache.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize
    assert retained < 1 << 20


def _binary_affix_pass(x, y):
    for length in range(1, 11):
        for code in itertools.product((x, y), repeat=length):
            monomial_to_uwords(code)
            trace_fock(code)


def test_affix_caches_stay_bounded():
    # The same relabelled passes through the U-word and Fock routes: two
    # passes fill the prefix and suffix caches (1,022 affixes a pass),
    # and later passes must evict instead of growing them.
    gc.collect()
    tracemalloc.start()
    try:
        for k in range(2):
            _binary_affix_pass(5000 + 2 * k, 5001 + 2 * k)
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for k in range(2, 4):
            _binary_affix_pass(5000 + 2 * k, 5001 + 2 * k)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    for cache in (trace._prefix_expansions, trace._suffix_vectors):
        assert len(cache) == trace._AFFIX_ENTRIES
    assert retained < 1 << 20
    # the walks still start from the empty word and the vacuum
    assert monomial_to_uwords([5001, 5001]) == {Word((5001, 5001)): 1, EMPTY_WORD: 1}
    assert trace_fock([5001, 5001]) == 1.0


def test_mutating_an_expansion_leaves_the_cache_alone():
    # (7001, 7002, 7001) is stored as a prefix of the longer word, and
    # the empty word is where every expansion starts
    monomial_to_uwords([7001, 7002, 7001, 7001])
    for letters in ((7001, 7002, 7001), ()):
        got = monomial_to_uwords(letters)
        want = dict(got)
        got.clear()
        got[Word((7003,))] = 99
        assert monomial_to_uwords(letters) == want
    assert monomial_to_uwords([7001, 7001]) == {Word((7001, 7001)): 1, EMPTY_WORD: 1}


def test_fock_engine_walks_long_words_without_recursion():
    assert trace_fock([0, 1] * 1500, cap=3000) == 0.0


def test_fock_values_do_not_depend_on_walk_order_or_cap():
    # criterion 3's bit-reversed order at cap 8, then the benchmark's
    # order at cap 12, over letters no other test uses; both equal the
    # uncached product applied to the vacuum, bit for bit
    pair = (7100, 7101)
    reversed_order = [tuple(pair[(code >> k) & 1] for k in range(length))
                      for length in range(1, 9) for code in range(2 ** length)]
    first = {w: trace_fock(w, cap=8) for w in reversed_order}
    bench_order = [tuple(pair[i] for i in code)
                   for length in range(1, 9)
                   for code in itertools.product((0, 1), repeat=length)]
    second = {w: trace_fock(w, cap=12) for w in bench_order}
    assert first == second
    for w, value in first.items():
        assert value == apply_monomial(w, vacuum(), None).coeff(EMPTY_WORD).real


def test_genus_zero_is_the_pairing_count():
    # permutation cycles against the non-crossing recursion, on every
    # binary monomial of length 1 to 10
    for length in range(1, 11):
        for letters in itertools.product((0, 1), repeat=length):
            counts = trace_genus(letters)
            assert len(counts) == length // 4 + 1
            assert counts[0] == trace_pairings(letters)


def test_genus_counts_of_small_words():
    assert trace_genus([]) == (1,)
    assert trace_genus([0, 0, 0, 0]) == (2, 1)
    assert trace_genus([0, 1, 0, 1]) == (0, 1)
    assert trace_genus([0] * 6) == (5, 10)
    assert trace_genus([0, 1, 0]) == (0,)
    assert trace_genus([0, 1]) == (0,)


def test_one_letter_genus_counts_follow_harer_zagier():
    # (k+1) e_g(k) = (4k-2) e_g(k-1) + (k-1)(2k-1)(2k-3) e_{g-1}(k-2),
    # and every pairing of 2k points has some genus: sum_g e_g(k) = (2k-1)!!
    eps = {k: trace_genus([0] * (2 * k)) for k in range(7)}

    def e(g, k):
        return eps[k][g] if 0 <= g < len(eps[k]) else 0

    for k in range(7):
        assert sum(eps[k]) == math.prod(range(1, 2 * k, 2))
    for k in range(2, 7):
        for g in range(len(eps[k])):
            assert (k + 1) * e(g, k) == (4 * k - 2) * e(g, k - 1) \
                + (k - 1) * (2 * k - 1) * (2 * k - 3) * e(g - 1, k - 2)
