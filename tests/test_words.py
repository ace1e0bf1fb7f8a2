import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from freenoise.words import (
    EMPTY_WORD,
    WeightSequence,
    Word,
    concat,
    iter_words,
    normalize,
    parse_word,
    weight,
    zeta,
)

letter_lists = st.lists(st.integers(0, 5), max_size=10)


def test_normalize_merges_adjacent_runs():
    w = normalize([0, 0, 1, 1, 1, 0])
    assert w.runs == ((0, 2), (1, 3), (0, 1))
    assert w.degree == 6
    assert w.letters() == (0, 0, 1, 1, 1, 0)


def test_empty_word():
    assert normalize([]) == EMPTY_WORD
    assert EMPTY_WORD.is_empty()
    assert EMPTY_WORD.degree == 0
    assert str(EMPTY_WORD) == "1"


def test_checked_entry_points_reject_negative_letters():
    with pytest.raises(ValueError):
        normalize([0, -1])
    with pytest.raises(ValueError):
        parse_word("z0 z-1")


def test_word_is_its_letter_tuple():
    w = Word((0, 0, 1))
    assert w == (0, 0, 1) and hash(w) == hash((0, 0, 1))
    assert str(w) == "z0^2 z1"
    assert parse_word("z0^2 z1") == w


@given(letter_lists)
def test_parse_round_trip(letters):
    w = normalize(letters)
    assert parse_word(str(w)) == w
    assert w.letters() == tuple(letters)


@given(letter_lists, letter_lists)
def test_concat_adds_degrees(a, b):
    w = concat(normalize(a), normalize(b))
    assert w.degree == len(a) + len(b)
    assert w == normalize(list(a) + list(b))


def test_word_order_is_graded():
    ws = sorted([normalize([1]), normalize([0, 0]), normalize([0]), EMPTY_WORD])
    assert ws == [EMPTY_WORD, normalize([0]), normalize([1]), normalize([0, 0])]


def test_iter_words_counts():
    # over L letters there are L^d words of degree exactly d
    words = list(iter_words(3, 2))
    assert len(words) == 1 + 2 + 4 + 8
    assert len(set(words)) == len(words)
    assert all(w.degree <= 3 for w in words)


def test_weight_sequences():
    lin = WeightSequence.linear()
    exp = WeightSequence.exponential()
    assert [lin.value(n) for n in (1, 2, 5)] == [2.0, 4.0, 10.0]
    assert [exp.value(n) for n in (1, 2, 5)] == [2.0, 4.0, 32.0]
    with pytest.raises(ValueError):
        WeightSequence.custom([])
    with pytest.raises(ValueError):
        WeightSequence.custom([2.0, 1.5])
    with pytest.raises(ValueError):
        WeightSequence.custom([0.5])


@pytest.mark.parametrize("seq", [WeightSequence.linear(), WeightSequence.exponential()])
@pytest.mark.parametrize("p", [-2.0, -0.5, 0.0, 1.5])
def test_weight_is_bit_equal_to_the_run_form(seq, p):
    # one power per run, a_{letter+1} ** (p * exp), as Word.runs lists them
    words = list(iter_words(5, 3))
    assert len(words) == 364
    for w in words:
        want = 1.0
        for letter, exp in w.runs:
            want *= seq.value(letter + 1) ** (p * exp)
        assert weight(w, p, seq) == want


def test_inverse_power_sum_matches_partial_sums():
    # partial sums alone converge too slowly near d = 1, so add the
    # integral tail beyond the last term; the residual is O(N^-d)
    lin = WeightSequence.linear()
    top = 400_000
    for d in (1.5, 2.0, 3.0):
        direct = sum((2.0 * n) ** (-d) for n in range(1, top))
        tail = 2.0 ** (-d) * top ** (1.0 - d) / (d - 1.0)
        assert lin.inverse_power_sum(d) == pytest.approx(direct + tail,
                                                         abs=1e-6)
    assert lin.inverse_power_sum(1.0) == math.inf
    exp = WeightSequence.exponential()
    assert exp.inverse_power_sum(2.0) == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_zeta_against_known_values():
    assert zeta(2.0) == pytest.approx(math.pi ** 2 / 6, rel=1e-12)
    assert zeta(4.0) == pytest.approx(math.pi ** 4 / 90, rel=1e-12)


@given(letter_lists, letter_lists, st.sampled_from([0.0, 1.0, 2.5]))
def test_weight_multiplicative_over_concat(a, b, p):
    seq = WeightSequence.linear()
    wa, wb = normalize(a), normalize(b)
    joined = weight(concat(wa, wb), p, seq)
    assert joined == pytest.approx(weight(wa, p, seq) * weight(wb, p, seq),
                                   rel=1e-12)
