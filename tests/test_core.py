import copy
import itertools
import pickle
import random
from fractions import Fraction
from functools import cache
from math import comb, factorial

import pytest
from hypothesis import example, given, strategies as st

from opalg import brackets, core, weyl
from opalg.core import (
    FreePolynomial,
    IDENTITY_WORD,
    Letter,
    Word,
    _split_arrangement_sets,
    adjoint,
    multiply,
    normal_order,
    partial_derivative,
)
from opalg.errors import UnsupportedFragmentError
from opalg.printing import render, render_json, render_text
from opalg.scalars import HbarScalar, INV_I_HBAR, I_HBAR, ONE
from opalg.terms import GradedTerms
from opalg.weyl import WeylMonomial, WeylPolynomial, expand, expand_polynomial, normal_form

Q, P, RHO = Letter.Q, Letter.P, Letter.RHO

q = FreePolynomial.from_letters(Q)
p = FreePolynomial.from_letters(P)
rho = FreePolynomial.from_letters(RHO)


def scalar_poly(c: HbarScalar) -> FreePolynomial:
    return FreePolynomial.from_word(IDENTITY_WORD, c)


qp_letters = st.lists(st.sampled_from([Q, P]), max_size=6)
qp_words = qp_letters.map(lambda ls: Word.of(*ls))
coeffs = st.sampled_from(
    [ONE, -ONE, HbarScalar.real(Fraction(1, 2)), HbarScalar.imag(2), HbarScalar.of(1, -1)]
)
qp_polys = st.lists(st.tuples(qp_words, coeffs), max_size=4).map(FreePolynomial)


# -- words -------------------------------------------------------------------


def test_normal_word_predicate():
    assert Word.of(Q, Q, P).is_normal
    assert not Word.of(Q, P, Q).is_normal
    assert Word.of(P, RHO, Q).is_normal  # rho blocks adjacency
    assert IDENTITY_WORD.is_normal


def test_word_ordering_is_length_then_letters():
    words = [Word.of(P), Word.of(Q, Q), Word.of(Q), IDENTITY_WORD]
    ordered = sorted(words, key=lambda w: w.sort_key)
    assert ordered == [IDENTITY_WORD, Word.of(Q), Word.of(P), Word.of(Q, Q)]


# -- multiply ----------------------------------------------------------------


def test_multiply_concatenates_words():
    assert q * p == FreePolynomial.from_word(Word.of(Q, P))


def test_multiply_distributes():
    assert (q + p) * q == FreePolynomial.from_letters(Q, Q) + FreePolynomial.from_letters(P, Q)


def test_multiply_carries_scalars():
    assert scalar_poly(I_HBAR) * q == FreePolynomial.from_word(Word.of(Q), I_HBAR)


def test_zero_coefficients_are_pruned():
    assert (q - q).is_zero
    assert len(q + q - q) == 1


# -- normal ordering ----------------------------------------------------------


def test_ccr_rewrite():
    assert normal_order(p * q) == q * p - scalar_poly(I_HBAR)


def test_normal_form_is_a_fixed_point():
    qp = q * p
    assert normal_order(qp) == qp


def test_p2q2_normal_form():
    # q^2 p^2 - 4 i hbar q p - 2 hbar^2, cross-checked against the
    # representation oracle in test_oracle.py
    expected = (
        FreePolynomial.from_word(Word.of(Q, Q, P, P))
        - FreePolynomial.from_word(Word.of(Q, P), HbarScalar.of(0, 4, 1))
        - scalar_poly(HbarScalar.of(2, 0, 2))
    )
    assert normal_order(p * p * q * q) == expected


def test_state_symbol_blocks_rewriting():
    blocked = p * rho * q
    assert normal_order(blocked) == blocked


def test_rewriting_applies_across_any_adjacent_pair():
    # rho p q has an adjacent (p, q) after the barrier
    x = rho * p * q
    assert normal_order(x) == rho * q * p - rho.scale(I_HBAR)


@given(qp_polys)
def test_normal_order_is_idempotent(x):
    once = normal_order(x)
    assert normal_order(once) == once


@given(qp_polys, qp_polys)
def test_normal_order_is_a_morphism(x, y):
    assert normal_order(x * y) == normal_order(normal_order(x) * normal_order(y))


def test_normal_order_morphism_at_degree_8():
    rng = random.Random(7)
    for _ in range(50):
        words = [
            Word.of(*(rng.choice((Q, P)) for _ in range(rng.randint(0, 8))))
            for _ in range(4)
        ]
        x = FreePolynomial((w, ONE) for w in words[:2])
        y = FreePolynomial((w, ONE) for w in words[2:])
        assert normal_order(x * y) == normal_order(normal_order(x) * normal_order(y))


@given(qp_letters)
def test_normal_form_grading(letters):
    word = Word.of(*letters)
    n, m = word.count(Q), word.count(P)
    for nf_word, coeff in normal_order(FreePolynomial.from_word(word)).items():
        a, b = nf_word.count(Q), nf_word.count(P)
        assert a + coeff.hbar_power == n
        assert b + coeff.hbar_power == m


# Reference: the rewrite system p q -> q p - i hbar at the leftmost adjacent
# pair, which terminates and is confluent.  Its recursion depth grows with the
# number of inversions, so it only serves short words.
@cache
def rewrite_normal_form(word: Word) -> FreePolynomial:
    for i in range(len(word) - 1):
        if word.letters[i] is P and word.letters[i + 1] is Q:
            head, tail = word.letters[:i], word.letters[i + 2 :]
            swapped = rewrite_normal_form(Word(head + (Q, P) + tail))
            return swapped - rewrite_normal_form(Word(head + tail)).scale(I_HBAR)
    return FreePolynomial.from_word(word)


# Every word up to the length, so the walk's q-runs of every kind are drawn:
# a single q after a p run (``p p q``), a q run at b = 0 (``q q``, ``rho q q``)
# and a long run after a long p run (``p^4 q^4``).
@pytest.mark.parametrize(
    "alphabet, max_length",
    [((Q, P, RHO), 8), (tuple(Letter), 6)],
    ids=["q-p-rho-to-8", "all-letters-to-6"],
)
def test_normal_order_matches_rewrite_system(alphabet, max_length):
    coeff = HbarScalar.of(2, -1, 1)  # (2 - i) hbar
    for length in range(max_length + 1):
        for letters in itertools.product(alphabet, repeat=length):
            word = Word(letters)
            expected = rewrite_normal_form(word).scale(coeff)
            actual = normal_order(FreePolynomial.from_word(word, coeff))
            assert render_json(actual) == render_json(expected), str(word)


@pytest.mark.parametrize("n", [1, 3, -2])
def test_junction_counts_are_mccoys_in_order_of_t(n):
    for b in range(11):
        for c in range(11):
            expected = [n * factorial(t) * comb(b, t) * comb(c, t) for t in range(min(b, c) + 1)]
            assert core._junction(b, c, n) == expected, (b, c)


def run_word(*runs: tuple[Letter, int]) -> Word:
    return Word(tuple(letter for letter, r in runs for _ in range(r)))


DQ = Letter.DRHO_Q
# Words the walk takes run by run: p^b q^c meets in one junction step, and a
# run of one state letter moves p^b into the head in one flush.
RUN_WORDS = [run_word((P, b), (Q, c)) for b in range(13) for c in range(13)] + [
    run_word((P, 3), (Q, 4), (P, 2), (Q, 5)),
    run_word((Q, 2), (P, 3), (RHO, 3), (P, 2), (Q, 3)),
    run_word((P, 4), (DQ, 2), (Q, 3), (RHO, 2), (P, 1), (Q, 2)),
    run_word((P, 2), (RHO, 1), (DQ, 2), (RHO, 1), (Q, 4), (P, 3), (Q, 1)),
]


def test_normal_order_of_run_heavy_words_matches_rewrite_system():
    coeff = HbarScalar.of(Fraction(-3, 2), 1, 1)
    for word in RUN_WORDS:
        expected = rewrite_normal_form(word).scale(coeff)
        assert normal_order(FreePolynomial.from_word(word, coeff)) == expected, str(word)


# -- the per-word walk memo ---------------------------------------------------


REWRITE_WORDS = [
    letters
    for alphabet, max_length in [((Q, P, RHO), 8), (tuple(Letter), 6)]
    for length in range(max_length + 1)
    for letters in itertools.product(alphabet, repeat=length)
] + [word.letters for word in RUN_WORDS]


def test_a_walk_memo_hit_equals_a_fresh_walk_on_every_rewrite_word():
    memo = core._word_normal_form
    for letters in REWRITE_WORDS:
        if len(letters) > core._MEMO_LETTERS:
            continue
        memo(letters)
        hits = memo.cache_info().hits
        assert memo(letters) == memo.__wrapped__(letters), letters
        assert memo.cache_info().hits == hits + 1


def test_the_walk_memo_keeps_no_long_word_and_holds_its_maxsize():
    memo = core._word_normal_form
    memo.cache_clear()
    long_word = Word((P, Q) * 6 + (RHO,))
    assert len(long_word) == core._MEMO_LETTERS + 1
    assert normal_order(FreePolynomial.from_word(long_word)) == rewrite_normal_form(long_word)
    assert memo.cache_info().currsize == 0
    normal_order(FreePolynomial.from_word(Word(long_word.letters[1:])))
    assert memo.cache_info().currsize == 1
    maxsize = memo.cache_info().maxsize
    words = list(itertools.product((Q, P, RHO), repeat=7))
    assert len(words) > maxsize
    for letters in words:
        normal_order(FreePolynomial.from_word(Word(letters)))
    assert memo.cache_info().currsize == maxsize


# A source order in which a word's common prefix with the word before ends
# inside one of that word's runs: inside the q-run q^4 (second word) and the
# p-runs p^4 and p^3 (fourth and sixth words) at grade 0, and inside q^4
# (eighth word) at grade 1, under complex coefficients.  Each word is walked
# from the empty product, so its normal form must not depend on its neighbour.
RUN_SPLITS = FreePolynomial(
    [
        (run_word((P, 2), (Q, 4), (P, 1)), HbarScalar.of(1, 2)),
        (run_word((P, 2), (Q, 2), (P, 1), (Q, 1)), HbarScalar.of(0, -3)),
        (run_word((Q, 3), (P, 4), (Q, 2)), HbarScalar.of(0, 1, 1)),
        (run_word((Q, 3), (P, 2), (Q, 1)), HbarScalar.of(-1, -1)),
        (run_word((P, 3), (Q, 2)), HbarScalar.of(Fraction(1, 2), -1)),
        (run_word((P, 2), (Q, 1)), HbarScalar.of(2, 1)),
        (run_word((Q, 4), (P, 2), (Q, 1)), HbarScalar.of(0, 2, 1)),
        (run_word((Q, 2), (P, 1)), HbarScalar.of(Fraction(-1, 2), 1, 1)),
        (run_word((Q, 2), (P, 2), (RHO, 1), (Q, 2)), HbarScalar.of(3, Fraction(1, 3), 1)),
    ]
)


def test_normal_order_restarts_inside_a_run_of_the_word_before():
    assert normal_order(RUN_SPLITS) == word_by_word(RUN_SPLITS)
    # Each word alone, and the same words in the reverse order.
    terms = list(RUN_SPLITS.items())
    for word, coeff in terms:
        single = FreePolynomial.from_word(word, coeff)
        assert normal_order(single) == word_by_word(single), str(word)
    reverse = FreePolynomial(terms[::-1])
    assert normal_order(reverse) == word_by_word(RUN_SPLITS)


# Multi-term inputs for the walk: every word extends a prefix of one base
# word, so consecutive words share prefixes and one may be a prefix of another
# (or empty); a small pool of graded coefficients repeats.
GRADED_COEFFS = [ONE, HbarScalar.of(-2, 1), HbarScalar.of(0, 3, 1), HbarScalar.of(1, -1, 2)]
sharing_polys = st.builds(
    lambda base, parts: FreePolynomial(
        (Word(tuple(base[:cut]) + tuple(tail)), GRADED_COEFFS[i]) for cut, tail, i in parts
    ),
    st.lists(st.sampled_from(list(Letter)), max_size=6),
    st.lists(
        st.tuples(
            st.integers(0, 6),
            st.lists(st.sampled_from([Q, P, Q, P, RHO, Letter.DRHO_Q]), max_size=2),
            st.integers(0, len(GRADED_COEFFS) - 1),
        ),
        max_size=8,
    ),
)
SHARING_EXAMPLE = FreePolynomial(
    [
        (Word.of(P, P, Q, Q), ONE),
        (Word.of(P, P, Q), ONE),
        (IDENTITY_WORD, HbarScalar.of(0, 3, 1)),
        (Word.of(P, P, Q, RHO, P, Q), ONE),
        (Word.of(P, Q, P, Q), HbarScalar.of(1, -1, 2)),
        (Word.of(P, Q, P, Letter.DRHO_P, Q), HbarScalar.of(0, 3, 1)),
    ]
)


@given(sharing_polys)
@example(SHARING_EXAMPLE)
def test_normal_order_of_sums_is_the_sum_of_word_normal_forms(x):
    expected = FreePolynomial()
    for word, coeff in x.items():
        expected = expected + rewrite_normal_form(word).scale(coeff)
    assert normal_order(x) == expected


def power(x: FreePolynomial, n: int) -> FreePolynomial:
    result = x
    for _ in range(n - 1):
        result = multiply(result, x)
    return result


# Products built through multiply: each of f's words is followed by every
# word of g, so runs of consecutive words share f's word as a prefix.
@pytest.mark.parametrize(
    "x",
    [
        multiply(power(q + p, 3), power(q - p.scale(2), 3)),
        power(q * p + (p * q).scale(2) + (q * q * p).scale(3), 3),
        power(q + p + rho, 4),
        power(q + p.scale(HbarScalar.of(0, 1, 1)) + rho, 5),
    ],
    ids=["(q+p)^3(q-2p)^3", "(qp+2pq+3qqp)^3", "(q+p+rho)^4", "(q+i hbar p+rho)^5"],
)
def test_normal_order_of_products_is_the_sum_of_word_normal_forms(x):
    assert normal_order(x) == word_by_word(x)


def mccoy_form(n: int, m: int) -> FreePolynomial:
    """McCoy: ``S(q^n p^m) = sum_k C(n,k) C(m,k) k! (-i hbar/2)^k q^(n-k) p^(m-k)``."""
    pairs = []
    for k in range(min(n, m) + 1):
        c = Fraction(comb(n, k) * comb(m, k) * factorial(k), 2**k)
        re, im = ((1, 0), (0, -1), (-1, 0), (0, 1))[k % 4]  # (-i)^k
        pairs.append((Word((Q,) * (n - k) + (P,) * (m - k)), HbarScalar.of(c * re, c * im, k)))
    return FreePolynomial(pairs)


def test_normal_order_of_symmetrized_monomials_is_mccoys_form():
    for total in range(15):
        for n in range(total + 1):
            m = total - n
            words = expand(WeylMonomial(n, m))
            closed_form = normal_order(words)
            assert closed_form == mccoy_form(n, m), (n, m)
            if total <= 10:
                # The word-by-word route: one walk per arrangement.
                by_word = FreePolynomial()
                for word, coeff in words.items():
                    by_word = by_word + normal_order(FreePolynomial.from_word(word, coeff))
                assert closed_form == by_word, (n, m)


def word_by_word(x: FreePolynomial) -> FreePolynomial:
    expected = FreePolynomial()
    for word, coeff in x.items():
        expected = expected + rewrite_normal_form(word).scale(coeff)
    return expected


# A group with the full count of q/p arrangements that holds a state word,
# or two coefficients, is not the symmetrizer's image.
@pytest.mark.parametrize(
    "x",
    [
        q * p + p * rho,
        q * p + p * FreePolynomial.from_letters(Letter.DRHO_Q),
        q * p + rho * q,
        q * p * q + q * q * p + p * q * rho,
        q * p + (p * q).scale(HbarScalar.of(1, 0, 1)),
        q * p + (p * q).scale(2),
        p * rho + rho * p,
        q * p * rho + p * q * rho + q * rho * p,
    ],
    ids=[
        "p-rho",
        "p-drho_q",
        "rho-q",
        "three-letters",
        "two-grades",
        "two-coefficients",
        "p-with-rho-both-ways",
        "C(3,1)-words-with-rho",
    ],
)
def test_normal_order_of_near_arrangement_sets_takes_the_word_route(x):
    assert normal_order(x) == word_by_word(x)


def test_normal_order_of_a_whole_arrangement_set_among_other_words():
    x = (q * p + p * q).scale(HbarScalar.of(2, -1, 1)) + p * rho + q * q + p * p * q
    assert normal_order(x) == word_by_word(x)
    # q p at grade 1 beside the whole grade-0 set {q p, p q}
    x = (q * p).scale(HbarScalar.of(0, 3, 1)) + p * q + q * p
    assert normal_order(x) == word_by_word(x)
    assert normal_order(q * p + p * q) == (q * p).scale(2) - scalar_poly(I_HBAR)


def test_one_pass_splits_whole_sets_from_the_words_in_source_order():
    def word(text: str) -> Word:
        symbols = {"q": Q, "p": P, "r": RHO, "d": Letter.DRHO_Q}
        return Word.of(*(symbols[ch] for ch in text))

    c, c2, g = HbarScalar.of(Fraction(2, 3), -1), HbarScalar.of(5), HbarScalar.of(0, 1, 1)
    # Whole sets {qpp, pqp, ppq} under c and {qqpp, ..., ppqq} at grade 1
    # under g; {qp, pq} under two coefficients; words with state letters,
    # one of them with a q count and length of the first set.
    source = [
        ("rq", c, False),
        ("pqp", c, True),
        ("qp", c, False),
        ("qqpp", g, True),
        ("qrp", c, False),
        ("qpqp", g, True),
        ("qpp", c, True),
        ("pq", c2, False),
        ("qppq", g, True),
        ("pqqp", g, True),
        ("d", c2, False),
        ("ppq", c, True),
        ("pqpq", g, True),
        ("ppqq", g, True),
    ]
    x = FreePolynomial((word(text), coeff) for text, coeff, _ in source)
    sets, rest = _split_arrangement_sets(x._terms)
    assert sets == [(1, 2, c), (2, 2, g)]
    assert list(rest) == [
        ((word(text), coeff.hbar_power), coeff) for text, coeff, in_set in source if not in_set
    ]
    assert normal_order(x) == word_by_word(x)


def arrangements(n: int, m: int) -> list[Word]:
    return [Word(letters) for letters in itertools.permutations((Q,) * n + (P,) * m)]


# Whole and partial arrangement sets of q^n p^m, scaled and graded, mixed with
# other words; a word may recur in two parts, so its coefficients merge.
arrangement_polys = st.builds(
    lambda sets, others: FreePolynomial(
        [
            (word, GRADED_COEFFS[i] * scale)
            for (n, m, drop, i, scale) in sets
            for word in sorted(set(arrangements(n, m)), key=lambda w: w.letters)[drop:]
        ]
        + [(Word(tuple(letters)), GRADED_COEFFS[i]) for letters, i in others]
    ),
    st.lists(
        st.tuples(
            st.integers(1, 3),
            st.integers(1, 3),
            st.sampled_from([0, 0, 1, 2]),
            st.integers(0, len(GRADED_COEFFS) - 1),
            st.sampled_from([1, -1, 2, Fraction(1, 3)]),
        ),
        max_size=3,
    ),
    st.lists(
        st.tuples(
            st.lists(st.sampled_from([Q, P, Q, P, RHO, Letter.DRHO_P]), max_size=5),
            st.integers(0, len(GRADED_COEFFS) - 1),
        ),
        max_size=4,
    ),
)


# x - y and y - x put c and -c on the words of x and y: negated copies.
@given(arrangement_polys, arrangement_polys)
def test_normal_order_of_arrangement_sets_is_the_sum_of_word_normal_forms(x, y):
    for z in (x, x - y, y - x):
        assert normal_order(z) == word_by_word(z)


def normal_order_without_scalar_adds(monkeypatch, x: FreePolynomial) -> FreePolynomial:
    calls = []
    add = HbarScalar.__add__

    def counting_add(a, b):
        calls.append((a, b))
        return add(a, b)

    monkeypatch.setattr(HbarScalar, "__add__", counting_add)
    result = normal_order(x)
    monkeypatch.undo()
    assert calls == []
    return result


def test_normal_order_cancels_c_against_minus_c_as_integer_counts(monkeypatch):
    # q^2 p^2 under 1 and the leading term of p^2 q^2 under -1 meet in one slot.
    x = q * q * p * p - p * p * q * q
    expected = word_by_word(x)
    assert normal_order_without_scalar_adds(monkeypatch, x) == expected


QQPP, PPQQ, QRHO = Word.of(Q, Q, P, P), Word.of(P, P, Q, Q), Word.of(Q, RHO)
COMPLEX_C = HbarScalar.of(Fraction(2, 3), -1)


# The source order sets the order in which the coefficients reach the fold:
# -c before c, or a third coefficient, on a slot of its own, between them.
@pytest.mark.parametrize(
    "source",
    [
        [(PPQQ, -ONE), (QQPP, ONE)],
        [(QQPP, ONE), (QRHO, HbarScalar.real(2)), (PPQQ, -ONE)],
        [(PPQQ, -ONE), (QRHO, HbarScalar.real(2)), (QQPP, ONE)],
        [(PPQQ, -COMPLEX_C), (QRHO, I_HBAR), (QQPP, COMPLEX_C)],
        [(QQPP, COMPLEX_C), (QRHO, I_HBAR), (PPQQ, -COMPLEX_C)],
    ],
    ids=[
        "negative-first",
        "third-between",
        "negative-first-third-between",
        "complex-negative-first",
        "complex-third-between",
    ],
)
def test_normal_order_cancels_c_against_minus_c_in_any_order(monkeypatch, source):
    x = FreePolynomial(source)
    expected = word_by_word(x)
    assert normal_order_without_scalar_adds(monkeypatch, x) == expected


def test_commutator_cancels_c_against_minus_c_from_its_coefficient_pairs(monkeypatch):
    # c q^2 - c p^2 against q p: the pairs make c and -c, which reach the
    # fold as c / (i*hbar) and -c / (i*hbar).
    f = FreePolynomial([(Word.of(Q, Q), COMPLEX_C), (Word.of(P, P), -COMPLEX_C)])
    g = q * p
    reached = []
    from_counts = brackets._from_counts

    def spy(counts_by_coeff):
        reached.append(list(counts_by_coeff))
        return from_counts(counts_by_coeff)

    monkeypatch.setattr(brackets, "_from_counts", spy)
    result = brackets.commutator_bracket(f, g)
    monkeypatch.undo()
    assert reached == [[COMPLEX_C * INV_I_HBAR, -COMPLEX_C * INV_I_HBAR]]
    assert result == normal_order((f * g - g * f).scale(INV_I_HBAR))


def binomial_sum(a: int, b: int) -> FreePolynomial:
    """``p^b q^a = sum_k C(a,k) C(b,k) k! (-i hbar)^k q^(a-k) p^(b-k)``."""
    pairs = []
    for k in range(min(a, b) + 1):
        m = comb(a, k) * comb(b, k) * factorial(k)
        re, im = ((1, 0), (0, -1), (-1, 0), (0, 1))[k % 4]  # (-i)^k
        word = Word((Q,) * (a - k) + (P,) * (b - k))
        pairs.append((word, HbarScalar.of(m * re, m * im, k)))
    return FreePolynomial(pairs)


# Out of the rewrite reference's reach: past a = b = 23 its recursion
# outgrows the default limit.
@pytest.mark.parametrize("b", [0, 1, 2, 3, 7, 23, 33, 40])
def test_normal_order_of_p_power_q_power_is_the_binomial_sum(b):
    for a in range(41):
        actual = normal_order(FreePolynomial.from_word(Word((P,) * b + (Q,) * a)))
        assert actual == binomial_sum(a, b), (a, b)
        assert len(actual) == min(a, b) + 1


# -- derivatives ---------------------------------------------------------------


def test_power_rule():
    assert partial_derivative(q * q, Q) == q.scale(2)


def test_positional_derivative_deletes_each_occurrence():
    qpq = FreePolynomial.from_word(Word.of(Q, P, Q))
    assert partial_derivative(qpq, Q) == FreePolynomial.from_word(
        Word.of(P, Q)
    ) + FreePolynomial.from_word(Word.of(Q, P))


def test_derivative_of_absent_letter_is_zero():
    assert partial_derivative(q * q * q, P).is_zero


def test_state_letters_are_constants():
    x = FreePolynomial.from_word(Word.of(Letter.DRHO_Q, RHO))
    assert partial_derivative(x, Q).is_zero
    assert partial_derivative(x, P).is_zero


def test_derivative_wrt_state_letter_is_rejected():
    with pytest.raises(ValueError):
        partial_derivative(q, RHO)


@given(qp_polys)
def test_derivatives_commute(x):
    assert partial_derivative(partial_derivative(x, Q), P) == partial_derivative(
        partial_derivative(x, P), Q
    )


# -- adjoint --------------------------------------------------------------------


def test_adjoint_reverses_words():
    assert adjoint(q * p) == p * q


def test_adjoint_conjugates_coefficients():
    assert adjoint((q * p).scale(I_HBAR)) == (p * q).scale(HbarScalar.of(0, -1, 1))


def test_symmetric_combination_is_self_adjoint():
    x = (q * p + p * q).scale(Fraction(1, 2))
    assert adjoint(x) == x


def test_adjoint_rejects_state_words():
    with pytest.raises(UnsupportedFragmentError):
        adjoint(rho)
    with pytest.raises(UnsupportedFragmentError):
        adjoint(FreePolynomial.from_letters(Letter.DRHO_P))


@given(qp_polys)
def test_adjoint_is_an_involution(x):
    assert adjoint(adjoint(x)) == x


@given(qp_polys, qp_polys)
def test_adjoint_is_an_antihomomorphism(x, y):
    assert adjoint(multiply(x, y)) == multiply(adjoint(y), adjoint(x))


# -- the arrangement-set record of expand_polynomial ------------------------------

DQ, DP = Letter.DRHO_Q, Letter.DRHO_P
RECORD_COEFFS = GRADED_COEFFS + [-ONE, HbarScalar.of(Fraction(2, 3), Fraction(-5, 7), 1)]
HBAR_COEFF = HbarScalar.of(0, 3, 1)


def weyl_sum(terms) -> WeylPolynomial:
    return WeylPolynomial((WeylMonomial(n, m, deriv), c) for n, m, deriv, c in terms)


def unrecorded(x: FreePolynomial) -> FreePolynomial:
    return FreePolynomial(list(x.items()))


def refuse_to_split(terms):
    raise AssertionError("a recorded value was split again")


# Several grades, complex coefficients, a monomial at two grades, and pure
# sums mixed with derivative-letter terms, which leave the value unrecorded.
weyl_sums = st.lists(
    st.tuples(
        st.integers(0, 4),
        st.integers(0, 4),
        st.sampled_from([None, None, None, DQ, DP]),
        st.sampled_from(RECORD_COEFFS),
    ),
    max_size=5,
).map(weyl_sum)


def test_expand_polynomial_records_its_sets_in_source_order():
    c, g = HbarScalar.of(Fraction(2, 3), -1), HBAR_COEFF
    w = weyl_sum([(2, 1, None, c), (0, 3, None, g), (2, 1, None, g), (0, 0, None, ONE)])
    x = expand_polynomial(w)
    assert x._sets == ((2, 1, c / 3), (0, 3, g), (2, 1, g / 3), (0, 0, ONE))
    assert not hasattr(expand_polynomial(weyl_sum([(1, 1, None, c), (1, 0, DQ, g)])), "_sets")
    with pytest.raises(AttributeError, match="is immutable"):
        x._sets = ()


@pytest.mark.parametrize("n, m", [(0, 0), (3, 0), (0, 2), (1, 1), (4, 3), (7, 7)])
def test_normal_order_of_an_expansion_never_splits_it(monkeypatch, n, m):
    terms = [(n, m, None, HbarScalar.of(1, 2)), (m, n, None, HBAR_COEFF), (1, 2, None, -ONE)]
    # A second expansion is listed for the reference, so ``x`` holds only its record.
    expected = normal_order(unrecorded(expand_polynomial(weyl_sum(terms))))
    x = expand_polynomial(weyl_sum(terms))
    monkeypatch.setattr(core, "_split_arrangement_sets", refuse_to_split)
    assert normal_order(x) == expected


@given(weyl_sums)
@example(weyl_sum([(2, 2, None, ONE), (2, 2, None, HBAR_COEFF)]))
@example(weyl_sum([(3, 1, None, ONE), (1, 3, None, -ONE), (0, 2, None, HbarScalar.of(1, -1, 2))]))
@example(weyl_sum([(2, 1, None, HbarScalar.of(-2, 1)), (1, 1, DQ, ONE)]))
def test_normal_order_of_a_recorded_value_is_that_of_its_words(w):
    x = expand_polynomial(w)
    assert hasattr(x, "_sets") == all(m.deriv is None for m, _ in w.items())
    recorded, counted = normal_order(x), normal_order(unrecorded(x))
    assert recorded == counted
    assert render_text(recorded) == render_text(counted)
    assert render_json(recorded) == render_json(counted)


def test_values_built_from_a_recorded_value_carry_no_record():
    c = HbarScalar.of(Fraction(1, 2), -3)
    x = expand_polynomial(weyl_sum([(3, 2, None, c), (1, 1, None, HBAR_COEFF), (0, 1, None, ONE)]))
    assert hasattr(x, "_sets")
    expected = normal_order(x)
    twins = [x + FreePolynomial.zero(), x - FreePolynomial.zero(), copy.copy(x), copy.deepcopy(x)]
    twins += [pickle.loads(pickle.dumps(x, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in twins:
        assert twin == x and not hasattr(twin, "_sets")
        assert normal_order(twin) == expected
    scaled = x.scale(c)
    assert not hasattr(scaled, "_sets") and not hasattr(-x, "_sets")
    assert normal_order(scaled) == expected.scale(c)


# -- values that hold only their record -------------------------------------------


_get_terms = GradedTerms._terms.__get__  # reads the slot, never ``__getattr__``


def holds_only_its_record(x: FreePolynomial) -> bool:
    try:
        _get_terms(x)
    except AttributeError:
        return hasattr(x, "_sets")
    return False


# Several grades, complex coefficients, a monomial at two grades, zero, and
# single-term and multi-term values, none with a derivative letter.
pure_weyl_sums = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 4), st.none(), st.sampled_from(RECORD_COEFFS)),
    max_size=5,
).map(weyl_sum)


@given(pure_weyl_sums)
@example(weyl_sum([(2, 2, None, HbarScalar.of(1, -1)), (2, 2, None, HBAR_COEFF)]))
@example(weyl_sum([(3, 1, None, HbarScalar.of(Fraction(2, 3), Fraction(-5, 7), 1))]))
@example(weyl_sum([(0, 0, None, ONE), (1, 0, None, HBAR_COEFF), (0, 3, None, -ONE)]))
def test_a_record_only_value_behaves_like_its_listed_words(w):
    listed = unrecorded(expand_polynomial(w))
    # Source order of the Weyl terms, then each expansion's word order.
    words = [(word, c * weight) for m, c in w.items() for word, weight in expand(m).items()]
    assert list(listed.items()) == list(FreePolynomial(words).items())

    def fresh() -> FreePolynomial:
        x = expand_polynomial(w)
        assert holds_only_its_record(x)
        return x

    assert list(fresh().items()) == list(listed.items())
    assert fresh() == listed and listed == fresh()
    assert len(fresh()) == len(listed)
    assert bool(fresh()) is bool(listed)
    assert fresh().is_zero is listed.is_zero
    for fmt in ("text", "latex", "json"):
        assert render(fresh(), fmt) == render(listed, fmt)
    twins = [copy.copy(fresh()), copy.deepcopy(fresh())]
    twins += [pickle.loads(pickle.dumps(fresh(), protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in twins:
        assert not hasattr(twin, "_sets")
        assert list(twin.items()) == list(listed.items())


def test_a_record_only_value_lists_its_words_once_and_keeps_its_record():
    x = expand_polynomial(weyl_sum([(2, 1, None, HBAR_COEFF), (1, 1, None, ONE)]))
    record = x._sets
    first = x._terms
    assert x._terms is first and x._sets is record
    assert not holds_only_its_record(x)
    with pytest.raises(AttributeError, match="has no attribute 'letters'"):
        x.letters


def refuse_to_expand(w):
    raise AssertionError(f"the words of {w} were listed")


@pytest.mark.parametrize("n, m", [(0, 0), (3, 0), (1, 1), (4, 3), (7, 7)])
def test_normal_forms_and_comm_of_expansions_never_list_their_words(monkeypatch, n, m):
    from opalg.brackets import commutator_bracket

    v = weyl_sum([(n, m, None, HbarScalar.of(1, 2)), (m, n, None, HBAR_COEFF), (1, 2, None, -ONE)])
    w = weyl_sum([(2, 3, None, HbarScalar.of(Fraction(1, 2))), (1, 0, None, HBAR_COEFF)])
    listed_v, listed_w = unrecorded(expand_polynomial(v)), unrecorded(expand_polynomial(w))
    expected = [normal_order(listed_v), normal_order(listed_v), commutator_bracket(listed_v, listed_w)]
    monkeypatch.setattr(weyl, "expand", refuse_to_expand)
    actual = [
        normal_order(expand_polynomial(v)),
        normal_form(expand_polynomial(v)),
        commutator_bracket(expand_polynomial(v), expand_polynomial(w)),
    ]
    assert actual == expected


@pytest.mark.parametrize("n, m", [(0, 0), (3, 0), (1, 1), (4, 3), (7, 7)])
def test_normal_form_and_comm_of_weyl_operands_never_list_their_words(monkeypatch, n, m):
    # The same guarantee on the Weyl operands that ``normal`` and ``comm``
    # take: it holds without an expansion record.
    from opalg.brackets import commutator_bracket

    v = weyl_sum([(n, m, None, HbarScalar.of(1, 2)), (m, n, None, HBAR_COEFF), (1, 2, None, -ONE)])
    w = weyl_sum([(2, 3, None, HbarScalar.of(Fraction(1, 2))), (1, 0, None, HBAR_COEFF)])
    expected = [normal_form(v), commutator_bracket(v, w), commutator_bracket(w, v)]
    assert expected[0] == normal_order(unrecorded(expand_polynomial(v)))
    monkeypatch.setattr(weyl, "expand", refuse_to_expand)
    assert [normal_form(v), commutator_bracket(v, w), commutator_bracket(w, v)] == expected


def test_a_value_with_a_derivative_letter_is_listed_at_once_without_a_record(monkeypatch):
    received = []

    def recording(w):
        received.append(w)
        return expand(w)

    monkeypatch.setattr(weyl, "expand", recording)
    x = expand_polynomial(weyl_sum([(1, 1, None, HBAR_COEFF), (1, 0, DQ, ONE), (0, 2, DP, -ONE)]))
    assert received == [WeylMonomial(1, 1), WeylMonomial(1, 0, DQ), WeylMonomial(0, 2, DP)]
    assert list(_get_terms(x)) and not hasattr(x, "_sets")


def test_normal_order_reads_each_slot_without_reaching_getattr(monkeypatch):
    c = HbarScalar.of(Fraction(1, 2), -3)
    w = weyl_sum([(3, 2, None, c), (1, 1, None, HBAR_COEFF), (0, 1, None, ONE)])
    listed = expand_polynomial(w)
    assert listed._terms
    values = [expand_polynomial(w), listed, unrecorded(listed), FreePolynomial.from_letters(P, Q)]
    expected = [normal_order(value) for value in values]

    def refuse(self, name):
        raise AssertionError(f"{name} reached __getattr__")

    monkeypatch.setattr(FreePolynomial, "__getattr__", refuse)
    assert [normal_order(value) for value in values] == expected
