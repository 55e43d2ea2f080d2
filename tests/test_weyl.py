import random
from fractions import Fraction
from itertools import permutations
from math import comb

import pytest
from hypothesis import given, strategies as st

from opalg import weyl
from opalg.core import FreePolynomial, IDENTITY_WORD, Letter, Word, adjoint, normal_order
from opalg.errors import UnsupportedFragmentError
from opalg.scalars import HbarScalar
from opalg.weyl import (
    WeylMonomial,
    WeylPolynomial,
    expand,
    expand_polynomial,
    normal_form,
    normal_form_of_weyl,
    symmetrize,
    weyl_derivative,
    weyl_product,
)

Q, P = Letter.Q, Letter.P
q = FreePolynomial.from_letters(Q)
p = FreePolynomial.from_letters(P)


def mono(n, m, deriv=None) -> WeylPolynomial:
    return WeylPolynomial.from_monomial(WeylMonomial(n, m, deriv))


# -- symmetrize -----------------------------------------------------------------


def test_symmetrize_qp():
    assert symmetrize(q * p) == mono(1, 1)


def test_symmetrize_kills_hbar_terms():
    assert symmetrize(FreePolynomial.from_word(Word.of(Q), HbarScalar.of(1, 0, 1))).is_zero


def test_count_invariance_on_reorderings():
    assert symmetrize(FreePolynomial.from_word(Word.of(Q, P, Q, P))) == symmetrize(
        FreePolynomial.from_word(Word.of(Q, Q, P, P))
    )


def test_symmetrize_rejects_negative_grades():
    poly = FreePolynomial.from_word(Word.of(Q), HbarScalar.of(1, 0, -1))
    with pytest.raises(UnsupportedFragmentError):
        symmetrize(poly)


def test_symmetrize_rejects_bare_state_symbol():
    with pytest.raises(UnsupportedFragmentError):
        symmetrize(FreePolynomial.from_letters(Letter.RHO))


def test_symmetrize_rejects_two_derivative_letters():
    with pytest.raises(UnsupportedFragmentError):
        symmetrize(FreePolynomial.from_letters(Letter.DRHO_Q, Letter.DRHO_Q))
    with pytest.raises(UnsupportedFragmentError):
        symmetrize(FreePolynomial.from_letters(Letter.DRHO_Q, Letter.DRHO_P))


def test_symmetrize_keeps_single_derivative_letter():
    assert symmetrize(FreePolynomial.from_letters(Q, Letter.DRHO_P)) == mono(
        1, 0, Letter.DRHO_P
    )


@given(st.lists(st.sampled_from([Q, P]), max_size=6))
def test_symmetrize_depends_only_on_counts(letters):
    word = Word.of(*letters)
    sorted_word = Word.of(*sorted(letters))
    assert symmetrize(FreePolynomial.from_word(word)) == symmetrize(
        FreePolynomial.from_word(sorted_word)
    )


@given(st.lists(st.tuples(st.lists(st.sampled_from([Q, P]), max_size=5), st.sampled_from([1, -1, 2])), max_size=3))
def test_symmetrize_is_invariant_under_rewriting(raw):
    x = FreePolynomial(
        (Word.of(*letters), HbarScalar.real(c)) for letters, c in raw
    )
    assert symmetrize(x) == symmetrize(normal_order(x))


DQ = Letter.DRHO_Q
# Coefficient objects: one that repeats, an equal-valued distinct copy of it,
# its negative, a multiple, and a grade-1 one that the symmetrizer drops.
SHARED = HbarScalar.of(Fraction(2, 3), -1)
COEFFICIENT_POOL = [
    SHARED,
    HbarScalar.of(Fraction(2, 3), -1),
    -SHARED,
    SHARED * 3,
    HbarScalar.of(1, 0, 1),
]


def symmetrize_per_term(x: FreePolynomial) -> WeylPolynomial:
    """Reference: one Weyl term per grade-0 word, summed by the public
    constructor, so no count is taken and every coefficient is added."""
    return WeylPolynomial(
        (WeylMonomial(w.count(Q), w.count(P), DQ if DQ in w else None), c)
        for w, c in x.items()
        if c.hbar_power == 0
    )


def arrangements(*letters) -> list[Word]:
    return sorted({Word.of(*perm) for perm in permutations(letters)}, key=lambda w: w.letters)


def test_symmetrize_counts_one_coefficient_object_per_monomial():
    words = arrangements(Q, Q, P, P) + arrangements(Q, P) + arrangements(Q, DQ)
    x = FreePolynomial._of({(w, 0): SHARED for w in words})
    expected = WeylPolynomial(
        [
            (WeylMonomial(2, 2), SHARED * 6),
            (WeylMonomial(1, 1), SHARED * 2),
            (WeylMonomial(1, 0, DQ), SHARED * 2),
        ]
    )
    assert symmetrize(x) == expected == symmetrize_per_term(x)


def test_symmetrize_adds_equal_distinct_objects_and_cancels_opposites():
    copy = HbarScalar.of(Fraction(2, 3), -1)
    assert copy == SHARED and copy is not SHARED
    words = arrangements(Q, Q, P, P)
    interleaved = FreePolynomial._of(
        {(w, 0): (SHARED, copy)[i % 2] for i, w in enumerate(words)}
    )
    assert symmetrize(interleaved) == mono(2, 2).scale(SHARED * 6)
    cancelling = FreePolynomial._of(
        {(w, 0): (SHARED, -SHARED)[i % 2] for i, w in enumerate(words)}
    )
    assert symmetrize(cancelling).is_zero
    leftover = FreePolynomial._of(
        {(w, 0): -SHARED if i < 2 else SHARED for i, w in enumerate(words)}
    )
    assert symmetrize(leftover) == mono(2, 2).scale(SHARED * 2)


@given(
    st.lists(
        st.tuples(
            st.lists(st.sampled_from([Q, P, Q, P, DQ]), max_size=5).filter(
                lambda ls: ls.count(DQ) <= 1
            ),
            st.sampled_from(COEFFICIENT_POOL),
        ),
        max_size=12,
    )
)
def test_symmetrize_with_shared_coefficients_matches_the_per_term_reference(raw):
    x = FreePolynomial((Word.of(*letters), c) for letters, c in raw)
    assert symmetrize(x) == symmetrize_per_term(x)


def test_symmetrize_of_expansions_makes_one_scalar_per_monomial(monkeypatch):
    # A run of words that repeats its letter counts and its coefficient
    # object is counted in an int and merged once, so an expansion makes one
    # scalar per monomial, none for a single word, and multiplies nothing.
    from opalg import scalars

    singles = [expand(WeylMonomial(n, m, d)) for n in range(5) for m in range(5) for d in (None, DQ)]
    values = list(singles)
    values.append(expand_polynomial(mono(3, 2).scale(SHARED) + mono(1, 0) + mono(0, 2, DQ).scale(3)))
    values.append(expand_polynomial(mono(2, 1)) * expand_polynomial(mono(1, 2).scale(SHARED)))
    expected = [symmetrize_per_term(x) for x in values]  # lists every value first
    made = {"made": 0, "mul": 0, "merge": 0}

    def counting(name, func):
        def counted(*args):
            made[name] += 1
            return func(*args)

        return counted

    monkeypatch.setattr(scalars, "_new", counting("made", scalars._new))
    monkeypatch.setattr(HbarScalar, "__mul__", counting("mul", HbarScalar.__mul__))
    monkeypatch.setattr(weyl, "_merge", counting("merge", weyl._merge))
    for x, image in zip(values, expected):
        made.update(made=0, mul=0, merge=0)
        assert symmetrize(x) == image
        words, runs, last = {}, 0, None
        for w, c in x.items():
            key = (w.count(Q), w.count(P), id(c))  # a run repeats the object
            words[key[:2]] = words.get(key[:2], 0) + 1
            runs += key != last
            last = key
        assert (made["made"], made["mul"]) == (sum(n > 1 for n in words.values()), 0), x
        # One merge per run, and one for a single expansion of several words.
        assert made["merge"] <= runs < len(x) or len(x) == 1, x
        if any(x is single for single in singles):
            assert made["merge"] == (len(x) > 1), x


def test_symmetrize_skips_graded_terms_inside_a_run():
    words = arrangements(Q, Q, P, DQ)
    graded = SHARED * HbarScalar.of(1, 0, 1)
    x = FreePolynomial._of(
        {(w, 0): SHARED for w in words[:5]}
        | {(w, 1): graded for w in words}
        | {(w, 0): SHARED for w in words[5:]}
    )
    assert symmetrize(x) == mono(2, 1, DQ).scale(SHARED * 12) == symmetrize_per_term(x)


@pytest.mark.parametrize(
    "letters, grade, message",
    [
        ((Q, P), -1, "the symmetrizer is not defined on negative hbar grades"),
        ((Q, Letter.RHO), 0, "the symmetrizer is not defined on words containing the bare state symbol"),
        ((DQ, Q, Letter.DRHO_P), 0, "the symmetrizer supports at most one state-derivative letter per word"),
    ],
)
def test_symmetrize_errors_keep_their_messages(letters, grade, message):
    # The offending word comes after a run of an expansion's words.
    x = expand(WeylMonomial(2, 2)) + FreePolynomial.from_word(Word(letters), HbarScalar.of(1, 0, grade))
    with pytest.raises(UnsupportedFragmentError) as raised:
        symmetrize(x)
    assert str(raised.value) == message


# -- expand ----------------------------------------------------------------------


def test_six_term_expansion():
    sixth = HbarScalar.real(Fraction(1, 6))
    expected = FreePolynomial(
        (Word.of(*letters), sixth)
        for letters in [
            (Q, Q, P, P),
            (Q, P, Q, P),
            (Q, P, P, Q),
            (P, Q, Q, P),
            (P, Q, P, Q),
            (P, P, Q, Q),
        ]
    )
    assert expand(WeylMonomial(2, 2)) == expected


def test_expansion_of_identity():
    assert expand(WeylMonomial(0, 0)) == FreePolynomial.one()


def test_expansion_memo_is_bounded():
    maxsize = expand.cache_info().maxsize
    assert maxsize is not None and maxsize > 0
    # Every key up to the acceptance tests' degree 8 is kept; its largest
    # expansion, degree 7 and a derivative letter, has C(7, 3) * 8 words.
    for deriv in (None, Letter.DRHO_Q, Letter.DRHO_P):
        for n in range(9):
            for m in range(9 - n - (deriv is not None)):
                w = WeylMonomial(n, m, deriv)
                assert expand(w) is expand(w), w
    assert len(expand(WeylMonomial(3, 4, Letter.DRHO_P))) == weyl._MEMO_WORDS
    large = WeylMonomial(6, 6)
    before = expand.cache_info()
    assert expand(large) is not expand(large)
    assert expand.cache_info() == before


def test_expansion_word_count():
    for n in range(5):
        for m in range(5):
            expansion = expand(WeylMonomial(n, m))
            words = [w for w, _ in expansion.items()]
            assert len(words) == comb(n + m, n)
            assert len(set(words)) == len(words)


@pytest.mark.parametrize("deriv", [None, Letter.DRHO_Q, Letter.DRHO_P])
def test_expansion_lists_each_distinct_arrangement_once_in_lexicographic_order(deriv):
    for n in range(7):
        for m in range(7 - n):
            letters = [Q] * n + [P] * m + ([deriv] if deriv else [])
            words = [word.letters for word, _ in expand(WeylMonomial(n, m, deriv)).items()]
            assert words == sorted(set(permutations(letters))), (n, m, deriv)


def test_derivative_letter_pairing_with_momentum():
    half = HbarScalar.real(Fraction(1, 2))
    expected = FreePolynomial(
        [
            (Word.of(P, Letter.DRHO_Q), half),
            (Word.of(Letter.DRHO_Q, P), half),
        ]
    )
    assert expand(WeylMonomial(0, 1, Letter.DRHO_Q)) == expected


def test_derivative_letter_with_coordinate_powers():
    for n in range(5):
        coeff = HbarScalar.real(Fraction(1, n + 1))
        expected = FreePolynomial(
            (Word.of(*([Q] * k + [Letter.DRHO_P] + [Q] * (n - k))), coeff)
            for k in range(n + 1)
        )
        assert expand(WeylMonomial(n, 0, Letter.DRHO_P)) == expected


def test_round_trip_symmetrize_of_expansion():
    for n in range(4):
        for m in range(4):
            monomial = WeylMonomial(n, m)
            assert symmetrize(expand(monomial)) == WeylPolynomial.from_monomial(monomial)


# -- the symmetric product ---------------------------------------------------------


def test_exponents_add():
    assert weyl_product(mono(1, 1), mono(1, 1)) == mono(2, 2)
    assert weyl_product(mono(2, 1), mono(1, 2)) == mono(3, 3)


def test_unit():
    x = mono(3, 1) + mono(0, 2).scale(Fraction(1, 2))
    assert weyl_product(WeylPolynomial.one(), x) == x


def test_two_derivative_factors_are_rejected():
    with pytest.raises(UnsupportedFragmentError):
        weyl_product(mono(1, 0, Letter.DRHO_Q), mono(0, 1, Letter.DRHO_P))


def test_derivative_factor_is_carried():
    assert weyl_product(mono(2, 0), mono(0, 1, Letter.DRHO_P)) == mono(
        2, 1, Letter.DRHO_P
    )


def test_two_step_agreement_on_monomials():
    for n1 in range(4):
        for m1 in range(4 - n1):
            for n2 in range(4):
                for m2 in range(4 - n2):
                    x, y = mono(n1, m1), mono(n2, m2)
                    two_step = symmetrize(expand_polynomial(x) * expand_polynomial(y))
                    assert weyl_product(x, y) == two_step


def test_two_step_agreement_on_random_polynomials():
    rng = random.Random(9)
    for _ in range(25):
        x = WeylPolynomial(
            (WeylMonomial(rng.randint(0, 3), rng.randint(0, 3)), HbarScalar.real(rng.choice((1, -1, 2))))
            for _ in range(rng.randint(1, 3))
        )
        y = WeylPolynomial(
            (WeylMonomial(rng.randint(0, 3), rng.randint(0, 3)), HbarScalar.real(rng.choice((1, Fraction(1, 2)))))
            for _ in range(rng.randint(1, 3))
        )
        assert weyl_product(x, y) == symmetrize(expand_polynomial(x) * expand_polynomial(y))


@given(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
)
def test_commutativity(n1, m1, n2, m2):
    assert weyl_product(mono(n1, m1), mono(n2, m2)) == weyl_product(
        mono(n2, m2), mono(n1, m1)
    )


def test_associativity_on_monomials():
    for n1, m1, n2, m2, n3, m3 in [(1, 0, 0, 1, 1, 1), (2, 1, 1, 2, 0, 0), (3, 0, 0, 3, 1, 1)]:
        a, b, c = mono(n1, m1), mono(n2, m2), mono(n3, m3)
        assert weyl_product(weyl_product(a, b), c) == weyl_product(a, weyl_product(b, c))


# -- weyl derivative and normal forms ------------------------------------------------


def test_weyl_derivative_lowers_exponents():
    assert weyl_derivative(mono(3, 2), Q) == mono(2, 2).scale(3)
    assert weyl_derivative(mono(3, 2), P) == mono(3, 1).scale(2)
    assert weyl_derivative(mono(0, 2), Q).is_zero


def test_weyl_derivative_keeps_derivative_letter():
    assert weyl_derivative(mono(2, 0, Letter.DRHO_P), Q) == mono(
        1, 0, Letter.DRHO_P
    ).scale(2)


def test_normal_form_of_qp_monomial():
    expected = q * p - FreePolynomial.from_word(
        IDENTITY_WORD, HbarScalar.of(0, Fraction(1, 2), 1)
    )
    assert normal_form_of_weyl(WeylMonomial(1, 1)) == expected


def test_normal_form_of_q2p2_monomial():
    # q^2 p^2 - 2 i hbar q p - hbar^2/2, cross-checked against the oracle
    expected = (
        FreePolynomial.from_word(Word.of(Q, Q, P, P))
        - FreePolynomial.from_word(Word.of(Q, P), HbarScalar.of(0, 2, 1))
        - FreePolynomial.from_word(IDENTITY_WORD, HbarScalar.of(Fraction(1, 2), 0, 2))
    )
    assert normal_form_of_weyl(WeylMonomial(2, 2)) == expected


graded = st.sampled_from(
    [
        HbarScalar.of(1),
        HbarScalar.of(-3, 0),
        HbarScalar.of(Fraction(2, 3), -1, 1),
        HbarScalar.of(0, 5, 2),
    ]
)
weyl_polys = st.lists(
    st.tuples(
        st.integers(0, 4), st.integers(0, 4), st.sampled_from([None, None, Letter.DRHO_Q]), graded
    ),
    max_size=4,
).map(lambda terms: WeylPolynomial((WeylMonomial(n, m, d), c) for n, m, d, c in terms))


free_polys = st.lists(
    st.tuples(st.lists(st.sampled_from(list(Letter)), max_size=6).map(lambda ls: Word(tuple(ls))), graded),
    max_size=4,
).map(FreePolynomial)


# At least one term with a derivative letter and one without.
mixed_weyl_polys = st.tuples(
    st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), graded), min_size=1, max_size=3),
    st.lists(
        st.tuples(
            st.integers(0, 3),
            st.integers(0, 3),
            st.sampled_from([Letter.DRHO_Q, Letter.DRHO_P]),
            graded,
        ),
        min_size=1,
        max_size=3,
    ),
).map(
    lambda terms: WeylPolynomial(
        [(WeylMonomial(n, m), c) for n, m, c in terms[0]]
        + [(WeylMonomial(n, m, d), c) for n, m, d, c in terms[1]]
    )
)


@given(st.one_of(weyl_polys, mixed_weyl_polys))
def test_expand_polynomial_merges_no_word(x):
    expansion = expand_polynomial(x)
    assert len(expansion) == sum(len(expand(monomial)) for monomial, _ in x.items())
    assert expansion == FreePolynomial(
        (word, c * cw) for monomial, c in x.items() for word, cw in expand(monomial).items()
    )


@given(st.one_of(weyl_polys, mixed_weyl_polys, free_polys))
def test_normal_form_is_the_normal_order_of_the_expansion(x):
    free = x if isinstance(x, FreePolynomial) else expand_polynomial(x)
    assert normal_form(x) == normal_order(free)


def test_normal_form_expands_only_the_terms_with_a_derivative_letter(monkeypatch):
    received = []

    def recording(w):
        received.append(w)
        return expand(w)

    monkeypatch.setattr(weyl, "expand", recording)
    x = (
        mono(10, 10)
        + mono(3, 2).scale(HbarScalar.of(0, 2, 1))
        + mono(1, 0, Letter.DRHO_P)
        + mono(0, 2, Letter.DRHO_Q).scale(-2)
    )
    normal_form(x)
    assert received == [WeylMonomial(1, 0, Letter.DRHO_P), WeylMonomial(0, 2, Letter.DRHO_Q)]
    received.clear()
    normal_form(mono(10, 10) + mono(4, 1))
    assert received == []


def test_normal_form_of_weyl_is_the_normal_order_of_the_expansion():
    for n in range(7):
        for m in range(7):
            for deriv in (None, Letter.DRHO_P):
                w = WeylMonomial(n, m, deriv)
                assert normal_form_of_weyl(w) == normal_order(expand(w)), w


def test_pure_powers_are_already_normal():
    for n in range(5):
        assert normal_form_of_weyl(WeylMonomial(n, 0)) == FreePolynomial.from_word(
            Word.of(*([Q] * n))
        )


def test_expansions_are_self_adjoint():
    for n in range(4):
        for m in range(4):
            expansion = expand(WeylMonomial(n, m))
            assert adjoint(expansion) == expansion


def test_hermitian_witness_consistency():
    # the symmetric square of (q p + p q)/2 equals the symmetric square of
    # its rewritten form q p - i hbar / 2
    anticomm = (q * p + p * q).scale(Fraction(1, 2))
    rewritten = q * p - FreePolynomial.from_word(
        IDENTITY_WORD, HbarScalar.of(0, Fraction(1, 2), 1)
    )
    z = mono(2, 1)
    assert weyl_product(symmetrize(anticomm), z) == weyl_product(symmetrize(rewritten), z)
