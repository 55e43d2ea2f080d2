import random
import re
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from opalg import brackets, core
from opalg.brackets import (
    ClassicalPolynomial,
    check_anticommutator_identity,
    check_leibniz,
    check_obstruction,
    check_von_neumann_equivalence,
    commutator_bracket,
    leibniz_ordinary_product_gap,
    poisson_bracket_classical,
    quantize,
    substitute_drho,
    symmetrized_poisson_bracket,
)
from opalg.core import FreePolynomial, IDENTITY_WORD, Letter, Word, normal_order
from opalg.errors import UnsupportedFragmentError
from opalg.oracle import oracle_equal
from opalg.printing import render_json, render_text
from opalg.scalars import HbarScalar, INV_I_HBAR, I_HBAR, ONE
from opalg.weyl import (
    WeylMonomial,
    WeylPolynomial,
    _normal_form_counts,
    _product_difference,
    expand_polynomial,
    weyl_derivative,
    weyl_product,
)

Q, P, RHO = Letter.Q, Letter.P, Letter.RHO
q = FreePolynomial.from_letters(Q)
p = FreePolynomial.from_letters(P)


def mono(n, m, deriv=None) -> WeylPolynomial:
    return WeylPolynomial.from_monomial(WeylMonomial(n, m, deriv))


def cmono(n, m, coeff=1) -> ClassicalPolynomial:
    return ClassicalPolynomial.from_monomial(n, m, Fraction(coeff))


# -- classical mirror ----------------------------------------------------------


def test_canonical_pair():
    assert poisson_bracket_classical(cmono(1, 0), cmono(0, 1)) == cmono(0, 0)


def test_cubic_bracket():
    assert poisson_bracket_classical(cmono(3, 0), cmono(0, 3)) == cmono(2, 2, 9)


def test_mixed_bracket():
    assert poisson_bracket_classical(cmono(1, 1), cmono(2, 0)) == cmono(2, 0, -2)


def test_classical_coefficients_reject_hbar():
    with pytest.raises(ValueError):
        ClassicalPolynomial([((1, 0), HbarScalar.of(1, 0, 1))])


# -- the two quantum brackets -----------------------------------------------------


def test_symmetrized_bracket_of_canonical_pair():
    assert symmetrized_poisson_bracket(mono(1, 0), mono(0, 1)) == WeylPolynomial.one()


def test_symmetrized_bracket_cubes():
    assert symmetrized_poisson_bracket(mono(3, 0), mono(0, 3)) == mono(2, 2).scale(9)


def test_symmetrized_bracket_mixed_monomials():
    assert symmetrized_poisson_bracket(mono(2, 1), mono(1, 2)) == mono(2, 2).scale(3)


def test_symmetrized_bracket_monomial_closed_form():
    for a1, a2, b1, b2 in [(1, 0, 0, 1), (2, 1, 1, 2), (3, 0, 2, 2), (1, 3, 2, 1)]:
        got = symmetrized_poisson_bracket(mono(a1, a2), mono(b1, b2))
        factor = a1 * b2 - a2 * b1
        expected = (
            mono(a1 + b1 - 1, a2 + b2 - 1).scale(factor)
            if factor
            else WeylPolynomial.zero()
        )
        assert got == expected


def reference_bracket(f: WeylPolynomial, g: WeylPolynomial) -> WeylPolynomial:
    """The bracket's definition: q- and p-derivatives paired by the symmetric product."""
    return weyl_product(weyl_derivative(f, Q), weyl_derivative(g, P)) - weyl_product(
        weyl_derivative(g, Q), weyl_derivative(f, P)
    )


DERIVS = (None, Letter.DRHO_Q, Letter.DRHO_P)


@pytest.mark.parametrize(
    "deriv_a, deriv_b",
    list(product(DERIVS, repeat=2)),
    ids=lambda deriv: deriv.symbol if deriv else "none",
)
def test_symmetrized_bracket_matches_its_definition(deriv_a, deriv_b):
    exponents = [(n, total - n) for total in range(6) for n in range(total + 1)]
    coeff_a = HbarScalar.of(Fraction(2, 3), -1, 1)
    coeff_b = HbarScalar.of(-3, Fraction(1, 2), -1)
    for a in exponents:
        f = WeylPolynomial.from_monomial(WeylMonomial(*a, deriv_a), coeff_a)
        for b in exponents:
            g = WeylPolynomial.from_monomial(WeylMonomial(*b, deriv_b), coeff_b)
            try:
                expected = reference_bracket(f, g)
            except UnsupportedFragmentError as exc:
                with pytest.raises(UnsupportedFragmentError) as info:
                    symmetrized_poisson_bracket(f, g)
                assert type(info.value) is type(exc)
                assert str(info.value) == str(exc)
            else:
                assert symmetrized_poisson_bracket(f, g) == expected, (a, b)


def test_commutator_bracket_of_canonical_pair():
    assert commutator_bracket(q, p) == FreePolynomial.one()


def test_commutator_bracket_is_alternating():
    assert commutator_bracket(q, q).is_zero


def test_commutator_bracket_q2_p():
    assert commutator_bracket(q * q, p) == q.scale(2)


def test_brackets_agree_on_low_degree_arguments():
    monos = [(n, m) for n in range(3) for m in range(3) if n + m <= 2]
    for n1, m1 in monos:
        for n2, m2 in monos:
            sym = normal_order(
                expand_polynomial(symmetrized_poisson_bracket(mono(n1, m1), mono(n2, m2)))
            )
            comm = commutator_bracket(
                expand_polynomial(mono(n1, m1)), expand_polynomial(mono(n2, m2))
            )
            assert sym == comm


def reordered_difference(f: FreePolynomial, g: FreePolynomial) -> FreePolynomial:
    """Reference route for the commutator: normal order the whole difference
    of the two products, then shift by 1/(i hbar)."""
    return normal_order(f * g - g * f).scale(INV_I_HBAR)


def expanded(x: FreePolynomial | WeylPolynomial) -> FreePolynomial:
    return x if isinstance(x, FreePolynomial) else expand_polynomial(x)


def assert_same_commutator(f, g) -> None:
    """``commutator_bracket`` of free or Weyl operands against the reordered
    difference of their expansions, on value and on printed bytes."""
    actual, expected = commutator_bracket(f, g), reordered_difference(expanded(f), expanded(g))
    assert actual == expected
    assert render_text(actual) == render_text(expected)
    assert render_json(actual) == render_json(expected)


def run_word(*runs: tuple[Letter, int]) -> Word:
    return Word(tuple(letter for letter, r in runs for _ in range(r)))


# Pure q/p operands whose junctions meet long runs, with complex coefficients.
RUN_PAIRS = [
    (
        FreePolynomial(
            [
                (run_word((Q, 2), (P, 6)), HbarScalar.of(Fraction(3, 2), -1)),
                (run_word((P, 3)), HbarScalar.of(0, 2, 1)),
            ]
        ),
        FreePolynomial.from_word(run_word((Q, 5), (P, 2)), HbarScalar.of(-1, 4)),
    ),
    (
        FreePolynomial.from_word(run_word((P, 4), (Q, 3), (P, 5)), HbarScalar.of(0, -1, 2)),
        FreePolynomial(
            [
                (run_word((Q, 6)), HbarScalar.of(2, 1)),
                (run_word((Q, 1), (P, 7)), HbarScalar.of(Fraction(-1, 3), 0, -1)),
            ]
        ),
    ),
]


# Each operand draws up to six terms from a pool of at most three words over
# all five letters, so words repeat and may cancel; the grades run -1..2.
graded_coeffs = st.builds(
    HbarScalar.of, st.integers(-3, 3), st.integers(-2, 2), st.integers(-1, 2)
)
free_words = st.lists(st.sampled_from(list(Letter)), max_size=5).map(lambda ls: Word(tuple(ls)))
free_operands = st.lists(free_words, min_size=1, max_size=3).flatmap(
    lambda pool: st.lists(st.tuples(st.sampled_from(pool), graded_coeffs), max_size=6)
).map(FreePolynomial)


@given(free_operands, free_operands)
@example(FreePolynomial(), q)
@example(FreePolynomial.one(), FreePolynomial())
@example(
    FreePolynomial([(Word.of(Q, RHO, P, P), HbarScalar.of(1, 2, -1)), (IDENTITY_WORD, ONE)]),
    FreePolynomial([(Word.of(P, Q, Q, Letter.DRHO_P), HbarScalar.of(0, 3, 2))] * 2),
)
@example(FreePolynomial.from_letters(Q, RHO, P, P, P), FreePolynomial.from_letters(Q, Q, Q, Q, P))
@example(FreePolynomial.from_letters(*[P] * 5), FreePolynomial.from_letters(*[Q] * 5))
# State letters on both sides of the junction; k runs up to min(b, c) = 3 in
# q rho p^3 . q^4 drho_p p and up to 1 in the other order.
@example(
    FreePolynomial.from_letters(Q, RHO, P, P, P),
    FreePolynomial.from_letters(Q, Q, Q, Q, Letter.DRHO_P, P),
)
@example(
    FreePolynomial.from_letters(Letter.DRHO_Q, P, P, P, P),
    FreePolynomial.from_letters(Q, Q, RHO, Q),
)
@example(
    FreePolynomial(
        [
            (Word.of(RHO, P, P), HbarScalar.of(Fraction(3, 2), -1)),
            (Word.of(Q, Q, Letter.DRHO_P, P, P, P), HbarScalar.of(0, 2, 1)),
        ]
    ),
    FreePolynomial(
        [
            (Word.of(Q, Q, Q, Letter.DRHO_Q, Q, P), HbarScalar.of(-1, 0, -1)),
            (Word.of(P, Q, RHO), HbarScalar.of(Fraction(3, 2), -1)),
        ]
    ),
)
@example(
    FreePolynomial.from_word(Word.of(Q, P, P, P), HbarScalar.of(2, -1, 1)),
    FreePolynomial.from_word(Word.of(Q, Q, RHO, Q), HbarScalar.of(Fraction(-1, 3), 3, -1)),
)
# Long runs at the junction, so core's kernel runs to t = min(b, c) = 5 and 6,
# next to state letters and a term whose b or c is zero.
@example(
    FreePolynomial.from_word(Word.of(*[P] * 6), HbarScalar.of(1, 2)),
    FreePolynomial.from_word(Word.of(*[Q] * 5, RHO, Q, Q), HbarScalar.of(0, 3, -1)),
)
@example(
    FreePolynomial(
        [
            (Word.of(RHO, *[P] * 7), HbarScalar.of(Fraction(-2, 3), 1, 1)),
            (Word.of(Q, Q), HbarScalar.of(0, -1)),
        ]
    ),
    FreePolynomial.from_word(Word.of(*[Q] * 6, Letter.DRHO_Q, P), HbarScalar.of(5, -2, 2)),
)
@example(*RUN_PAIRS[0])
@example(*RUN_PAIRS[1])
def test_commutator_bracket_matches_the_reordered_difference(f, g):
    assert_same_commutator(f, g)


@pytest.mark.parametrize("f, g", RUN_PAIRS)
def test_commutator_bracket_of_long_runs_matches_the_oracle(f, g):
    # The oracle shares no code with the junction kernel.
    comm = commutator_bracket(f, g)
    assert oracle_equal(comm.scale(I_HBAR), f * g - g * f)
    assert not oracle_equal(comm.scale(I_HBAR), f * g)


# The commutator operands of the ordering benchmark: expanded Weyl sums of one
# or two monomials of degree 2 to 7 with both exponents positive.
def weyl_sum(terms) -> FreePolynomial:
    return expand_polynomial(
        WeylPolynomial((WeylMonomial(n, d - n), HbarScalar.real(c)) for c, d, n in terms)
    )


weyl_terms = st.lists(
    st.tuples(
        st.sampled_from([1, -1, Fraction(1, 2), 3, Fraction(-2, 3)]),
        st.integers(2, 7).flatmap(lambda d: st.tuples(st.just(d), st.integers(1, d - 1))),
    ).map(lambda t: (t[0], *t[1])),
    min_size=1,
    max_size=2,
)


@settings(max_examples=20)
@given(weyl_terms, weyl_terms)
@example([(1, 7, 4), (Fraction(-2, 3), 6, 3)], [(3, 6, 3)])
def test_commutator_bracket_of_expanded_weyl_operands(a, b):
    assert_same_commutator(weyl_sum(a), weyl_sum(b))


# Either operand may be free or Weyl; a Weyl operand draws graded coefficients
# and derivative letters, so both routes of normal_form are taken.
weyl_operands = st.lists(
    st.tuples(
        st.integers(0, 4),
        st.integers(0, 4),
        st.sampled_from([None, None, Letter.DRHO_Q, Letter.DRHO_P]),
        graded_coeffs,
    ),
    max_size=3,
).map(lambda terms: WeylPolynomial((WeylMonomial(n, m, d), c) for n, m, d, c in terms))


def assert_same_as_expanded(x, y) -> None:
    actual, expected = commutator_bracket(x, y), commutator_bracket(expanded(x), expanded(y))
    assert actual == expected
    assert render_text(actual) == render_text(expected)


@given(st.one_of(weyl_operands, free_operands), st.one_of(weyl_operands, free_operands))
def test_commutator_bracket_of_either_basis_matches_the_expanded_operands(x, y):
    assert_same_as_expanded(x, y)


def test_commutator_bracket_of_weyl_monomials_matches_the_expanded_operands():
    monomials = [
        mono(n, m, deriv) for n, m, deriv in product(range(4), range(4), (None, Letter.DRHO_P))
    ]
    for x, y in product(monomials, repeat=2):
        assert commutator_bracket(x, y) == commutator_bracket(expanded(x), expanded(y))


# -- commutator over per-coefficient count maps ---------------------------------------


C = HbarScalar.of(Fraction(3, 2), -1)
MINUS_C = HbarScalar.of(Fraction(-3, 2), 1)  # -C, a distinct object
RHO_WORD_OPERAND = FreePolynomial(
    [(Word.of(Q, RHO, P, P), HbarScalar.of(1, 2, -1)), (Word.of(P, Letter.DRHO_Q, Q), ONE)]
)


@pytest.mark.parametrize(
    "x",
    [
        # p q under C and q p under -C meet in the slot of q p.
        FreePolynomial([(Word.of(P, Q), C), (Word.of(Q, P), MINUS_C)]),
        # ... and the C i hbar of p q cancels a third coefficient: the normal
        # form is zero, but every count map is nonzero.
        FreePolynomial(
            [(Word.of(P, Q), C), (Word.of(Q, P), MINUS_C), (IDENTITY_WORD, MINUS_C * I_HBAR)]
        ),
        # Equal-valued distinct objects on words that meet in one slot.
        FreePolynomial(
            [(Word.of(P, Q, Q), HbarScalar.of(2, 1)), (Word.of(Q, P, Q), HbarScalar.of(2, 1))]
        ),
    ],
)
@pytest.mark.parametrize("y", [q, mono(2, 1), RHO_WORD_OPERAND])
def test_commutator_bracket_of_coefficients_that_meet_in_one_slot(x, y):
    assert MINUS_C is not -C and MINUS_C == -C
    assert_same_commutator(x, y)
    assert_same_commutator(y, x)


# c S(q p) expands under c/2, as c S(q o drho_p) does, and 2c S(q^2 p)
# expands under 2c/3, as 4c S(q p drho_q) does: one coefficient value holds
# pure words and derivative-letter words.
SHARED_COEFF_WEYL = WeylPolynomial(
    [
        (WeylMonomial(1, 1), C),
        (WeylMonomial(1, 0, Letter.DRHO_P), C),
        (WeylMonomial(2, 1), C * 2),
        (WeylMonomial(1, 1, Letter.DRHO_Q), C * 4),
    ]
)


@pytest.mark.parametrize(
    "y",
    [
        q,
        mono(3, 2),
        RHO_WORD_OPERAND,
        # Graded coefficients on both sides.
        WeylPolynomial(
            [
                (WeylMonomial(2, 2), HbarScalar.of(0, 3, 2)),
                (WeylMonomial(0, 3), HbarScalar.of(Fraction(-1, 3), 1, -1)),
                (WeylMonomial(1, 2, Letter.DRHO_Q), HbarScalar.of(2, 0, 1)),
            ]
        ),
    ],
)
def test_commutator_bracket_of_pure_and_derivative_terms_under_one_coefficient(y):
    assert len(_normal_form_counts(SHARED_COEFF_WEYL)) == 2
    assert_same_commutator(SHARED_COEFF_WEYL, y)
    assert_same_commutator(y, SHARED_COEFF_WEYL)
    assert_same_commutator(SHARED_COEFF_WEYL.scale(HbarScalar.of(1, -1, 1)), y)


def test_commutator_bracket_of_state_letters_on_both_sides():
    # Junctions meet state letters in the heads and the tails of both operands.
    x = FreePolynomial(
        [
            (Word.of(Q, RHO, P, P, P), HbarScalar.of(1, 1, 1)),
            (Word.of(Letter.DRHO_Q, Q, P, P), HbarScalar.of(0, -2, -1)),
        ]
    )
    y = FreePolynomial(
        [
            (Word.of(Q, Q, RHO, Q, P), HbarScalar.of(Fraction(1, 2), 0, 2)),
            (Word.of(Q, Q, Q, Letter.DRHO_P), HbarScalar.of(-1, 3)),
        ]
    )
    assert_same_commutator(x, y)
    assert_same_commutator(y, x)
    assert_same_commutator(x, SHARED_COEFF_WEYL)


# -- both orders of two pure words at once --------------------------------------------


def pure_word(a: int, b: int) -> Word:
    return run_word((Q, a), (P, b))


G = HbarScalar.of(Fraction(1, 3), 2, -1)


@pytest.mark.parametrize("a, b", list(product(range(5), repeat=2)))
def test_commutator_bracket_of_every_pair_of_short_pure_words(a, b):
    # q^c p^d under G and q^(c+1) p^(d+1) under -G share their junction
    # slots one t apart, and C G and -C G fold into one count map.
    f = FreePolynomial.from_word(pure_word(a, b), C)
    for c, d in product(range(5), repeat=2):
        g = FreePolynomial([(pure_word(c, d), G), (pure_word(c + 1, d + 1), -G)])
        assert_same_commutator(f, g)
        assert_same_commutator(g, f)


def spy(monkeypatch, name: str) -> list:
    calls, kernel = [], getattr(brackets, name)

    def record(counts, *args):
        calls.append(args)
        return kernel(counts, *args)

    monkeypatch.setattr(brackets, name, record)
    return calls


def test_pure_slot_pairs_never_reach_the_general_product(monkeypatch):
    products, pure_pairs = spy(monkeypatch, "_add_product"), spy(monkeypatch, "_add_pure_pair")
    f, g = weyl_sum([(1, 7, 4), (Fraction(-2, 3), 6, 3)]), weyl_sum([(3, 6, 3)])
    assert_same_commutator(f, g)
    assert_same_commutator(mono(4, 3), mono(2, 5).scale(G))
    assert not products and pure_pairs


def test_state_letters_still_take_the_general_product(monkeypatch):
    # The route is chosen once per call. One state letter in either operand
    # sends every slot pair through the general product once per order, the
    # pair of pure words q^2 p and q p^2 included.
    x = FreePolynomial([(pure_word(2, 1), C), (Word.of(Q, RHO, P), C)])
    y = FreePolynomial.from_word(pure_word(1, 2), G)
    products, pure_pairs = spy(monkeypatch, "_add_product"), spy(monkeypatch, "_add_pure_pair")
    assert commutator_bracket(x, y) == reordered_difference(x, y)
    assert (len(products), len(pure_pairs)) == (2 * 2, 0)
    assert ((Q, Q), 1, (Q, P, P), 1, 0) in products
    assert ((Q,), 2, (Q, Q, P), -1, 0) in products
    products.clear()
    # So does a state letter on the right only, as in eq20 and eq21's F and
    # rho: normal(S(q^2 p)) = q^2 p - i hbar q has two slots.
    assert_same_commutator(mono(2, 1), FreePolynomial.from_letters(RHO))
    assert (len(products), len(pure_pairs)) == (2 * 2, 0)
    products.clear()
    # Operands with state letters on both sides take it for every pair.
    x = FreePolynomial([(Word.of(Q, RHO, P, P, P), ONE), (Word.of(Letter.DRHO_Q, Q, P, P), C)])
    y = FreePolynomial([(Word.of(Q, Q, RHO, Q, P), G), (Word.of(Q, Q, Q, Letter.DRHO_P), -G)])
    assert commutator_bracket(x, y) == reordered_difference(x, y)
    assert (len(products), len(pure_pairs)) == (2 * 2 * 2, 0)
    products.clear()
    # Two pure operands never reach it, a free and a Weyl one included.
    assert_same_commutator(FreePolynomial.from_word(pure_word(2, 1), C), mono(1, 2))
    assert (len(products), len(pure_pairs)) == (0, 2)


@pytest.mark.parametrize(
    "a, b",
    [
        ([(1, 2, 1)], [(3, 3, 1)]),
        ([(1, 7, 4), (Fraction(-2, 3), 6, 3)], [(3, 6, 3)]),
        ([(1, 5, 2), (-1, 4, 3)], [(Fraction(1, 2), 6, 4), (3, 3, 2)]),
    ],
)
def test_commutator_bracket_makes_one_product_per_pair_of_coefficients(monkeypatch, a, b):
    f, g = weyl_sum(a), weyl_sum(b)
    expected = reordered_difference(f, g)
    products = []
    mul = HbarScalar.__mul__

    def counting_mul(x, y):
        products.append((x, y))
        return mul(x, y)

    monkeypatch.setattr(HbarScalar, "__mul__", counting_mul)
    result = commutator_bracket(f, g)
    monkeypatch.undo()
    assert result == expected
    # Each pair of source coefficients makes one product; each distinct
    # product is divided by i hbar once.
    pairs = [(x, y) for x, y in products if y is not INV_I_HBAR]
    assert len(pairs) <= len(a) * len(b)
    assert len(products) - len(pairs) <= len(pairs)


@settings(max_examples=20)
@given(weyl_terms, weyl_terms)
@example([(1, 7, 4), (Fraction(-2, 3), 6, 3)], [(3, 6, 3)])
@example([(1, 2, 1), (-1, 3, 2)], [(Fraction(1, 2), 2, 1)])
def test_commutator_bracket_of_expanded_operands_reads_their_record(a, b):
    # Second expansions are listed for the reference, so ``f`` and ``g`` hold
    # only their records.
    listed_f, listed_g = (FreePolynomial(list(weyl_sum(terms).items())) for terms in (a, b))
    expected = commutator_bracket(listed_f, listed_g)
    f, g = weyl_sum(a), weyl_sum(b)

    def refuse_to_split(terms):
        raise AssertionError("a recorded operand was split again")

    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(core, "_split_arrangement_sets", refuse_to_split)
        actual = commutator_bracket(f, g)
    assert actual == expected
    assert render_text(actual) == render_text(expected)
    assert render_json(actual) == render_json(expected)


# -- Leibniz -----------------------------------------------------------------------


def test_leibniz_monomials_match_closed_form():
    for a in [(1, 1), (2, 0), (2, 1)]:
        for b in [(1, 0), (1, 2)]:
            for c in [(0, 1), (2, 2)]:
                report = check_leibniz(mono(*a), mono(*b), mono(*c))
                assert report.equal
                factor = a[0] * (b[1] + c[1]) - a[1] * (b[0] + c[0])
                expected = (
                    mono(a[0] + b[0] + c[0] - 1, a[1] + b[1] + c[1] - 1).scale(factor)
                    if factor
                    else WeylPolynomial.zero()
                )
                assert report.lhs == expected


def test_leibniz_with_constant_first_argument():
    report = check_leibniz(WeylPolynomial.one(), mono(2, 1), mono(1, 1))
    assert report.equal
    assert report.lhs.is_zero


def test_leibniz_fails_for_the_ordinary_product():
    # engine-derived witness, verified against the oracle below:
    # gap = 4 i hbar q p + 2 hbar^2 for f = S(q^2), g = S(p^2), h = q o p
    gap = leibniz_ordinary_product_gap(mono(2, 0), mono(0, 2), mono(1, 1))
    expected = FreePolynomial.from_word(Word.of(Q, P), HbarScalar.of(0, 4, 1)) + (
        FreePolynomial.from_word(IDENTITY_WORD, HbarScalar.of(2, 0, 2))
    )
    assert gap == expected
    assert oracle_equal(gap, expected)


def assert_same_or_same_error(summed, reference) -> None:
    """``summed()`` equals ``reference()``, or raises the error it raises."""
    try:
        expected = reference()
    except UnsupportedFragmentError as exc:
        with pytest.raises(UnsupportedFragmentError, match=f"^{re.escape(str(exc))}$"):
            summed()
        return
    assert summed() == expected


@settings(max_examples=150)
@given(weyl_operands, weyl_operands, weyl_operands)
def test_summed_residuals_match_the_value_routes(f, g, h):
    # The suites sum each residual's outer brackets and products in one term
    # map; the references build every bracket and product as a value.
    bracket, product = symmetrized_poisson_bracket, weyl_product
    inner = [(f, g, h), (g, h, f), (h, f, g)]  # {x, {y, z}} over the cyclic shifts
    cases = [
        (
            lambda: brackets._leibniz(f, g, h, product(g, h), bracket(f, g), bracket(f, h)),
            lambda: check_leibniz(f, g, h).difference,
        ),
        (
            lambda: brackets._bracket_sum(*((x, bracket(y, z)) for x, y, z in inner)),
            lambda: sum((bracket(x, bracket(y, z)) for x, y, z in inner), WeylPolynomial()),
        ),
        (lambda: brackets._bracket_sum((f, g), (g, f)), lambda: bracket(f, g) + bracket(g, f)),
        (lambda: _product_difference(f, g, h, f), lambda: product(f, g) - product(h, f)),
    ]
    for summed, reference in cases:
        assert_same_or_same_error(summed, reference)


# -- anti-commutator form -----------------------------------------------------------


def test_anticommutator_identity_quadratic_potential():
    report = check_anticommutator_identity([0, 0, 1])  # V = q^2
    assert report.equal
    expected = FreePolynomial.from_word(Word.of(Q, Q, P)) - FreePolynomial.from_word(
        Word.of(Q), HbarScalar.of(0, 1, 1)
    )
    assert report.lhs == expected


def test_anticommutator_identity_constant_potential():
    report = check_anticommutator_identity([1])
    assert report.equal
    assert report.lhs == p


def test_anticommutator_identity_random_coefficients():
    rng = random.Random(17)
    pool = [Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(2), Fraction(-1, 3)]
    for _ in range(50):
        coeffs = [rng.choice(pool) for _ in range(rng.randint(1, 7))]
        report = check_anticommutator_identity(coeffs)
        assert report.equal
        assert oracle_equal(report.lhs, report.rhs)


def test_anticommutator_identity_right_side_is_the_normal_order_of_the_expansion():
    pool = [ONE, HbarScalar.of(-2, 1), HbarScalar.of(Fraction(1, 3), 0, 1), HbarScalar.of(0, 5, 2)]
    for length in range(1, 10):
        coeffs = [pool[(3 * i + length) % len(pool)] for i in range(length)]
        weyl = WeylPolynomial((WeylMonomial(n, 1), c) for n, c in enumerate(coeffs))
        rhs = check_anticommutator_identity(coeffs).rhs
        assert rhs == normal_order(expand_polynomial(weyl))


# -- state-derivative substitution ----------------------------------------------------


def test_substitute_momentum_derivative():
    x = FreePolynomial.from_letters(Letter.DRHO_P)
    expected = (q * FreePolynomial.from_letters(RHO) - FreePolynomial.from_letters(RHO) * q).scale(
        INV_I_HBAR
    )
    assert substitute_drho(x) == expected


def test_substitute_coordinate_derivative():
    x = FreePolynomial.from_letters(Letter.DRHO_Q)
    rho = FreePolynomial.from_letters(RHO)
    expected = (p * rho - rho * p).scale(-ONE * INV_I_HBAR)
    assert substitute_drho(x) == expected


def test_substitute_leaves_plain_words_alone():
    x = q * p + FreePolynomial.from_letters(RHO)
    assert substitute_drho(x) == x


def test_substitute_distributes_inside_words():
    x = FreePolynomial.from_letters(Q, Letter.DRHO_P, P)
    rho = FreePolynomial.from_letters(RHO)
    expected = (q * q * rho * p - q * rho * q * p).scale(INV_I_HBAR)
    assert substitute_drho(x) == expected


def _substitute_drho_by_stack(x: FreePolynomial) -> FreePolynomial:
    """Reference: replace the first derivative letter of a word by its two
    commutator words, push both back and rescan them, until none is left."""
    terms = []
    stack = list(x._terms.items())
    while stack:
        (word, grade), coeff = stack.pop()
        for i, letter in enumerate(word.letters):
            if letter in (Letter.DRHO_P, Letter.DRHO_Q):
                head, tail = word.letters[:i], word.letters[i + 1 :]
                other = Q if letter is Letter.DRHO_P else P
                c = coeff * INV_I_HBAR * (ONE if letter is Letter.DRHO_P else -ONE)
                stack.append(((Word(head + (other, RHO) + tail), grade - 1), c))
                stack.append(((Word(head + (RHO, other) + tail), grade - 1), -c))
                break
        else:
            terms.append((word, coeff))
    return FreePolynomial(terms)


def _random_state_word(rng: random.Random) -> Word:
    """0-3 derivative letters among up to 4 q/p/rho letters, at any place,
    so they also stand at either end and next to each other."""
    letters = [rng.choice((Q, P, RHO)) for _ in range(rng.randint(0, 4))]
    for _ in range(rng.choice((0, 1, 1, 2, 3))):
        letters.insert(rng.randint(0, len(letters)), rng.choice((Letter.DRHO_Q, Letter.DRHO_P)))
    return Word(tuple(letters))


def _random_state_polynomial(rng: random.Random) -> FreePolynomial:
    parts = (Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 3), Fraction(-5, 4))
    return FreePolynomial(
        (
            _random_state_word(rng),
            HbarScalar.of(rng.choice(parts[1:]), rng.choice(parts), rng.randint(-1, 2)),
        )
        for _ in range(rng.randint(1, 5))
    )


def test_substitute_matches_the_stack_reference_and_is_multiplicative():
    rng = random.Random(31)
    multi = 0
    for _ in range(600):
        x, y = _random_state_polynomial(rng), _random_state_polynomial(rng)
        multi += sum(
            word.count(Letter.DRHO_Q) + word.count(Letter.DRHO_P) > 1 for word, _ in x.items()
        )
        assert substitute_drho(x) == _substitute_drho_by_stack(x)
        assert substitute_drho(x * y) == substitute_drho(x) * substitute_drho(y)
    assert multi > 100  # words with several derivative letters were drawn


def test_substitute_counts_shared_coefficients_like_the_stack_reference():
    """Every word with 0, 2 or 3 derivative letters among 3 or 4 letters, under
    one coefficient object, under an equal-valued copy or its negative
    taking every other word, and under a coefficient with a second grade."""
    c = HbarScalar.of(Fraction(-2, 3), 1, 1)
    copy = HbarScalar.of(Fraction(-2, 3), 1, 1)
    derivatives = (Letter.DRHO_Q, Letter.DRHO_P)
    words = [
        Word(letters)
        for size in (3, 4)
        for letters in product((Q, P, RHO) + derivatives, repeat=size)
        if sum(letter in derivatives for letter in letters) in (0, 2, 3)
    ]
    for others in (c, copy, -c, HbarScalar.of(1, 0, 2)):
        x = FreePolynomial((w, others if i % 2 else c) for i, w in enumerate(words))
        assert substitute_drho(x) == _substitute_drho_by_stack(x)


def _replacements_by_letter(letters: tuple) -> dict:
    """Reference: each letter's own replacements, ``drho_p -> (q rho - rho
    q)`` and ``drho_q -> -(p rho - rho p)``, multiplied out letter by
    letter; the slot map ``(letters, 0, 0) -> sign``."""
    options = {
        Letter.DRHO_P: [((Q, RHO), 1), ((RHO, Q), -1)],
        Letter.DRHO_Q: [((P, RHO), -1), ((RHO, P), 1)],
    }
    slots = {}
    for choice in product(*(options.get(letter, [((letter,), 1)]) for letter in letters)):
        word, sign = (), 1
        for part, s in choice:
            word, sign = word + part, sign * s
        slots[word, 0, 0] = slots.get((word, 0, 0), 0) + sign
    return slots


def test_the_substitution_memo_equals_a_per_letter_reference():
    memo = brackets._replacements
    derivatives = (Letter.DRHO_Q, Letter.DRHO_P)
    for size in range(6):
        for letters in product((Q, P, RHO) + derivatives, repeat=size):
            if sum(letter in derivatives for letter in letters) > 3:
                continue
            expected = _replacements_by_letter(letters)
            memo(letters)
            hits = memo.cache_info().hits
            assert dict(memo(letters)) == dict(memo.__wrapped__(letters)) == expected, letters
            assert memo.cache_info().hits == hits + 1


def test_the_substitution_memo_keeps_no_large_word_and_holds_its_maxsize():
    memo = brackets._replacements
    memo.cache_clear()
    # (4 + 4) << 4 = 128 letters of replacement words: over the bound
    large = FreePolynomial.from_letters(Letter.DRHO_P, Letter.DRHO_Q, Letter.DRHO_P, Letter.DRHO_Q)
    assert substitute_drho(large) == _substitute_drho_by_stack(large)
    assert memo.cache_info().currsize == 0
    # (3 + 3) << 3 = 48 letters: kept
    substitute_drho(FreePolynomial.from_letters(Letter.DRHO_P, Letter.DRHO_Q, Letter.DRHO_P))
    assert memo.cache_info().currsize == 1
    maxsize = memo.cache_info().maxsize
    words = list(product((Q, P, RHO), repeat=7))
    assert len(words) > maxsize
    for letters in words:
        substitute_drho(FreePolynomial.from_letters(*letters, Letter.DRHO_P))
    assert memo.cache_info().currsize == maxsize


# -- von Neumann equivalence -----------------------------------------------------------


def test_equivalence_for_coordinate():
    report = check_von_neumann_equivalence(mono(1, 0))
    assert report.equal
    rho = FreePolynomial.from_letters(RHO)
    assert report.rhs == normal_order((q * rho - rho * q).scale(INV_I_HBAR))


def test_equivalence_for_q2p2():
    assert check_von_neumann_equivalence(mono(2, 2)).equal


def test_equivalence_for_kinetic_plus_potential():
    for mass in (1, 2, 3):
        hamiltonian = WeylPolynomial.from_monomial(
            WeylMonomial(0, 2), HbarScalar.real(Fraction(1, 2 * mass))
        ) + mono(3, 0).scale(Fraction(1, 2)) + mono(1, 0).scale(-2)
        assert check_von_neumann_equivalence(hamiltonian).equal


def test_equivalence_rejects_derivative_terms():
    with pytest.raises(UnsupportedFragmentError):
        check_von_neumann_equivalence(mono(1, 0, Letter.DRHO_P))


def test_anticommutator_pairing_breaks_equivalence_above_degree_two():
    # Pairing the derivative with the state-derivative letter via the half
    # anti-commutator, instead of averaging over all placements, keeps the
    # equivalence only up to V = q^2; from q^3 on it fails.  This is exactly
    # why the multi-placement average is the right pairing.
    rho = FreePolynomial.from_letters(RHO)
    for n in range(1, 6):
        q_lower = FreePolynomial.from_word(Word.of(*([Q] * (n - 1))))
        dp = FreePolynomial.from_letters(Letter.DRHO_P)
        lhs = normal_order(
            substitute_drho((q_lower * dp + dp * q_lower).scale(Fraction(n, 2)))
        )
        q_n = FreePolynomial.from_word(Word.of(*([Q] * n)))
        rhs = normal_order((q_n * rho - rho * q_n).scale(INV_I_HBAR))
        assert (lhs == rhs) == (n <= 2)
        # the multi-placement pairing holds at every degree
        assert check_von_neumann_equivalence(mono(n, 0)).equal


def test_equivalence_sides_match_the_expanding_routes():
    # The right side takes F's normal form from McCoy's closed form; the
    # reference expands F and normal-orders its commutator with rho.  The
    # left side must stay the expanding route, substituted by the stack.
    rho = FreePolynomial.from_letters(RHO)
    drho_q = WeylPolynomial.from_monomial(WeylMonomial(0, 0, Letter.DRHO_Q))
    drho_p = WeylPolynomial.from_monomial(WeylMonomial(0, 0, Letter.DRHO_P))
    rng = random.Random(37)
    pool = (ONE, HbarScalar.of(-2, 1), HbarScalar.of(Fraction(1, 3)), HbarScalar.of(0, 5, 1))
    monomials = [mono(n, total - n) for total in range(7) for n in range(total + 1)]
    random_fs = [
        WeylPolynomial(
            (WeylMonomial(rng.randint(0, 3), rng.randint(0, 3)), rng.choice(pool))
            for _ in range(rng.randint(2, 4))
        )
        for _ in range(200)
    ]
    for F in monomials + random_fs:
        report = check_von_neumann_equivalence(F)
        f_free = expand_polynomial(F)
        assert report.rhs == normal_order((f_free * rho - rho * f_free).scale(INV_I_HBAR))
        dq, dp = weyl_derivative(F, Q), weyl_derivative(F, P)
        lhs_weyl = weyl_product(dq, drho_p) - weyl_product(drho_q, dp)
        assert report.lhs == normal_order(_substitute_drho_by_stack(expand_polynomial(lhs_weyl)))
        assert report.equal


# -- quantization and the obstruction ---------------------------------------------------


def test_quantize_preserves_exponents():
    assert quantize(cmono(2, 1)) == mono(2, 1)


def test_quantization_intertwines_the_brackets():
    rng = random.Random(23)
    for _ in range(40):
        f = ClassicalPolynomial(
            ((rng.randint(0, 4), rng.randint(0, 4)), HbarScalar.real(rng.choice((1, -1, 2))))
            for _ in range(rng.randint(1, 3))
        )
        g = ClassicalPolynomial(
            ((rng.randint(0, 4), rng.randint(0, 4)), HbarScalar.real(rng.choice((1, Fraction(1, 2)))))
            for _ in range(rng.randint(1, 3))
        )
        assert quantize(poisson_bracket_classical(f, g)) == symmetrized_poisson_bracket(
            quantize(f), quantize(g)
        )


def test_groenewold_pair():
    report = check_obstruction(
        (cmono(3, 0), cmono(0, 3)), (cmono(2, 1), cmono(1, 2))
    )
    assert report.scale == HbarScalar.real(3)
    assert report.classical_bracket == cmono(2, 2, 9)
    assert report.symmetrized_bracket == mono(2, 2).scale(9)
    assert report.symmetrized_difference.is_zero
    # engine-derived: the commutator routes differ by exactly -3 hbar^2
    assert report.commutator_difference == FreePolynomial.from_word(
        IDENTITY_WORD, HbarScalar.of(-3, 0, 2)
    )
    assert report.commutator_min_hbar_power == 2


def test_trivial_pair_shows_no_discrepancy():
    report = check_obstruction(
        (cmono(1, 0), cmono(0, 1)), (cmono(1, 0), cmono(0, 1))
    )
    assert report.symmetrized_difference.is_zero
    assert report.commutator_difference.is_zero
    assert report.symmetrized_bracket == WeylPolynomial.one()


NOT_A_SCALE = "^classical brackets are not related by a scale$"


def test_obstruction_rejects_unrelated_pairs():
    # {q, p} = 1 has no term at the key q of {q^2, p} = 2q.
    with pytest.raises(ValueError, match=NOT_A_SCALE):
        check_obstruction((cmono(1, 0), cmono(0, 1)), (cmono(2, 0), cmono(0, 1)))


def test_obstruction_of_two_zero_classical_brackets_takes_scale_one():
    report = check_obstruction((cmono(1, 0), cmono(2, 0)), (cmono(0, 2), cmono(0, 3)))
    assert report.scale == ONE
    assert report.classical_bracket.is_zero
    assert report.symmetrized_difference.is_zero
    assert report.commutator_difference.is_zero


@pytest.mark.parametrize(
    "pair_a, pair_b",
    [
        ((cmono(1, 0), cmono(1, 0)), (cmono(1, 0), cmono(0, 1))),
        ((cmono(1, 0), cmono(0, 1)), (cmono(1, 0), cmono(1, 0))),
    ],
    ids=["first-zero", "second-zero"],
)
def test_obstruction_rejects_exactly_one_zero_classical_bracket(pair_a, pair_b):
    with pytest.raises(ValueError, match=NOT_A_SCALE):
        check_obstruction(pair_a, pair_b)


def test_obstruction_rejects_brackets_that_share_a_key_but_are_not_proportional():
    # {q^2 + q, p} = 2q + 1 and {q^2 + 3q, p} = 2q + 3: equal at q, not at 1.
    f_a = cmono(2, 0) + cmono(1, 0)
    f_b = cmono(2, 0) + cmono(1, 0, 3)
    assert poisson_bracket_classical(f_a, cmono(0, 1)) == cmono(1, 0, 2) + cmono(0, 0)
    with pytest.raises(ValueError, match=NOT_A_SCALE):
        check_obstruction((f_a, cmono(0, 1)), (f_b, cmono(0, 1)))


# -- Lie algebra laws ----------------------------------------------------------------


def test_antisymmetry_on_monomials():
    for a in [(1, 0), (2, 1), (0, 3)]:
        for b in [(0, 1), (1, 2), (2, 2)]:
            assert symmetrized_poisson_bracket(mono(*a), mono(*b)) == -(
                symmetrized_poisson_bracket(mono(*b), mono(*a))
            )


def test_jacobi_identity_on_monomials():
    monos = [mono(n, m) for n in range(3) for m in range(3)]
    for f in monos:
        for g in monos:
            for h in monos:
                jac = (
                    symmetrized_poisson_bracket(f, symmetrized_poisson_bracket(g, h))
                    + symmetrized_poisson_bracket(g, symmetrized_poisson_bracket(h, f))
                    + symmetrized_poisson_bracket(h, symmetrized_poisson_bracket(f, g))
                )
                assert jac.is_zero
