import itertools
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from opalg import core, oracle
from opalg.core import FreePolynomial, IDENTITY_WORD, Letter, Word, normal_order
from opalg.errors import UnsupportedFragmentError
from opalg.oracle import oracle_equal
from opalg.scalars import HBAR, HbarScalar, I_HBAR, ONE, _make
from opalg.terms import GradedTerms, linear_map
from opalg.weyl import WeylMonomial, expand

Q, P = Letter.Q, Letter.P
q = FreePolynomial.from_letters(Q)
p = FreePolynomial.from_letters(P)


# The per-letter reference acts on this carrier: a polynomial in x, keyed
# by degree, with graded coefficients.
class Degrees(GradedTerms):
    __slots__ = ()


def x_power(degree: int, coeff: HbarScalar = ONE) -> Degrees:
    return Degrees([(degree, coeff)])


def images(op: FreePolynomial, degrees) -> dict[int, Degrees]:
    """The kernel's images of ``x**j`` under ``op``, one carrier per ``j``,
    rebuilt from each group's sums at ``(j, j + rise, grade + k)``."""
    degrees = list(degrees)
    den, groups = oracle._groups((op._terms, 1))
    pairs = {j: [] for j in degrees}
    for (rise, grade), members in groups.items():
        for j, re, im in oracle._sums(members, max(degrees, default=-1)):
            if j in pairs:
                pairs[j].append((j + rise, _make(re, im, den, grade)))
    return {j: Degrees(terms) for j, terms in pairs.items()}


def test_p_on_constant():
    pq = FreePolynomial.from_word(Word.of(P, Q))
    assert images(pq, [0]) == {0: x_power(0, HbarScalar.of(0, -1, 1))}


def test_ccr_acts_as_i_hbar():
    commutator = q * p - p * q
    for j, image in images(commutator, range(9)).items():
        assert image == x_power(j, I_HBAR)


# A word maps x**j to c x**d or to zero, so the image of a b is c times a's
# image of x**d.
def test_representation_is_a_homomorphism():
    rng = random.Random(5)
    for _ in range(20):
        a = FreePolynomial.from_word(
            Word.of(*(rng.choice((Q, P)) for _ in range(rng.randint(0, 5))))
        )
        b = FreePolynomial.from_word(
            Word.of(*(rng.choice((Q, P)) for _ in range(rng.randint(0, 5))))
        )
        j = rng.randint(0, 4)
        expected = Degrees()
        for d, c in images(b, [j])[j].items():  # one term, or none
            expected = images(a, [d])[d].scale(c)
        assert images(a * b, [j])[j] == expected


def test_representation_respects_the_relation():
    rng = random.Random(11)
    for _ in range(30):
        word = Word.of(*(rng.choice((Q, P)) for _ in range(rng.randint(0, 7))))
        x = FreePolynomial.from_word(word)
        assert images(normal_order(x), range(9)) == images(x, range(9))


def test_half_anticommutator_equals_rewritten_form():
    lhs = (q * p + p * q).scale(Fraction(1, 2))
    rhs = q * p - FreePolynomial.from_word(IDENTITY_WORD, HbarScalar.of(0, Fraction(1, 2), 1))
    assert oracle_equal(lhs, rhs)


def test_qp_vs_pq_differ():
    assert not oracle_equal(q * p, p * q)


def test_symmetric_expansion_equals_its_normal_form():
    expansion = expand(WeylMonomial(2, 2))
    assert oracle_equal(expansion, normal_order(expansion))


def test_state_words_are_rejected():
    message = r"^the polynomial representation acts on q/p words only$"
    with pytest.raises(UnsupportedFragmentError, match=message):
        images(FreePolynomial.from_letters(Letter.RHO), [0])
    drho_p = FreePolynomial.from_letters(Letter.DRHO_P)
    # Both operands act on x**0 first, so a state word raises even where the
    # q/p parts already differ there (1 against q), and where it appears in
    # both operands and would cancel from their difference.
    pairs = [(q, drho_p), (drho_p, q), (FreePolynomial.one(), q + drho_p), (q + drho_p, drho_p + q)]
    for a, b in pairs:
        with pytest.raises(UnsupportedFragmentError, match=message):
            oracle_equal(a, b)


# The kernel reads every word before any degree, so a state word raises
# even where p annihilates x**0 first, and with no degree to act on.
def test_state_words_raise_whatever_they_act_on():
    message = r"^the polynomial representation acts on q/p words only$"
    rho_p = FreePolynomial.from_letters(Letter.RHO, P)
    drho_q = FreePolynomial.from_letters(Letter.DRHO_Q)
    for op in (rho_p, drho_q, q + rho_p):
        for degrees in ([0], []):
            with pytest.raises(UnsupportedFragmentError, match=message):
                images(op, degrees)


# Reference: the per-letter route, one linear map per letter.
MINUS_I_HBAR = HbarScalar.of(0, -1, 1)


def times_x(f: Degrees) -> Degrees:
    return linear_map(f, lambda degree: [(degree + 1, 1)])


def differentiate(f: Degrees) -> Degrees:
    return linear_map(f, lambda degree: [(degree - 1, degree)] if degree else ())


def apply_by_letters(op: FreePolynomial, f: Degrees) -> Degrees:
    result = Degrees()
    for word, coeff in op.items():
        g = f
        for letter in reversed(word.letters):
            g = times_x(g) if letter is Q else differentiate(g).scale(MINUS_I_HBAR)
        result = result + g.scale(coeff)
    return result


def assert_images_match_the_per_letter_route(op: FreePolynomial, degrees) -> None:
    for j, image in images(op, degrees).items():
        assert image == apply_by_letters(op, x_power(j)), (str(op), j)


# The degrees of the test functions x**0 and 1 + x**2 + x**3 + x**5 + x**8.
TEST_DEGREES = [0, 2, 3, 5, 8]


@pytest.mark.parametrize("length", range(9))
def test_word_action_matches_the_per_letter_route(length):
    coeffs = itertools.cycle([ONE, HbarScalar.of(-2, 1), HbarScalar.of(0, 1, 1)])
    words = [Word(letters) for letters in itertools.product((Q, P), repeat=length)]
    for word in words:
        assert_images_match_the_per_letter_route(
            FreePolynomial.from_word(word, HbarScalar.of(3, -1, 1)), TEST_DEGREES
        )
    assert_images_match_the_per_letter_route(FreePolynomial(zip(words, coeffs)), TEST_DEGREES)


def run_word(*runs: tuple[Letter, int]) -> Word:
    return Word(tuple(letter for letter, r in runs for _ in range(r)))


# A run of r p's acts as one falling factorial; the degrees reach past the
# longest run, below which it annihilates x**j.
@pytest.mark.parametrize("r", range(1, 13))
def test_p_runs_match_the_per_letter_route(r):
    words = [
        run_word((P, r)),
        run_word((Q, 2), (P, r)),
        run_word((P, r), (Q, 3)),
        run_word((Q, 1), (P, r), (Q, r), (P, 2)),
        run_word((P, 2), (Q, 1), (P, r), (Q, 2), (P, 1)),
    ]
    degrees = sorted(set(TEST_DEGREES) | {r - 1, r, r + 3})
    coeff = HbarScalar.of(Fraction(-2, 3), 1, 1)
    for word in words:
        op = FreePolynomial.from_word(word, coeff)
        assert_images_match_the_per_letter_route(op, degrees)
        other = normal_order(op)
        assert oracle_equal(op, other) and oracle_by_letters(op, other)
        other = other + p_power(len(word), HBAR)
        assert not oracle_equal(op, other) and not oracle_by_letters(op, other)


def test_verdict_matches_normal_form_equality():
    rng = random.Random(42)
    for _ in range(100):
        words = [
            Word.of(*(rng.choice((Q, P)) for _ in range(rng.randint(0, 8))))
            for _ in range(4)
        ]
        a = FreePolynomial((w, ONE) for w in words[:2])
        b = normal_order(a) if rng.random() < 0.5 else FreePolynomial(
            (w, ONE) for w in words[2:]
        )
        assert oracle_equal(a, b) == (normal_order(a) == normal_order(b))


# -- edge cases: verdicts against the per-letter route and the normal form --


def oracle_by_letters(a: FreePolynomial, b: FreePolynomial) -> bool:
    """The same decision through the per-letter route, one test degree at a time."""
    degree = max(a.max_word_length, b.max_word_length) + 1
    return all(
        apply_by_letters(a, x_power(j)) == apply_by_letters(b, x_power(j))
        for j in range(degree + 1)
    )


def letters(text: str) -> FreePolynomial:
    return FreePolynomial.from_letters(*(Q if ch == "q" else P for ch in text))


def p_power(length: int, coeff: HbarScalar = ONE) -> FreePolynomial:
    return FreePolynomial.from_word(Word.of(*[P] * length), coeff)


ZERO_OP = FreePolynomial.zero()
GRADED = [ONE, HbarScalar.of(Fraction(-2, 3), 1), HbarScalar.of(0, 5, 2), HbarScalar.of(3, -1, 1)]


def edge_pairs():
    # Words annihilated mid-walk: p^3 meets x**1 after one q on x**0.
    for text in ("qpppqpp", "pqpp", "qqpppp", "ppqq", "pqqpqp"):
        word = letters(text)
        yield word, normal_order(word)
        yield word, normal_order(word) + letters("p" * len(text))
    # hbar p^L acts as zero below x**L, so it shows only at the last test degrees.
    for text, c in zip(("qpppqpp", "pqpqpqqp", "ppppqqqq"), GRADED):
        word = letters(text).scale(c)
        yield word, normal_order(word) + p_power(len(text), HBAR)
        yield word, normal_order(word) + p_power(len(text), HBAR) - p_power(len(text), HBAR)
    # Zero operands, and operators that vanish.
    yield ZERO_OP, ZERO_OP
    yield ZERO_OP, letters("p")
    yield letters("qp") - letters("pq"), ZERO_OP
    yield letters("qp") - letters("pq") - FreePolynomial.one().scale(I_HBAR), ZERO_OP
    # Graded and complex coefficients, including c against -c.
    for c in GRADED:
        yield letters("qp").scale(c) + letters("pq").scale(-c), FreePolynomial.one().scale(c * I_HBAR)
        yield letters("qp").scale(c) - letters("pq").scale(c), FreePolynomial.one().scale(-c * I_HBAR)
        yield letters("qpqp").scale(c) + letters("qpqp").scale(-c), ZERO_OP
        yield letters("pqp").scale(c) + letters("ppq").scale(-c), letters("p").scale(c * I_HBAR)
        yield letters("pqp").scale(c), letters("ppq").scale(c)


@pytest.mark.parametrize("a, b", list(edge_pairs()))
def test_edge_case_verdicts_match_the_per_letter_route_and_the_normal_form(a, b):
    expected = normal_order(a) == normal_order(b)
    assert oracle_equal(a, b) == oracle_by_letters(a, b) == expected
    assert oracle_equal(b, a) == expected


# Mixed denominators, complex parts and hbar grades, over words that both
# operands draw from, so the common denominator and the negation of the
# second operand decide every verdict.
MIXED = [
    HbarScalar.of(Fraction(1, 2)),
    HbarScalar.of(Fraction(-2, 3), Fraction(1, 5), 1),
    HbarScalar.of(0, Fraction(3, 4), 2),
    HbarScalar.of(7, -1),
    HbarScalar.of(Fraction(5, 6), 0, 1),
    HbarScalar.of(-1, Fraction(1, 7)),
]
shared_words = st.lists(
    st.lists(st.sampled_from([Q, P]), max_size=5).map(lambda ls: Word(tuple(ls))),
    min_size=1,
    max_size=4,
)


@given(st.data())
def test_verdicts_over_shared_words_and_mixed_coefficients_match_the_normal_form(data):
    words = data.draw(shared_words)
    operands = st.lists(st.tuples(st.sampled_from(words), st.sampled_from(MIXED)), max_size=4)
    a, d, e = (FreePolynomial(data.draw(operands)) for _ in range(3))
    base = normal_order(a) if data.draw(st.booleans()) else a
    b = base + d - (d if data.draw(st.booleans()) else e)
    expected = normal_order(a) == normal_order(b)
    assert oracle_equal(a, b) == expected
    assert oracle_equal(b, a) == expected


def test_test_degrees_run_to_the_longest_word(monkeypatch):
    seen = []
    sums = oracle._sums

    def recording(members, top):
        seen.append(top)
        return sums(members, top)

    monkeypatch.setattr(oracle, "_sums", recording)
    oracle_equal(letters("qpppqpp"), letters("qp"))
    assert seen == [7]


# p^L annihilates x^0 .. x^(L-1), so only the test degree L tells it from zero.
@pytest.mark.parametrize("length", range(9))
def test_the_longest_word_length_is_a_needed_test_degree(length):
    for c in (ONE, HbarScalar.of(Fraction(-2, 3), 1), HBAR):
        assert not oracle_equal(p_power(length, c), ZERO_OP)
        assert not oracle_equal(ZERO_OP, p_power(length, c))
    word = FreePolynomial.from_word(Word.of(*((Q, P) * length)[:length]))
    assert not oracle_equal(word, word + p_power(length, HBAR))
    assert not oracle_equal(word + p_power(length, HBAR), word)


# A = 1 - (i/hbar) q p - (1/(2 hbar^2)) q^2 p^2 is one group, rise 0 and
# grade + k 0, whose members first act at x**0, x**1 and x**2.  It
# annihilates x**1 and x**2 but not x**0, so a group's sums must start at
# its lowest member's first degree, not at any later one.
def test_a_group_is_summed_from_its_lowest_member():
    a = (
        FreePolynomial.one()
        + letters("qp").scale(HbarScalar.of(0, -1, -1))
        + letters("qqpp").scale(HbarScalar.of(Fraction(-1, 2), 0, -2))
    )
    assert images(a, range(3)) == {0: x_power(0), 1: Degrees(), 2: Degrees()}
    assert not oracle_equal(a, ZERO_OP)
    assert not oracle_equal(ZERO_OP, a)


# c hbar^t q^(a-t) p^(b-t), a and b the q- and p-counts of w, has w's rise
# and w's grade + k, so a perturbation by it shows only through the sums
# of w's own group.
@pytest.mark.parametrize("length", range(8))
def test_a_perturbation_inside_the_word_s_own_group_is_seen(length):
    parts = itertools.cycle([(1, 0), (Fraction(-2, 3), 0), (0, Fraction(5, 2))])
    for word_letters in itertools.product((Q, P), repeat=length):
        word = FreePolynomial.from_word(Word(word_letters))
        normal = normal_order(word)
        assert oracle_equal(word, normal) and oracle_equal(normal, word)
        a, b = word_letters.count(Q), word_letters.count(P)
        for t in range(min(a, b) + 1):
            shifted = letters("q" * (a - t) + "p" * (b - t)).scale(HbarScalar.of(*next(parts), t))
            assert not oracle_equal(word, normal + shifted)
            assert not oracle_equal(normal + shifted, word)


def test_the_oracle_never_calls_normal_order(monkeypatch):
    cases = [(a, b, normal_order(a) == normal_order(b)) for a, b in edge_pairs()]
    rng = random.Random(17)
    for _ in range(30):
        a = FreePolynomial(
            (Word.of(*(rng.choice((Q, P)) for _ in range(rng.randint(0, 6)))), rng.choice(GRADED))
            for _ in range(3)
        )
        b = normal_order(a) if rng.random() < 0.5 else a + p_power(6, HBAR)
        cases.append((a, b, normal_order(a) == normal_order(b)))

    def refuse(x):
        raise AssertionError("the oracle called normal_order")

    for name, module in list(sys.modules.items()):
        if name.startswith("opalg") and getattr(module, "normal_order", None) is core.normal_order:
            monkeypatch.setattr(module, "normal_order", refuse)
    with pytest.raises(AssertionError):
        core.normal_order(q)
    for a, b, expected in cases:
        assert oracle_equal(a, b) == expected
