import itertools
import random
from fractions import Fraction

import pytest

from opalg.core import FreePolynomial, IDENTITY_WORD, Letter, Word
from opalg.errors import EvalError, ParseError
from opalg.parser import (
    BinaryNode,
    CallNode,
    PowerNode,
    SymbolNode,
    evaluate,
    parse,
)
from opalg.printing import render_text
from opalg.scalars import HbarScalar, I_HBAR
from opalg.terms import GradedTerms
from opalg.weyl import WeylMonomial, WeylPolynomial, expand_polynomial

Q, P = Letter.Q, Letter.P


def ev(source: str):
    return evaluate(parse(source))


# -- grammar -------------------------------------------------------------------


def test_explicit_product_ast():
    node = parse("q^2 * p")
    assert isinstance(node, BinaryNode) and node.op == "*"
    assert isinstance(node.left, PowerNode)
    assert isinstance(node.right, SymbolNode)


def test_call_ast():
    node = parse("S(q p q p)")
    assert isinstance(node, CallNode)
    assert node.func == "S"
    assert len(node.args) == 1


def test_bracket_call_parses():
    node = parse("pb(q^3, p^3)")
    assert isinstance(node, CallNode)
    assert node.func == "pb"
    assert len(node.args) == 2


def test_juxtaposition_is_ordinary_product():
    assert ev("q p") == ev("q * p")


def test_precedence_power_binds_tightest():
    assert ev("q^2 p") == ev("(q^2) p")
    assert ev("2 q + p") == ev("(2 q) + p")


def test_rational_literals():
    half_q = ev("1/2 q")
    assert half_q == FreePolynomial.from_word(Word.of(Q), HbarScalar.real(Fraction(1, 2)))
    assert ev("-3/2") == FreePolynomial.from_word(
        IDENTITY_WORD, HbarScalar.real(Fraction(-3, 2))
    )
    assert ev("3 - 2") == FreePolynomial.from_word(IDENTITY_WORD, HbarScalar.real(1))


def test_unicode_ring_operator():
    assert ev("q ∘ p") == ev("q o p")


def test_mixed_products_are_ambiguous():
    with pytest.raises(ParseError) as excinfo:
        parse("q o p * q")
    assert "parenthes" in str(excinfo.value)
    # parenthesized forms are fine
    ev("(q o p) * q")
    ev("q o (p * q)")


def test_arity_errors():
    with pytest.raises(ParseError):
        parse("pb(q)")
    with pytest.raises(ParseError):
        parse("S(q, p)")


def test_lexical_error_has_position():
    with pytest.raises(ParseError) as excinfo:
        parse("q + $")
    assert excinfo.value.line == 1
    assert excinfo.value.column == 5


def test_syntax_errors():
    for bad in ["q +", "(q", "q )", "3/0", "foo(q)", "q^", "^2", "q^2^3"]:
        with pytest.raises(ParseError):
            parse(bad)


# -- evaluation -----------------------------------------------------------------


def test_symbols_evaluate_to_generators():
    assert ev("q") == FreePolynomial.from_letters(Q)
    assert ev("hbar") == FreePolynomial.from_word(IDENTITY_WORD, HbarScalar.of(1, 0, 1))
    assert ev("i hbar") == FreePolynomial.from_word(IDENTITY_WORD, I_HBAR)
    assert ev("1") == FreePolynomial.one()


def test_commutator_applies_prefactor():
    assert ev("comm(q, p)") == FreePolynomial.one()
    assert ev("comm(q^2, p)") == FreePolynomial.from_letters(Q).scale(2)


def test_normal_of_pq():
    assert ev("normal(p q)") == ev("q p - i hbar")


def test_symmetrizer_returns_weyl_values():
    result = ev("S(q^2 p^2)")
    assert isinstance(result, WeylPolynomial)
    assert result == WeylPolynomial.from_monomial(WeylMonomial(2, 2))


def test_s_is_idempotent_from_the_surface():
    assert ev("S(S(q p))") == ev("S(q p)")


def test_bracket_example():
    assert ev("pb(q^2 o p, q o p^2)") == WeylPolynomial.from_monomial(
        WeylMonomial(2, 2)
    ).scale(3)
    assert ev("pb(q, p)") == WeylPolynomial.one()


def test_two_step_product_from_the_surface():
    assert ev("S(S(q^2 * p) * S(q * p^2))") == ev("(q^2 o p) o (q o p^2)")


def test_derivatives_respect_basis():
    assert ev("dq(q^2)") == ev("2 q")
    assert isinstance(ev("dq(S(q^2 p^2))"), WeylPolynomial)
    assert ev("dq(S(q^2 p^2))") == WeylPolynomial.from_monomial(WeylMonomial(1, 2)).scale(2)


def test_scalar_products_preserve_the_weyl_basis():
    result = ev("3 (q^2 o p^2)")
    assert isinstance(result, WeylPolynomial)
    assert result == WeylPolynomial.from_monomial(WeylMonomial(2, 2)).scale(3)


def test_scalar_sums_preserve_the_weyl_basis():
    result = ev("q o p + 1")
    assert isinstance(result, WeylPolynomial)
    assert result == WeylPolynomial.from_monomial(WeylMonomial(1, 1)) + WeylPolynomial.one()
    assert ev("q - q + S(q)") == WeylPolynomial.from_monomial(WeylMonomial(1, 0))


def test_mixed_sum_expands_to_free_form():
    result = ev("S(q p) + q")
    assert isinstance(result, FreePolynomial)
    assert result == expand_polynomial(ev("S(q p)")) + FreePolynomial.from_letters(Q)


def test_ordinary_product_of_weyl_values_expands():
    result = ev("S(q p) * S(q p)")
    assert isinstance(result, FreePolynomial)
    expanded = expand_polynomial(ev("S(q p)"))
    assert result == expanded * expanded


def test_negative_hbar_exponent():
    assert ev("hbar^-1") == FreePolynomial.from_word(
        IDENTITY_WORD, HbarScalar.of(1, 0, -1)
    )
    with pytest.raises(EvalError):
        ev("q^-1")


def test_evaluation_errors_carry_positions():
    with pytest.raises(EvalError) as excinfo:
        ev("S(rho)")
    assert excinfo.value.line == 1
    with pytest.raises(EvalError):
        ev("S(drho_q drho_p)")
    with pytest.raises(EvalError):
        ev("(q o drho_q) o (p o drho_p)")


# -- round trip ------------------------------------------------------------------


def _random_free(rng) -> FreePolynomial:
    return FreePolynomial(
        (
            Word.of(*(rng.choice((Q, P, Letter.RHO)) for _ in range(rng.randint(0, 5)))),
            HbarScalar.of(
                Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-2, 2)), rng.randint(-1, 2)
            ),
        )
        for _ in range(rng.randint(1, 4))
    )


def _random_weyl(rng) -> WeylPolynomial:
    return WeylPolynomial(
        (
            WeylMonomial(
                rng.randint(0, 4),
                rng.randint(0, 4),
                rng.choice((None, None, Letter.DRHO_Q, Letter.DRHO_P)),
            ),
            HbarScalar.of(Fraction(rng.randint(-4, 4), rng.randint(1, 3)), rng.randint(-2, 2)),
        )
        for _ in range(rng.randint(1, 4))
    )


def test_round_trip_on_random_values():
    rng = random.Random(31)
    for _ in range(120):
        x = _random_free(rng) if rng.random() < 0.5 else _random_weyl(rng)
        if x.is_zero:
            continue
        rendered = render_text(x)
        again = ev(rendered)
        if isinstance(x, WeylPolynomial) and isinstance(again, FreePolynomial):
            # pure scalars print as bare numbers and re-enter in the free basis
            assert all(mono == WeylMonomial(0, 0) for mono, _ in x.items())
            again = WeylPolynomial(
                (WeylMonomial(0, 0), coeff) for _, coeff in again.items()
            )
        assert again == x


def test_a_long_sum_copies_linearly_many_terms(monkeypatch):
    copied = 0
    add = GradedTerms.__add__

    def counting_add(self, other):
        nonlocal copied
        copied += len(self._terms)
        return add(self, other)

    monkeypatch.setattr(GradedTerms, "__add__", counting_add)
    words = [" ".join(letters) for letters in itertools.product("qp", repeat=11)][:2000]
    source = "".join(f" {'-' if i % 3 else '+'} {w}" for i, w in enumerate(words))
    assert len(ev(source[3:])) == 2000
    assert copied <= 2 * 2000


def test_printed_text_of_a_4096_term_power_reads_back():
    x = ev("(q+p)^12")
    assert ev(render_text(x)) == x


def test_round_trip_of_engine_results():
    sources = [
        "normal(p^2 q^2)",
        "comm(q rho, p)",
        "pb(q^3, p^3)",
        "S(q^2) o drho_p",
        "normal(S(q^2 p^2)) - q^2 p^2",
    ]
    for source in sources:
        x = ev(source)
        assert ev(render_text(x)) == x
