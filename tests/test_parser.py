import itertools
import random
import sys
from fractions import Fraction

import pytest

from opalg.core import FreePolynomial, IDENTITY_WORD, Letter, Word
from opalg.errors import EvalError, ParseError
from opalg.parser import (
    BinaryNode,
    CallNode,
    Node,
    PowerNode,
    RationalNode,
    SymbolNode,
    _tokenize,
    evaluate,
    parse,
)
from opalg.printing import render_text
from opalg.scalars import HBAR, I, HbarScalar, I_HBAR
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


@pytest.mark.parametrize(
    "source, message",
    [
        ("S(q, p)", "1:1: S takes 1 argument, got 2"),
        ("dq(q, p)", "1:1: dq takes 1 argument, got 2"),
        ("dp(q, p, q)", "1:1: dp takes 1 argument, got 3"),
        ("normal(q, p)", "1:1: normal takes 1 argument, got 2"),
        ("pb(q)", "1:1: pb takes 2 arguments, got 1"),
        ("q + comm(q, p, q)", "1:5: comm takes 2 arguments, got 3"),
    ],
)
def test_arity_messages(source, message):
    with pytest.raises(ParseError) as excinfo:
        parse(source)
    assert str(excinfo.value) == message


def test_unknown_function_in_a_hand_built_call_is_a_type_error():
    node = CallNode(1, 1, "exp", (SymbolNode(1, 5, "q"),))
    with pytest.raises(TypeError, match="^unknown function 'exp'$"):
        evaluate(node)


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


def test_power_makes_one_product_fewer_than_its_exponent(monkeypatch):
    from opalg import core

    products = []
    multiply = core.multiply

    def counting_multiply(a, b):
        products.append((a, b))
        return multiply(a, b)

    base = ev("q + 2 p")
    monkeypatch.setattr(core, "multiply", counting_multiply)
    powers = [ev(f"(q + 2 p)^{n}") for n in range(5)]
    monkeypatch.undo()
    assert len(products) == 0 + 0 + 1 + 2 + 3
    assert powers[0] == FreePolynomial.one() and powers[1] == base
    for n in range(1, 5):
        assert powers[n] == powers[n - 1] * base
    assert ev("(q + 2 p)^0 p") == ev("p") and ev("2^3") == ev("8")


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


# -- tokenizer -------------------------------------------------------------------


def reference_tokenize(source: str) -> list[tuple[str, str, int, int]]:
    """The tokenizer loop as it was when each token was a dataclass object,
    emitting ``(kind, text, line, column)``: the reference for ``_tokenize``."""
    tokens = []
    line, line_start, i = 1, 0, 0
    while i < len(source):
        ch, j, column = source[i], i + 1, i - line_start + 1
        if ch.isdecimal():
            while j < len(source) and source[j].isdecimal():
                j += 1
            tokens.append(("uint", source[i:j], line, column))
        elif ch.isalpha() or ch == "_":
            while j < len(source) and (source[j].isalnum() or source[j] == "_"):
                j += 1
            kind = "o" if source[i:j] == "o" else "name"
            tokens.append((kind, source[i:j], line, column))
        elif ch in "+-*^/(),∘":
            tokens.append(("o" if ch == "∘" else ch, ch, line, column))
        elif ch == "\n":
            line, line_start = line + 1, j
        elif not ch.isspace():
            raise ParseError(f"unexpected character {ch!r}", line, column)
        i = j
    tokens.append(("eof", "", line, len(source) - line_start + 1))
    return tokens


def _tokens_or_error(tokenize, source: str):
    try:
        return tokenize(source)
    except Exception as exc:  # the error itself is the outcome compared
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None)


# Letters, digits that int() reads and does not read, the ring operator, a
# non-ASCII decimal digit, every operator, and whitespace including newlines.
_TOKEN_ALPHABET = list("qpoSibhar_dx019+-*^/(),") + ["∘", "²", "½", "٣", " ", "\t", "\n", "$"]


def test_tokenizer_matches_the_reference_loop():
    rng = random.Random(2024)
    errors = 0
    for _ in range(4000):
        source = "".join(rng.choice(_TOKEN_ALPHABET) for _ in range(rng.randint(0, 24)))
        expected = _tokens_or_error(reference_tokenize, source)
        assert _tokens_or_error(_tokenize, source) == expected, source
        errors += not isinstance(expected, list)
    assert 0 < errors < 4000  # both outcomes were exercised


# -- AST contract ------------------------------------------------------------------


_FIELDS = {
    SymbolNode: ("name",),
    RationalNode: ("value",),
    BinaryNode: ("op", "left", "right"),
    PowerNode: ("base", "exponent"),
    CallNode: ("func", "args"),
}


def _shape(node):
    """``(class, line, column, *fields)``, with child nodes as shapes."""
    fields = []
    for name in _FIELDS[type(node)]:
        value = getattr(node, name)
        if name == "args":
            value = tuple(_shape(arg) for arg in value)
        elif isinstance(value, Node):
            value = _shape(value)
        fields.append(value)
    return (type(node), node.line, node.column, *fields)


def _nodes(node):
    yield node
    for name in _FIELDS[type(node)]:
        value = getattr(node, name)
        for child in value if name == "args" else (value,):
            if isinstance(child, Node):
                yield from _nodes(child)


AST_TABLE = [
    (
        "q\n  + 2 p",
        (
            BinaryNode, 2, 3, "+",
            (SymbolNode, 1, 1, "q"),
            (BinaryNode, 2, 7, "*", (RationalNode, 2, 5, Fraction(2)), (SymbolNode, 2, 7, "p")),
        ),
    ),
    ("-3/2", (RationalNode, 1, 2, Fraction(-3, 2))),
    ("hbar^-1", (PowerNode, 1, 5, (SymbolNode, 1, 1, "hbar"), -1)),
    ("q ∘ p", (BinaryNode, 1, 3, "o", (SymbolNode, 1, 1, "q"), (SymbolNode, 1, 5, "p"))),
    (
        "pb(comm(q, p), S(q o p))",
        (
            CallNode, 1, 1, "pb",
            (
                (CallNode, 1, 4, "comm", ((SymbolNode, 1, 9, "q"), (SymbolNode, 1, 12, "p"))),
                (
                    CallNode, 1, 16, "S",
                    ((BinaryNode, 1, 20, "o", (SymbolNode, 1, 18, "q"), (SymbolNode, 1, 22, "p")),),
                ),
            ),
        ),
    ),
    (
        "comm(pb(q^2, p),\n     dq(1/2 q p))",
        (
            CallNode, 1, 1, "comm",
            (
                (
                    CallNode, 1, 6, "pb",
                    ((PowerNode, 1, 10, (SymbolNode, 1, 9, "q"), 2), (SymbolNode, 1, 14, "p")),
                ),
                (
                    CallNode, 2, 6, "dq",
                    (
                        (
                            BinaryNode, 2, 15, "*",
                            (
                                BinaryNode, 2, 13, "*",
                                (RationalNode, 2, 9, Fraction(1, 2)),
                                (SymbolNode, 2, 13, "q"),
                            ),
                            (SymbolNode, 2, 15, "p"),
                        ),
                    ),
                ),
            ),
        ),
    ),
]


@pytest.mark.parametrize("source, shape", AST_TABLE, ids=[row[0] for row in AST_TABLE])
def test_ast_nodes_are_pinned(source, shape):
    node = parse(source)
    assert _shape(node) == shape
    for each in _nodes(node):
        assert isinstance(each, Node)
        for name in ("line", "column", *_FIELDS[type(each)], "extra"):
            with pytest.raises(AttributeError):
                setattr(each, name, None)


def test_node_classes_are_nodes():
    assert all(issubclass(cls, Node) for cls in _FIELDS)


# -- shared leaf values -------------------------------------------------------------


def test_evaluation_leaves_symbol_values_unchanged():
    public = {
        "q": FreePolynomial.from_letters(Q),
        "p": FreePolynomial.from_letters(P),
        "rho": FreePolynomial.from_letters(Letter.RHO),
        "drho_q": FreePolynomial.from_letters(Letter.DRHO_Q),
        "drho_p": FreePolynomial.from_letters(Letter.DRHO_P),
        "hbar": FreePolynomial.from_word(IDENTITY_WORD, HBAR),
        "i": FreePolynomial.from_word(IDENTITY_WORD, I),
    }
    leaves = {name: evaluate(parse(name)) for name in public}
    before = {name: dict(leaf._terms) for name, leaf in leaves.items()}
    assert ev("q + p - q") == public["p"]
    assert ev("q q") == FreePolynomial.from_letters(Q, Q)
    assert ev("2 q + q") == public["q"].scale(3)
    assert ev("i hbar + i") == FreePolynomial([(IDENTITY_WORD, I_HBAR), (IDENTITY_WORD, I)])
    for name, leaf in leaves.items():
        assert leaf == public[name]
        assert leaf._terms == before[name]
        assert evaluate(parse(name)) == public[name]


RATIONAL_LEAVES = [
    ("0", 0), ("0/7", 0), ("3", 3), ("2/4", Fraction(1, 2)), ("-3/2", Fraction(-3, 2))
]


@pytest.mark.parametrize("source, value", RATIONAL_LEAVES, ids=[row[0] for row in RATIONAL_LEAVES])
def test_rational_leaves_equal_their_public_build(source, value):
    leaf = ev(source)
    rebuilt = FreePolynomial([(IDENTITY_WORD, HbarScalar.real(value))])
    assert leaf == rebuilt
    assert leaf._terms == rebuilt._terms
    assert bool(leaf._terms) == bool(value)


# -- literals past the interpreter's digit limit ----------------------------------


INT_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
LONG = "1" * (INT_DIGIT_LIMIT + 1)


@pytest.mark.skipif(not INT_DIGIT_LIMIT, reason="int() reads literals of any length here")
@pytest.mark.parametrize(
    "source, column",
    [(LONG, 1), (f"-{LONG}", 2), (f"q^{LONG}", 3), (f"q^-{LONG}", 4), (f"1/{LONG}", 3)],
    ids=["integer", "negative", "exponent", "negative exponent", "denominator"],
)
def test_too_long_literal_is_a_parse_error_at_the_literal(source, column):
    with pytest.raises(ParseError) as excinfo:
        parse(f"q +\n{source}")
    assert (excinfo.value.line, excinfo.value.column) == (2, column)
    digits = f"({INT_DIGIT_LIMIT + 1} > {INT_DIGIT_LIMIT} digits)"
    assert str(excinfo.value) == f"2:{column}: integer literal too long {digits}"
