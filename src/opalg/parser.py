"""Surface syntax: lexer, AST, recursive-descent parser, and evaluator.

Grammar::

    expr     := term (("+" | "-") term)*
    term     := factor (("*" | "o" | juxtaposition)? factor)*
    factor   := atom ("^" ["-"] UINT)?
    atom     := "q" | "p" | "rho" | "drho_q" | "drho_p" | "hbar" | "i"
              | RATIONAL | FUNC "(" expr ("," expr)? ")" | "(" expr ")"
    FUNC     := "S" | "pb" | "comm" | "dq" | "dp" | "normal"
    RATIONAL := ["-"] UINT ["/" UINT]

Juxtaposition is the ordinary product; ``o`` (or the unicode ring operator)
is the symmetric product.  ``^`` binds tighter than products, products bind
tighter than ``+``/``-``; both product operators are left-associative and
may not be mixed at one level without parentheses.  A negative exponent is
accepted on ``hbar`` only, so that bracket prefactors of grade -1 survive a
print/parse round trip.

Evaluation produces either a free polynomial or a Weyl polynomial:

* ``o`` and ``pb`` are Weyl-context operations; free operands pass through
  the symmetrizer first.
* ``comm`` and ``normal`` are free-context: each brings its operands to
  normal form through :func:`~opalg.weyl.normal_form`, which takes a Weyl
  value with no derivative letter straight from its exponents (McCoy's
  closed form) and expands one that carries a derivative letter.
* ``S`` symmetrizes a free operand and leaves a Weyl operand unchanged.
* ``dq``/``dp`` differentiate within the operand's own basis.
* Mixed sums and ordinary products preserve operator meaning: a pure scalar
  operand rescales the other side in place, any other Weyl operand is
  expanded to its free form first.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .brackets import commutator_bracket, symmetrized_poisson_bracket
from .core import (
    FreePolynomial,
    IDENTITY_WORD,
    LETTER_BY_SYMBOL,
    Letter,
    partial_derivative,
)
from .errors import EvalError, ParseError, UnsupportedFragmentError
from .scalars import HBAR, HbarScalar, I, ONE
from .terms import bilinear, sum_into
from .weyl import (
    WeylPolynomial,
    expand_polynomial,
    normal_form,
    symmetrize,
    weyl_derivative,
    weyl_product,
)

Result = FreePolynomial | WeylPolynomial

_SYMBOL_NAMES = ("q", "p", "rho", "drho_q", "drho_p", "hbar", "i")
_FUNC_ARITY = {"S": 1, "dq": 1, "dp": 1, "normal": 1, "pb": 2, "comm": 2}


# -- tokens ----------------------------------------------------------------

_NAME = "name"
_UINT = "uint"
_PLUS = "+"
_MINUS = "-"
_STAR = "*"
_CIRC = "o"
_CARET = "^"
_SLASH = "/"
_LPAREN = "("
_RPAREN = ")"
_COMMA = ","
_EOF = "eof"


@dataclass(frozen=True, slots=True)
class Token:
    kind: str
    text: str
    line: int
    column: int


def _tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    line, line_start, i = 1, 0, 0
    while i < len(source):
        ch, j, column = source[i], i + 1, i - line_start + 1
        if ch.isdecimal():
            while j < len(source) and source[j].isdecimal():
                j += 1
            tokens.append(Token(_UINT, source[i:j], line, column))
        elif ch.isalpha() or ch == "_":
            while j < len(source) and (source[j].isalnum() or source[j] == "_"):
                j += 1
            kind = _CIRC if source[i:j] == "o" else _NAME
            tokens.append(Token(kind, source[i:j], line, column))
        elif ch in "+-*^/(),∘":  # the ring operator is a synonym for "o"
            tokens.append(Token(_CIRC if ch == "∘" else ch, ch, line, column))
        elif ch == "\n":
            line, line_start = line + 1, j
        elif not ch.isspace():
            raise ParseError(f"unexpected character {ch!r}", line, column)
        i = j
    tokens.append(Token(_EOF, "", line, len(source) - line_start + 1))
    return tokens


# -- AST -------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Node:
    line: int
    column: int


@dataclass(frozen=True, slots=True)
class SymbolNode(Node):
    name: str


@dataclass(frozen=True, slots=True)
class RationalNode(Node):
    value: Fraction


@dataclass(frozen=True, slots=True)
class BinaryNode(Node):
    op: str  # "+", "-", "*" (also juxtaposition) or "o"
    left: Node
    right: Node


@dataclass(frozen=True, slots=True)
class PowerNode(Node):
    base: Node
    exponent: int


@dataclass(frozen=True, slots=True)
class CallNode(Node):
    func: str
    args: tuple[Node, ...]


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect(self, kind: str, what: str) -> Token:
        token = self.peek()
        if token.kind != kind:
            raise ParseError(
                f"expected {what}, found {token.text!r}" if token.text else f"expected {what}",
                token.line,
                token.column,
            )
        return self.advance()

    def parse(self) -> Node:
        node = self.expr()
        token = self.peek()
        if token.kind != _EOF:
            raise ParseError(f"unexpected {token.text!r}", token.line, token.column)
        return node

    def expr(self) -> Node:
        node = self.term()
        while self.peek().kind in (_PLUS, _MINUS):
            op = self.advance()
            node = BinaryNode(op.line, op.column, op.kind, node, self.term())
        return node

    def term(self) -> Node:
        node = self.factor()
        seen: set[str] = set()
        while True:
            token = self.peek()
            if token.kind in (_STAR, _CIRC):
                op = self.advance().kind
            elif token.kind in (_NAME, _UINT, _LPAREN):
                op = _STAR  # juxtaposition
            else:
                return node
            seen.add(op)
            if len(seen) > 1:
                raise ParseError(
                    "ambiguous mix of '*' and 'o' in one term; add parentheses",
                    token.line,
                    token.column,
                )
            node = BinaryNode(token.line, token.column, op, node, self.factor())

    def factor(self) -> Node:
        node = self.atom()
        if self.peek().kind == _CARET:
            caret = self.advance()
            sign = 1
            if self.peek().kind == _MINUS:
                self.advance()
                sign = -1
            exponent = self.expect(_UINT, "an integer exponent")
            node = PowerNode(caret.line, caret.column, node, sign * int(exponent.text))
        return node

    def atom(self) -> Node:
        token = self.peek()
        if token.kind == _MINUS:
            self.advance()
            number = self.expect(_UINT, "a number after '-'")
            return self._rational(number, negative=True)
        if token.kind == _UINT:
            self.advance()
            return self._rational(token, negative=False)
        if token.kind == _LPAREN:
            self.advance()
            node = self.expr()
            self.expect(_RPAREN, "')'")
            return node
        if token.kind == _NAME:
            self.advance()
            if token.text in _FUNC_ARITY:
                return self._call(token)
            if token.text in _SYMBOL_NAMES:
                return SymbolNode(token.line, token.column, token.text)
            raise ParseError(f"unknown symbol {token.text!r}", token.line, token.column)
        raise ParseError(
            f"unexpected {token.text!r}" if token.text else "unexpected end of input",
            token.line,
            token.column,
        )

    def _rational(self, number: Token, negative: bool) -> RationalNode:
        value = Fraction(int(number.text))
        if self.peek().kind == _SLASH:
            self.advance()
            denom = self.expect(_UINT, "a denominator")
            if int(denom.text) == 0:
                raise ParseError("zero denominator", denom.line, denom.column)
            value /= int(denom.text)
        return RationalNode(number.line, number.column, -value if negative else value)

    def _call(self, func: Token) -> CallNode:
        self.expect(_LPAREN, "'(' after function name")
        args = [self.expr()]
        while self.peek().kind == _COMMA:
            self.advance()
            args.append(self.expr())
        self.expect(_RPAREN, "')'")
        arity = _FUNC_ARITY[func.text]
        if len(args) != arity:
            raise ParseError(
                f"{func.text} takes {arity} argument{'s' if arity > 1 else ''}, got {len(args)}",
                func.line,
                func.column,
            )
        return CallNode(func.line, func.column, func.text, tuple(args))


def parse(source: str) -> Node:
    """Parse ``source`` into an AST, or raise :class:`ParseError`."""
    return _Parser(_tokenize(source)).parse()


# -- evaluation --------------------------------------------------------------


def _is_scalar(value: Result) -> bool:
    if isinstance(value, FreePolynomial):
        return all(not word.letters for word, _ in value._terms)
    return all(not (m.n or m.m) and m.deriv is None for m, _ in value._terms)


def _scale_by_scalar(scalar: Result, target: Result) -> Result:
    return bilinear(target, scalar, lambda key, _: (key, 1))


def _as_free(value: Result) -> FreePolynomial:
    if isinstance(value, FreePolynomial):
        return value
    return expand_polynomial(value)


def _as_weyl(value: Result, node: Node) -> WeylPolynomial:
    if isinstance(value, WeylPolynomial):
        return value
    return _guarded(symmetrize, node, value)


def _guarded(func, node: Node, *args):
    try:
        return func(*args)
    except UnsupportedFragmentError as exc:
        raise EvalError(str(exc), node.line, node.column) from exc


def _mixed_sum(a: Result, b: Result) -> Result:
    """``a + b`` for one free and one Weyl value."""
    free, weyl = (a, b) if isinstance(a, FreePolynomial) else (b, a)
    if _is_scalar(free):
        converted = _scale_by_scalar(free, WeylPolynomial.one())
        return converted + weyl if free is a else weyl + converted  # type: ignore[operator]
    return _as_free(a) + _as_free(b)


def evaluate(node: Node) -> Result:
    """Evaluate an AST into a free or Weyl polynomial."""
    if isinstance(node, SymbolNode):
        if node.name == "hbar":
            return FreePolynomial.from_word(IDENTITY_WORD, HBAR)
        if node.name == "i":
            return FreePolynomial.from_word(IDENTITY_WORD, I)
        return FreePolynomial.from_letters(LETTER_BY_SYMBOL[node.name])
    if isinstance(node, RationalNode):
        return FreePolynomial.from_word(IDENTITY_WORD, ONE * node.value)
    if isinstance(node, BinaryNode):
        # Along the left spine in a loop, left operand first, so that a long
        # sum or product does not recurse once per operator.
        spine = []
        while isinstance(node, BinaryNode):
            spine.append(node)
            node = node.left
        value = evaluate(node)
        run = None  # the slot map that a run of same-type sum links adds into
        for link in reversed(spine):
            if link.op == _CIRC:
                a = _as_weyl(value, link.left)
                b = _as_weyl(evaluate(link.right), link.right)
                value = _guarded(weyl_product, link, a, b)
            elif link.op == _STAR:
                b = evaluate(link.right)
                if _is_scalar(value):
                    value = _scale_by_scalar(value, b)
                elif _is_scalar(b):
                    value = _scale_by_scalar(b, value)
                else:
                    value = _as_free(value) * _as_free(b)
            else:
                b = evaluate(link.right)
                if link.op == _MINUS:
                    b = -b
                if type(b) is not type(value):
                    value = _mixed_sum(value, b)
                    continue
                # One copy of the map per run of same-type links, summed into
                # in place, keeps a long sum linear in its term count.
                if value._terms is not run:
                    run = dict(value._terms)
                    value = value._of(run)
                sum_into(run, b._terms.items())
        return value
    if isinstance(node, PowerNode):
        if node.exponent < 0:
            if isinstance(node.base, SymbolNode) and node.base.name == "hbar":
                return FreePolynomial.from_word(
                    IDENTITY_WORD, HbarScalar.of(1, 0, node.exponent)
                )
            raise EvalError(
                "negative exponents are supported on hbar only", node.line, node.column
            )
        base = _as_free(evaluate(node.base))
        result = FreePolynomial.one()
        for _ in range(node.exponent):
            result = result * base
        return result
    if isinstance(node, CallNode):
        return _call(node)
    raise TypeError(f"unknown AST node {type(node).__name__}")


def _call(node: CallNode) -> Result:
    if node.func == "S":
        return _as_weyl(evaluate(node.args[0]), node)
    if node.func == "pb":
        a = _as_weyl(evaluate(node.args[0]), node.args[0])
        b = _as_weyl(evaluate(node.args[1]), node.args[1])
        return _guarded(symmetrized_poisson_bracket, node, a, b)
    if node.func == "comm":
        return commutator_bracket(evaluate(node.args[0]), evaluate(node.args[1]))
    if node.func == "normal":
        return normal_form(evaluate(node.args[0]))
    if node.func in ("dq", "dp"):
        wrt = Letter.Q if node.func == "dq" else Letter.P
        value = evaluate(node.args[0])
        if isinstance(value, WeylPolynomial):
            return weyl_derivative(value, wrt)
        return partial_derivative(value, wrt)
    raise TypeError(f"unknown function {node.func!r}")
