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
* The basis rules of ``*``, ``^`` and ``+``/``-``: a power is always free; a
  scalar factor or summand (a number times its basis's unit) takes the other
  operand's basis, so that of two scalars a product takes the right factor's
  basis and a sum the Weyl one; any other mix of free and Weyl goes free.

Every product of two values is one :func:`_times`, every expansion one
:func:`_as_free`, and every run of ``+``/``-`` links adds into one copied
slot map.
"""

from __future__ import annotations

import sys
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
from .scalars import HBAR, HbarScalar, I
from .terms import TaggedTuple, bilinear, sum_into
from .weyl import (
    WeylPolynomial,
    expand_polynomial,
    normal_form,
    symmetrize,
    weyl_derivative,
    weyl_product,
)

Result = FreePolynomial | WeylPolynomial


# -- tokens ----------------------------------------------------------------

# An operator token's kind is its character; the ring operator's is "o".
_NAME = "name"
_UINT = "uint"
_EOF = "eof"

Token = tuple[str, str, int, int]  # (kind, text, line, column)


def _tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    line, line_start, i, end = 1, 0, 0, len(source)
    while i < end:
        ch, j, column = source[i], i + 1, i - line_start + 1
        if ch.isdecimal():
            while j < end and source[j].isdecimal():
                j += 1
            tokens.append((_UINT, source[i:j], line, column))
        elif ch.isalpha() or ch == "_":
            while j < end and (source[j].isalnum() or source[j] == "_"):
                j += 1
            text = source[i:j]
            tokens.append(("o" if text == "o" else _NAME, text, line, column))
        elif ch in "+-*^/(),∘":  # the ring operator is a synonym for "o"
            tokens.append(("o" if ch == "∘" else ch, ch, line, column))
        elif ch == "\n":
            line, line_start = line + 1, j
        elif not ch.isspace():
            raise ParseError(f"unexpected character {ch!r}", line, column)
        i = j
    tokens.append((_EOF, "", line, end - line_start + 1))
    return tokens


def _int(token: Token) -> int:
    """The value of an integer token.  ``int`` refuses a literal longer than
    ``sys.get_int_max_str_digits()``; that is a ParseError at the literal."""
    _, text, line, column = token
    try:
        return int(text)
    except ValueError as exc:
        size, limit = len(text), sys.get_int_max_str_digits()
        message = f"integer literal too long ({size} > {limit} digits)"
        raise ParseError(message, line, column) from exc


# -- AST -------------------------------------------------------------------


class Node(TaggedTuple):
    """An AST node at a source position.

    Stored as the tuple of its fields followed by its class, the tagged-tuple
    form of the term keys (:class:`~opalg.terms.TaggedTuple`): the tag keeps
    nodes of different classes unequal, while hashing and ``==`` stay
    tuple's.  Read it through the fields."""

    __slots__ = ()
    _fields = ("line", "column")


class SymbolNode(Node):
    __slots__ = ()
    _fields = Node._fields + ("name",)

    def __new__(cls, line: int, column: int, name: str) -> SymbolNode:
        return tuple.__new__(cls, (line, column, name, cls))


class RationalNode(Node):
    __slots__ = ()
    _fields = Node._fields + ("value",)

    def __new__(cls, line: int, column: int, value: Fraction) -> RationalNode:
        return tuple.__new__(cls, (line, column, value, cls))


class BinaryNode(Node):
    __slots__ = ()
    _fields = Node._fields + ("op", "left", "right")  # op: "+", "-", "*" (also juxtaposition), "o"

    def __new__(cls, line: int, column: int, op: str, left: Node, right: Node) -> BinaryNode:
        return tuple.__new__(cls, (line, column, op, left, right, cls))


class PowerNode(Node):
    __slots__ = ()
    _fields = Node._fields + ("base", "exponent")

    def __new__(cls, line: int, column: int, base: Node, exponent: int) -> PowerNode:
        return tuple.__new__(cls, (line, column, base, exponent, cls))


class CallNode(Node):
    __slots__ = ()
    _fields = Node._fields + ("func", "args")

    def __new__(cls, line: int, column: int, func: str, args: tuple[Node, ...]) -> CallNode:
        return tuple.__new__(cls, (line, column, func, args, cls))


class _Parser:
    """Recursive descent over the token list, read at ``self.pos``."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def expect(self, kind: str, what: str) -> Token:
        token = self.tokens[self.pos]
        if token[0] != kind:
            _, text, line, column = token
            raise ParseError(
                f"expected {what}, found {text!r}" if text else f"expected {what}", line, column
            )
        self.pos += 1
        return token

    def parse(self) -> Node:
        node = self.expr()
        kind, text, line, column = self.tokens[self.pos]
        if kind != _EOF:
            raise ParseError(f"unexpected {text!r}", line, column)
        return node

    def expr(self) -> Node:
        node = self.term()
        while True:
            kind, _, line, column = self.tokens[self.pos]
            if kind != "+" and kind != "-":
                return node
            self.pos += 1
            node = BinaryNode(line, column, kind, node, self.term())

    def term(self) -> Node:
        node = self.factor()
        first = None  # the first product operator; the other may not follow
        while True:
            kind, _, line, column = self.tokens[self.pos]
            if kind == "*" or kind == "o":
                self.pos += 1
                op = kind
            elif kind == _NAME or kind == _UINT or kind == "(":
                op = "*"  # juxtaposition
            else:
                return node
            first = first or op
            if op != first:
                raise ParseError(
                    "ambiguous mix of '*' and 'o' in one term; add parentheses", line, column
                )
            node = BinaryNode(line, column, op, node, self.factor())

    def factor(self) -> Node:
        node = self.atom()
        kind, _, line, column = self.tokens[self.pos]
        if kind != "^":
            return node
        self.pos += 1
        sign = 1
        if self.tokens[self.pos][0] == "-":
            self.pos += 1
            sign = -1
        exponent = _int(self.expect(_UINT, "an integer exponent"))
        return PowerNode(line, column, node, sign * exponent)

    def atom(self) -> Node:
        token = self.tokens[self.pos]
        kind, text, line, column = token
        self.pos += 1
        if kind == _NAME:
            if text in _SYMBOL_VALUES:
                return SymbolNode(line, column, text)
            if text in _FUNCTIONS:
                return self._call(token)
            raise ParseError(f"unknown symbol {text!r}", line, column)
        if kind == _UINT:
            return self._rational(token, 1)
        if kind == "-":
            return self._rational(self.expect(_UINT, "a number after '-'"), -1)
        if kind == "(":
            node = self.expr()
            self.expect(")", "')'")
            return node
        raise ParseError(
            f"unexpected {text!r}" if text else "unexpected end of input", line, column
        )

    def _rational(self, number: Token, sign: int) -> RationalNode:
        numerator, denominator = sign * _int(number), 1
        if self.tokens[self.pos][0] == "/":
            self.pos += 1
            token = self.expect(_UINT, "a denominator")
            denominator = _int(token)
            if not denominator:
                raise ParseError("zero denominator", token[2], token[3])
        return RationalNode(number[2], number[3], Fraction(numerator, denominator))

    def _call(self, func: Token) -> CallNode:
        self.expect("(", "'(' after function name")
        args = [self.expr()]
        while self.tokens[self.pos][0] == ",":
            self.pos += 1
            args.append(self.expr())
        self.expect(")", "')'")
        _, name, line, column = func
        arity = _FUNCTIONS[name][0]
        if len(args) != arity:
            raise ParseError(
                f"{name} takes {arity} argument{'s' if arity > 1 else ''}, got {len(args)}",
                line,
                column,
            )
        return CallNode(line, column, name, tuple(args))


def parse(source: str) -> Node:
    """Parse ``source`` into an AST, or raise :class:`ParseError`."""
    return _Parser(_tokenize(source)).parse()


# -- evaluation --------------------------------------------------------------


# The grammar's symbols and their values, built once at import and shared by
# every leaf that names one.  Evaluation never writes into an operand's term
# map: a run of sums copies its first operand's map before adding into it.
_SYMBOL_VALUES = {
    **{symbol: FreePolynomial.from_letters(letter) for symbol, letter in LETTER_BY_SYMBOL.items()},
    "hbar": FreePolynomial.from_word(IDENTITY_WORD, HBAR),
    "i": FreePolynomial.from_word(IDENTITY_WORD, I),
}


def _is_scalar(value: Result) -> bool:
    """Whether ``value`` is a number times its basis's unit, as ``0`` and ``hbar/2`` are."""
    # A plain loop: ``_times`` asks this up to twice per product and power
    # step, and ``all()`` over a generator cost about 4% of evaluating the
    # eval_stream expressions.
    for key, _ in value._terms:
        if key != value._unit:
            return False
    return True


def _times(a: Result, b: Result) -> Result:
    """The ordinary product ``a b``, the evaluator's only product of two
    values: a scalar factor rescales the other in the other's basis, any
    other pair multiplies as free values."""
    if _is_scalar(a):
        a, b = b, a  # the scalar rescales the other factor
    elif not _is_scalar(b):
        return _as_free(a) * _as_free(b)
    return bilinear(a, b, lambda key, _: (key, 1))


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


def _one_basis(a: Result, b: Result) -> tuple[Result, Result]:
    """The summands ``a``, ``b`` of one free and one Weyl value in one
    basis: a free scalar joins the Weyl basis, any other mix goes free."""
    if isinstance(a, FreePolynomial) and _is_scalar(a):
        return _times(a, WeylPolynomial.one()), b
    if isinstance(b, FreePolynomial) and _is_scalar(b):
        return a, _times(b, WeylPolynomial.one())
    return _as_free(a), _as_free(b)


def evaluate(node: Node) -> Result:
    """Evaluate an AST into a free or Weyl polynomial."""
    kind = type(node)
    if kind is SymbolNode:
        return _SYMBOL_VALUES[node.name]
    if kind is RationalNode:
        value = node.value
        return FreePolynomial._of({(IDENTITY_WORD, 0): HbarScalar.real(value)} if value else {})
    if kind is BinaryNode:
        # Along the left spine in a loop, left operand first, so that a long
        # sum or product does not recurse once per operator.
        spine = []
        while type(node) is BinaryNode:
            spine.append(node)
            node = node.left
        value = evaluate(node)
        run = None  # the slot map that a run of same-type sum links adds into
        for link in reversed(spine):
            if link.op == "o":
                value = _weyl_pair(weyl_product, link, value, link.left, link.right)
            elif link.op == "*":
                value = _times(value, evaluate(link.right))
            else:
                b = evaluate(link.right)
                if link.op == "-":
                    b = -b
                if type(b) is not type(value):
                    value, b = _one_basis(value, b)
                # One copy of the map per run of same-type links, summed into
                # in place, keeps a long sum linear in its term count.
                if value._terms is not run:
                    run = dict(value._terms)
                    value = value._of(run)
                sum_into(run, b._terms.items())
        return value
    if kind is PowerNode:
        if node.exponent < 0:
            if type(node.base) is SymbolNode and node.base.name == "hbar":
                return FreePolynomial.from_word(
                    IDENTITY_WORD, HbarScalar.of(1, 0, node.exponent)
                )
            raise EvalError(
                "negative exponents are supported on hbar only", node.line, node.column
            )
        base = _as_free(evaluate(node.base))
        result = base if node.exponent else FreePolynomial.one()
        for _ in range(node.exponent - 1):
            result = _times(result, base)
        return result
    if kind is CallNode:
        function = _FUNCTIONS.get(node.func)
        if function is None:
            raise TypeError(f"unknown function {node.func!r}")
        return function[1](node)
    raise TypeError(f"unknown AST node {type(node).__name__}")


def _weyl_pair(op, node: Node, a: Result, left: Node, right: Node) -> WeylPolynomial:
    """``op`` of two Weyl operands, guarded at ``node``: ``a``, the value of
    ``left``, symmetrized at ``left``, then ``right`` evaluated and
    symmetrized at ``right``.  The one operand step of ``o`` and ``pb``; its
    order decides which error a doubly bad input reports."""
    return _guarded(op, node, _as_weyl(a, left), _as_weyl(evaluate(right), right))


def _pb(node: CallNode) -> Result:
    return _weyl_pair(symmetrized_poisson_bracket, node, evaluate(node.args[0]), *node.args)


def _derivative(node: CallNode, wrt: Letter) -> Result:
    value = evaluate(node.args[0])
    if isinstance(value, WeylPolynomial):
        return weyl_derivative(value, wrt)
    return partial_derivative(value, wrt)


# The grammar's functions: name -> (arity, evaluator of a CallNode).  The
# evaluators look up what they call when they run, so that rebinding a module
# global (as the benchmark's tracer does) reaches them.
_FUNCTIONS = {
    "S": (1, lambda node: _as_weyl(evaluate(node.args[0]), node)),
    "dq": (1, lambda node: _derivative(node, Letter.Q)),
    "dp": (1, lambda node: _derivative(node, Letter.P)),
    "normal": (1, lambda node: normal_form(evaluate(node.args[0]))),
    "pb": (2, _pb),
    "comm": (2, lambda node: commutator_bracket(evaluate(node.args[0]), evaluate(node.args[1]))),
}
