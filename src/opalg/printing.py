"""Deterministic renderers: surface text, LaTeX, and the JSON wire format.

Text output is valid input for :func:`opalg.parser.parse` and evaluates back
to the same value, with one caveat: a polynomial consisting of scalar
multiples of the identity prints as a bare number (the zero polynomial
prints as ``0``), and numbers parse into the free basis.  Scalars embed
canonically in both bases, so the caveat never changes the operator.

The printer alone orders terms: values keep theirs in construction order,
and every render sorts them once by the key's ``sort_key`` and then the
hbar grade, highest first (leading term first, the identity term last).
Text, LaTeX and JSON read that one list, so their orders always agree.

Text and LaTeX share one term loop (:func:`_render`) and one Weyl body
(:func:`_weyl`), driven by a style record that also holds what differs
between them: the operator that joins a Weyl body's factors and the wrapper
of a lone factor (``" o "`` and ``S(...)`` in text), and the rule for a
leading negative term.  Text must parse back, so it parenthesizes products
and folds the minus into a leading number; LaTeX writes it as a ``- ``
prefix.

:func:`render_json` writes the JSON document itself, in one pass over the
sorted terms, byte for byte what ``json.dumps`` would write with its default
separators.  :func:`result_to_json_dict` parses that document, so the JSON
format has one writer.

A coefficient with more digits than the interpreter converts to a string
(``sys.get_int_max_str_digits()``) cannot be printed in any format; every
renderer reports it as an :class:`UnsupportedFragmentError`.
"""

from __future__ import annotations

import json
import sys
from functools import wraps
from itertools import groupby
from math import gcd
from typing import Callable

from .core import FreePolynomial, Letter, Word
from .errors import UnsupportedFragmentError
from .scalars import HbarScalar
from .terms import TaggedTuple
from .weyl import WeylMonomial, WeylPolynomial, _LETTER_P, _LETTER_Q

Result = FreePolynomial | WeylPolynomial


def _printable(render: Callable) -> Callable:
    """``render`` with a coefficient too long for ``str`` reported as a user
    error instead of the interpreter's ``ValueError``."""

    @wraps(render)
    def checked(x: Result):
        try:
            return render(x)
        except ValueError as exc:
            limit = sys.get_int_max_str_digits()
            message = f"coefficient too long to print (more than {limit} digits)"
            raise UnsupportedFragmentError(message) from exc

    return checked


def _display_terms(x: Result) -> list[tuple[object, HbarScalar]]:
    return sorted(
        x.items(), key=lambda term: (term[0].sort_key, term[1].hbar_power), reverse=True
    )


# -- shared coefficient and word formatting ----------------------------------


# A rational is passed as its reduced ``(num, den)``, ``den > 0``, read from
# the scalar's ints: ``str`` of a ``Fraction`` is ``num`` or ``num/den``.


def _rational(num: int, den: int) -> str:
    return str(num) if den == 1 else f"{num}/{den}"


def _positive_rational(num: int, den: int) -> str:
    return str(num) if den == 1 else f"({num}/{den})"


def _latex_rational(num: int, den: int) -> str:
    if den == 1:
        return str(num)
    sign = "-" if num < 0 else ""
    return rf"{sign}\frac{{{abs(num)}}}{{{den}}}"


def _parts(c: HbarScalar) -> tuple[int, int, int, int]:
    """``re`` and ``im`` of ``c`` as reduced ``(num, den)`` pairs."""
    re, im, den = c._re, c._im, c._den
    g, h = gcd(re, den), gcd(im, den)
    return re // g, den // g, im // h, den // h


class _Style(TaggedTuple):
    """What differs between the text and LaTeX renderings of one term."""

    __slots__ = ()
    _fields = (
        "magnitude",  # (num, den) -> str: a lone coefficient magnitude
        "rational",  # (num, den) -> str: a part of a mixed complex number
        "mixed",  # wrapper around a mixed complex number
        "power",  # base raised to an exponent other than 1
        "hbar",
        "letters",  # Letter -> str
        "circle",  # joins the factors of a Weyl body
        "lone",  # wrapper of a Weyl body's first factor when it has < 2 powers
        "negative",  # list[str] -> str: the parts of a leading negative term
    )

    def raised(self, base: str, exponent: int) -> str:
        return base if exponent == 1 else self.power.format(base, exponent)


_SYMBOLS = {letter: letter.symbol for letter in Letter}


def _coeff_tokens(c: HbarScalar, style: _Style) -> tuple[int, list[str]]:
    """Sign of the term plus its coefficient tokens (magnitude-1 omitted)."""
    tokens: list[str] = []
    re, re_den, im, im_den = _parts(c)
    if re and im:
        sign = 1
        im_body = "i" if im_den == 1 and abs(im) == 1 else f"{style.rational(abs(im), im_den)} i"
        op = "+" if im > 0 else "-"
        tokens.append(style.mixed.format(f"{style.rational(re, re_den)} {op} {im_body}"))
    elif re:
        sign = 1 if re > 0 else -1
        if re_den != 1 or abs(re) != 1:
            tokens.append(style.magnitude(abs(re), re_den))
    else:
        sign = 1 if im > 0 else -1
        if im_den != 1 or abs(im) != 1:
            tokens.append(style.magnitude(abs(im), im_den))
        tokens.append("i")
    if c._power:
        tokens.append(style.raised(style.hbar, c._power))
    return sign, tokens


def _word(word: Word, style: _Style) -> str:
    """Letters in order, each run of one letter written as a power."""
    return " ".join(
        style.raised(style.letters[letter], len(list(run)))
        for letter, run in groupby(word.letters)
    )


def _weyl(key: WeylMonomial, style: _Style) -> str:
    """The q power, the p power and the derivative letter that ``key`` has,
    joined by ``style.circle``; with fewer than two powers the first factor
    is wrapped in ``style.lone``."""
    n, m, deriv, _ = key  # read the layout: a hot path
    letters, raised = style.letters, style.raised
    parts = [raised(letters[_LETTER_Q], n)] if n else []
    if m:
        parts.append(raised(letters[_LETTER_P], m))
    if deriv is not None:
        parts.append(letters[deriv])
    if parts and not (n and m):
        parts[0] = style.lone.format(parts[0])
    return style.circle.join(parts)


# -- what text and LaTeX write differently -------------------------------------


def _negative_text(parts: list[str]) -> str:
    """The minus folds into a leading number, else it is written ``-1``."""
    if parts and parts[0].lstrip("(")[:1].isdigit():  # a magnitude, ``n`` or ``(n/d)``
        return " ".join([f"-{parts[0].strip('()')}"] + parts[1:])
    return " ".join(["-1"] + parts)


_TEXT = _Style(
    magnitude=_positive_rational,
    rational=_rational,
    mixed="({})",
    power="{}^{}",
    hbar="hbar",
    letters=_SYMBOLS,
    circle=" o ",
    lone="S({})",
    negative=_negative_text,
)

_LATEX = _Style(
    magnitude=_latex_rational,
    rational=_latex_rational,
    mixed=r"\left({}\right)",
    power="{}^{{{}}}",
    hbar=r"\hbar",
    letters={
        Letter.Q: r"\hat q",
        Letter.P: r"\hat p",
        Letter.RHO: r"\hat \rho",
        Letter.DRHO_Q: r"\frac{\partial \hat \rho}{\partial \hat q}",
        Letter.DRHO_P: r"\frac{\partial \hat \rho}{\partial \hat p}",
    },
    circle=r" \circ ",
    lone="{}",
    negative=lambda parts: f"- {' '.join(parts) or '1'}",
)


# -- text and LaTeX ------------------------------------------------------------


def _render(x: Result, style: _Style) -> str:
    terms = _display_terms(x)
    if not terms:
        return "0"
    free = isinstance(x, FreePolynomial)
    rendered: list[str] = []
    for key, coeff in terms:
        sign, tokens = _coeff_tokens(coeff, style)
        body = _word(key, style) if free else _weyl(key, style)
        leading = not rendered
        # A coefficient juxtaposed against a symmetric product would mix the
        # two product operators in one term; parenthesize the monomial.
        # Only text writes " o ".
        if " o " in body and (tokens or (leading and sign < 0)):
            body = f"({body})"
        parts = tokens + [body] if body else tokens
        if leading and sign < 0:
            rendered.append(style.negative(parts))
        elif leading:
            rendered.append(" ".join(parts) or "1")
        else:
            rendered.append(f"{'+' if sign > 0 else '-'} {' '.join(parts) or '1'}")
    return " ".join(rendered)


@_printable
def render_text(x: Result) -> str:
    return _render(x, _TEXT)


@_printable
def render_latex(x: Result) -> str:
    return _render(x, _LATEX)


# -- JSON ----------------------------------------------------------------------


# No string of the document needs escaping: each is a letter symbol or a
# rational of ASCII digits, ``/`` and ``-``.

_JSON_SYMBOLS = {letter: f'"{symbol}"' for letter, symbol in _SYMBOLS.items()}


def _json_coeff(c: HbarScalar) -> str:
    re, re_den, im, im_den = _parts(c)
    return f'{{"re": "{_rational(re, re_den)}", "im": "{_rational(im, im_den)}"}}'


@_printable
def render_json(x: Result) -> str:
    free = isinstance(x, FreePolynomial)
    terms = []
    for key, run in groupby(_display_terms(x), key=lambda term: term[0]):
        if free:
            word = f"[{', '.join([_JSON_SYMBOLS[letter] for letter in key.letters])}]"  # type: ignore[union-attr]
        else:
            deriv = _JSON_SYMBOLS[key.deriv] if key.deriv else "null"  # type: ignore[union-attr]
            word = f'{{"n": {key.n}, "m": {key.m}, "deriv": {deriv}}}'  # type: ignore[union-attr]
        grades = ", ".join([f'"{c._power}": {_json_coeff(c)}' for _, c in run])
        terms.append(f'{{"word": {word}, "coeff": {{"hbar_powers": {{{grades}}}}}}}')
    basis = "free" if free else "weyl"
    return f'{{"basis": "{basis}", "terms": [{", ".join(terms)}]}}'


def result_to_json_dict(x: Result) -> dict:
    """The JSON document of ``x`` as Python objects, keys in document order."""
    return json.loads(render_json(x))


# The output formats, in the order that messages list them; the command line
# reads its choices from here.
_RENDERERS = {"text": render_text, "latex": render_latex, "json": render_json}


def render(x: Result, fmt: str = "text") -> str:
    renderer = _RENDERERS.get(fmt)
    if renderer is None:
        raise ValueError(f"unknown format {fmt!r}; expected one of {tuple(_RENDERERS)}")
    return renderer(x)
