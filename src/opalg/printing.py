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

Text and LaTeX share one coefficient and one word formatter, driven by a
style record.  Weyl-monomial bodies and leading-sign rules stay separate:
text must parse back, so it parenthesizes products and folds in the minus.

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
from .weyl import WeylMonomial, WeylPolynomial

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
    )

    def raised(self, base: str, exponent: int) -> str:
        return base if exponent == 1 else self.power.format(base, exponent)


_SYMBOLS = {letter: letter.symbol for letter in Letter}

_TEXT = _Style(
    magnitude=_positive_rational,
    rational=_rational,
    mixed="({})",
    power="{}^{}",
    hbar="hbar",
    letters=_SYMBOLS,
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
)


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


# -- text --------------------------------------------------------------------


def _weyl_monomial_text(m: WeylMonomial) -> str:
    if m.n and m.m:
        text = f"{_TEXT.raised('q', m.n)} o {_TEXT.raised('p', m.m)}"
        return f"{text} o {m.deriv.symbol}" if m.deriv else text
    if m.n or m.m:
        inner = _TEXT.raised("q", m.n) if m.n else _TEXT.raised("p", m.m)
        text = f"S({inner})"
        return f"{text} o {m.deriv.symbol}" if m.deriv else text
    return f"S({m.deriv.symbol})" if m.deriv else ""


@_printable
def render_text(x: Result) -> str:
    terms = _display_terms(x)
    if not terms:
        return "0"
    free = isinstance(x, FreePolynomial)
    rendered: list[str] = []
    for index, (key, coeff) in enumerate(terms):
        sign, tokens = _coeff_tokens(coeff, _TEXT)
        body = _word(key, _TEXT) if free else _weyl_monomial_text(key)  # type: ignore[arg-type]
        leading = index == 0
        # A coefficient juxtaposed against a symmetric product would mix the
        # two product operators in one term; parenthesize the monomial.
        if " o " in body and (tokens or (leading and sign < 0)):
            body = f"({body})"
        parts = tokens + ([body] if body else [])
        if leading:
            if sign < 0:
                if parts and (parts[0][0].isdigit() or parts[0].startswith("(") and parts[0][1].isdigit()):
                    head = parts[0][1:-1] if parts[0].startswith("(") else parts[0]
                    parts = [f"-{head}"] + parts[1:]
                else:
                    parts = ["-1"] + parts
            rendered.append(" ".join(parts) if parts else ("1" if sign > 0 else "-1"))
        else:
            joiner = "+" if sign > 0 else "-"
            rendered.append(f"{joiner} {' '.join(parts) if parts else '1'}")
    return " ".join(rendered)


# -- LaTeX ---------------------------------------------------------------------


def _latex_weyl_monomial(m: WeylMonomial) -> str:
    parts: list[str] = []
    if m.n:
        parts.append(_LATEX.raised(_LATEX.letters[Letter.Q], m.n))
    if m.m:
        parts.append(_LATEX.raised(_LATEX.letters[Letter.P], m.m))
    if m.deriv:
        parts.append(_LATEX.letters[m.deriv])
    return r" \circ ".join(parts)


@_printable
def render_latex(x: Result) -> str:
    terms = _display_terms(x)
    if not terms:
        return "0"
    free = isinstance(x, FreePolynomial)
    out: list[str] = []
    for index, (key, coeff) in enumerate(terms):
        sign, tokens = _coeff_tokens(coeff, _LATEX)
        body = _word(key, _LATEX) if free else _latex_weyl_monomial(key)  # type: ignore[arg-type]
        parts = tokens + ([body] if body else [])
        text = " ".join(parts) if parts else "1"
        if index == 0:
            out.append(f"- {text}" if sign < 0 else text)
        else:
            out.append(f"{'+' if sign > 0 else '-'} {text}")
    return " ".join(out)


# -- JSON ----------------------------------------------------------------------


@_printable
def result_to_json_dict(x: Result) -> dict:
    free = isinstance(x, FreePolynomial)
    terms = []
    for key, run in groupby(_display_terms(x), key=lambda term: term[0]):
        if free:
            word_json: object = [_SYMBOLS[ltr] for ltr in key.letters]  # type: ignore[union-attr]
        else:
            word_json = {
                "n": key.n,  # type: ignore[union-attr]
                "m": key.m,  # type: ignore[union-attr]
                "deriv": _SYMBOLS[key.deriv] if key.deriv else None,  # type: ignore[union-attr]
            }
        terms.append(
            {
                "word": word_json,
                "coeff": {
                    "hbar_powers": {
                        str(c._power): _json_coeff(c) for _, c in run
                    }
                },
            }
        )
    return {"basis": "free" if free else "weyl", "terms": terms}


def _json_coeff(c: HbarScalar) -> dict[str, str]:
    re, re_den, im, im_den = _parts(c)
    return {"re": _rational(re, re_den), "im": _rational(im, im_den)}


def render_json(x: Result) -> str:
    return json.dumps(result_to_json_dict(x))


# The output formats, in the order that messages list them; the command line
# reads its choices from here.
_RENDERERS = {"text": render_text, "latex": render_latex, "json": render_json}


def render(x: Result, fmt: str = "text") -> str:
    renderer = _RENDERERS.get(fmt)
    if renderer is None:
        raise ValueError(f"unknown format {fmt!r}; expected one of {tuple(_RENDERERS)}")
    return renderer(x)
