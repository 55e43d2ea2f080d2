"""Deterministic renderers: surface text, LaTeX, and the JSON wire format.

Text output is valid input for :func:`opalg.parser.parse` and evaluates back
to the same value, with one caveat: a polynomial consisting of scalar
multiples of the identity prints as a bare number (the zero polynomial
prints as ``0``), and numbers parse into the free basis.  Scalars embed
canonically in both bases, so the caveat never changes the operator.

Terms print from the highest canonical key down (leading term first, the
identity term last), grades within a key from the highest down.

Text and LaTeX share one coefficient and one word formatter, driven by a
style record.  Weyl-monomial bodies and leading-sign rules stay separate:
text must parse back, so it parenthesizes products and folds in the minus.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from typing import Callable

from .core import FreePolynomial, Letter, Word
from .scalars import HbarScalar
from .weyl import WeylMonomial, WeylPolynomial

Result = FreePolynomial | WeylPolynomial

_FORMATS = ("text", "latex", "json")


def render(x: Result, fmt: str = "text") -> str:
    if fmt == "text":
        return render_text(x)
    if fmt == "latex":
        return render_latex(x)
    if fmt == "json":
        return render_json(x)
    raise ValueError(f"unknown format {fmt!r}; expected one of {_FORMATS}")


def _display_terms(x: Result) -> list[tuple[object, HbarScalar]]:
    return list(x.items())[::-1]


# -- shared coefficient and word formatting ----------------------------------


def _positive_rational(value: Fraction) -> str:
    return str(value) if value.denominator == 1 else f"({value})"


def _latex_rational(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value)
    sign = "-" if value < 0 else ""
    return rf"{sign}\frac{{{abs(value.numerator)}}}{{{value.denominator}}}"


@dataclass(frozen=True)
class _Style:
    """What differs between the text and LaTeX renderings of one term."""

    magnitude: Callable[[Fraction], str]  # a lone coefficient magnitude
    rational: Callable[[Fraction], str]  # a part of a mixed complex number
    mixed: str  # wrapper around a mixed complex number
    power: str  # base raised to an exponent other than 1
    hbar: str
    letters: dict[Letter, str]

    def raised(self, base: str, exponent: int) -> str:
        return base if exponent == 1 else self.power.format(base, exponent)


_TEXT = _Style(
    magnitude=_positive_rational,
    rational=str,
    mixed="({})",
    power="{}^{}",
    hbar="hbar",
    letters={letter: letter.symbol for letter in Letter},
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
    if c.re and c.im:
        sign = 1
        im_body = "i" if abs(c.im) == 1 else f"{style.rational(abs(c.im))} i"
        op = "+" if c.im > 0 else "-"
        tokens.append(style.mixed.format(f"{style.rational(c.re)} {op} {im_body}"))
    elif c.re:
        sign = 1 if c.re > 0 else -1
        if abs(c.re) != 1:
            tokens.append(style.magnitude(abs(c.re)))
    else:
        sign = 1 if c.im > 0 else -1
        if abs(c.im) != 1:
            tokens.append(style.magnitude(abs(c.im)))
        tokens.append("i")
    if c.hbar_power:
        tokens.append(style.raised(style.hbar, c.hbar_power))
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


def result_to_json_dict(x: Result) -> dict:
    free = isinstance(x, FreePolynomial)
    terms = []
    grouped = list(x.grouped())[::-1]
    for key, powers in grouped:
        if free:
            word_json: object = [letter.symbol for letter in key]  # type: ignore[union-attr]
        else:
            word_json = {
                "n": key.n,  # type: ignore[union-attr]
                "m": key.m,  # type: ignore[union-attr]
                "deriv": key.deriv.symbol if key.deriv else None,  # type: ignore[union-attr]
            }
        terms.append(
            {
                "word": word_json,
                "coeff": {
                    "hbar_powers": {
                        str(power): {"re": str(powers[power].re), "im": str(powers[power].im)}
                        for power in sorted(powers, reverse=True)
                    }
                },
            }
        )
    return {"basis": "free" if free else "weyl", "terms": terms}


def render_json(x: Result) -> str:
    return json.dumps(result_to_json_dict(x))
