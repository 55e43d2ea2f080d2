import json
import sys
from fractions import Fraction
from itertools import groupby

import pytest
from hypothesis import given, strategies as st

from opalg.core import FreePolynomial, IDENTITY_WORD, Letter, Word
from opalg.errors import UnsupportedFragmentError
from opalg.parser import evaluate, parse
from opalg.printing import (
    _LATEX,
    _TEXT,
    _coeff_tokens,
    _display_terms,
    _weyl,
    _word,
    render,
    render_json,
    render_latex,
    render_text,
    result_to_json_dict,
)
from opalg.scalars import HbarScalar
from opalg.weyl import WeylMonomial, WeylPolynomial

Q, P = Letter.Q, Letter.P


def ev(source: str):
    return evaluate(parse(source))


def test_text_example_qp_minus_half_i_hbar():
    x = ev("q p") - FreePolynomial.from_word(
        IDENTITY_WORD, HbarScalar.of(0, Fraction(1, 2), 1)
    )
    assert render_text(x) == "q p - (1/2) i hbar"


def test_text_normal_form_of_symmetric_square():
    assert render_text(ev("normal(S(q^2 p^2))")) == "q^2 p^2 - 2 i hbar q p - (1/2) hbar^2"


def test_zero_renders_as_zero_in_text_and_latex():
    zero_free = FreePolynomial.zero()
    zero_weyl = WeylPolynomial.zero()
    assert render_text(zero_free) == "0"
    assert render_text(zero_weyl) == "0"
    assert render_latex(zero_free) == "0"
    assert render_json(zero_free) == '{"basis": "free", "terms": []}'


def test_leading_negative_terms_stay_parseable():
    x = ev("0 - q p")
    assert render_text(x) == "-1 q p"
    assert ev(render_text(x)) == x
    y = ev("0 - 1/2 q")
    assert render_text(y) == "-1/2 q"
    assert ev(render_text(y)) == y


def test_mixed_complex_coefficients():
    x = FreePolynomial.from_word(Word.of(Q), HbarScalar.of(2, Fraction(-1, 2), 0))
    assert render_text(x) == "(2 - 1/2 i) q"
    assert ev(render_text(x)) == x


def test_weyl_monomial_text_forms():
    assert render_text(WeylPolynomial.from_monomial(WeylMonomial(2, 1))) == "q^2 o p"
    assert render_text(WeylPolynomial.from_monomial(WeylMonomial(2, 0))) == "S(q^2)"
    assert render_text(WeylPolynomial.from_monomial(WeylMonomial(0, 3))) == "S(p^3)"
    assert (
        render_text(WeylPolynomial.from_monomial(WeylMonomial(0, 0, Letter.DRHO_Q)))
        == "S(drho_q)"
    )
    assert (
        render_text(WeylPolynomial.from_monomial(WeylMonomial(1, 1, Letter.DRHO_P)))
        == "q o p o drho_p"
    )


def test_weyl_coefficients_parenthesize_the_monomial():
    x = WeylPolynomial.from_monomial(WeylMonomial(2, 2)).scale(9)
    assert render_text(x) == "9 (q^2 o p^2)"
    assert ev(render_text(x)) == x


def test_latex_weyl_monomial():
    assert render_latex(WeylPolynomial.from_monomial(WeylMonomial(2, 1))) == (
        r"\hat q^{2} \circ \hat p"
    )


def test_latex_free_polynomial():
    x = ev("normal(p q)")
    assert render_latex(x) == r"\hat q \hat p - i \hbar"


def test_latex_state_letters():
    x = FreePolynomial.from_word(Word.of(Letter.RHO, Letter.DRHO_Q))
    assert render_latex(x) == r"\hat \rho \frac{\partial \hat \rho}{\partial \hat q}"


def test_json_schema_for_free_values():
    x = ev("normal(p q)")
    payload = json.loads(render_json(x))
    assert payload == {
        "basis": "free",
        "terms": [
            {
                "word": ["q", "p"],
                "coeff": {"hbar_powers": {"0": {"re": "1", "im": "0"}}},
            },
            {
                "word": [],
                "coeff": {"hbar_powers": {"1": {"re": "0", "im": "-1"}}},
            },
        ],
    }


def test_json_schema_for_weyl_values():
    x = WeylPolynomial.from_monomial(WeylMonomial(2, 1, Letter.DRHO_P), HbarScalar.real(Fraction(1, 3)))
    payload = result_to_json_dict(x)
    assert payload == {
        "basis": "weyl",
        "terms": [
            {
                "word": {"n": 2, "m": 1, "deriv": "drho_p"},
                "coeff": {"hbar_powers": {"0": {"re": "1/3", "im": "0"}}},
            }
        ],
    }


def test_json_groups_grades_per_word():
    x = ev("q p + hbar^2 q p")
    payload = result_to_json_dict(x)
    assert len(payload["terms"]) == 1
    assert list(payload["terms"][0]["coeff"]["hbar_powers"]) == ["2", "0"]


def test_rendering_is_injective_on_sample_values():
    values = [
        ev("q"),
        ev("p"),
        ev("q p"),
        ev("p q"),
        ev("S(q p)"),
        ev("S(q^2)"),
        ev("q^2"),
        ev("normal(p q)"),
        ev("q p - i hbar"),
        ev("1"),
        ev("S(1)"),
        ev("hbar"),
        ev("i"),
    ]
    rendered = [(type(v).__name__, render_text(v)) for v in values]
    deduped = {r for r in rendered}
    # distinct values must render distinctly (the basis tag is part of the
    # rendering for everything except bare scalars, whose embedding is canonical)
    assert len(deduped) == len(set(map(str, rendered)))
    texts = [r[1] for r in rendered]
    assert texts.count("q p") == 1
    assert texts.count("q o p") == 1


def test_unknown_format_is_rejected():
    with pytest.raises(ValueError):
        render(ev("q"), "html")


def test_term_order_is_descending():
    # the printer sorts terms by (length, letters) with q < p, highest first
    x = ev("1 + q + q^2 + q p")
    assert render_text(x) == "q p + q^2 + q + 1"
    assert render_text(ev("1 + q + p")) == "p + q + 1"


_scalars = st.builds(
    HbarScalar,
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
    st.integers(min_value=-1, max_value=2),
)
# Small key pools, so that lists repeat keys and hold several grades per key.
_words = st.lists(st.sampled_from([Q, P, Letter.RHO]), max_size=2).map(
    lambda letters: Word(tuple(letters))
)
_monomials = st.builds(
    WeylMonomial,
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=2),
    st.sampled_from([None, Letter.DRHO_Q, Letter.DRHO_P]),
)


@st.composite
def _term_lists(draw, keys):
    """A list of (key, scalar) pairs, some cancelled by their negation later
    in the list, and a permutation of it."""
    pairs = draw(st.lists(st.tuples(keys, _scalars), max_size=10))
    if pairs:
        pairs += [(key, -c) for key, c in draw(st.lists(st.sampled_from(pairs), max_size=4))]
    return pairs, draw(st.permutations(pairs))


def _renders(x) -> tuple[str, str, str]:
    return render_text(x), render_latex(x), render_json(x)


@pytest.mark.parametrize(
    "cls, keys", [(FreePolynomial, _words), (WeylPolynomial, _monomials)], ids=["free", "weyl"]
)
@given(data=st.data())
def test_construction_order_changes_neither_value_nor_render(cls, keys, data):
    pairs, permuted = data.draw(_term_lists(keys))
    a, b = cls(pairs), cls(permuted)
    assert a == b
    assert _renders(a) == _renders(b)
    assert _renders(a + b) == _renders(b + a)


# Reference renders (source, text, LaTeX, JSON); a change to the printers
# must keep every one byte for byte.
GOLDEN = [
    (
        'q',
        'q',
        r"\hat q",
        '{"basis": "free", "terms": [{"word": ["q"], "coeff": {"hbar_powers": {"0": {"re": "1", "im": "0"}}}}]}',
    ),
    (
        '3 q',
        '3 q',
        r"3 \hat q",
        '{"basis": "free", "terms": [{"word": ["q"], "coeff": {"hbar_powers": {"0": {"re": "3", "im": "0"}}}}]}',
    ),
    (
        '1/2 q',
        '(1/2) q',
        r"\frac{1}{2} \hat q",
        '{"basis": "free", "terms": [{"word": ["q"], "coeff": {"hbar_powers": {"0": {"re": "1/2", "im": "0"}}}}]}',
    ),
    (
        '0 - q',
        '-1 q',
        r"- \hat q",
        '{"basis": "free", "terms": [{"word": ["q"], "coeff": {"hbar_powers": {"0": {"re": "-1", "im": "0"}}}}]}',
    ),
    (
        '0 - 3 q p',
        '-3 q p',
        r"- 3 \hat q \hat p",
        '{"basis": "free", "terms": [{"word": ["q", "p"], "coeff": {"hbar_powers": {"0": {"re": "-3", "im": "0"}}}}]}',
    ),
    (
        '0 - 2/3 q p',
        '-2/3 q p',
        r"- \frac{2}{3} \hat q \hat p",
        '{"basis": "free", "terms": [{"word": ["q", "p"], "coeff": {"hbar_powers": {"0": {"re": "-2/3", "im": "0"}}}}]}',
    ),
    (
        'q - 1/2 p',
        '-1/2 p + q',
        r"- \frac{1}{2} \hat p + \hat q",
        '{"basis": "free", "terms": [{"word": ["p"], "coeff": {"hbar_powers": {"0": {"re": "-1/2", "im": "0"}}}}, {"word": ["q"], "coeff": {"hbar_powers": {"0": {"re": "1", "im": "0"}}}}]}',
    ),
    (
        'q + 7/4 p^2',
        '(7/4) p^2 + q',
        r"\frac{7}{4} \hat p^{2} + \hat q",
        '{"basis": "free", "terms": [{"word": ["p", "p"], "coeff": {"hbar_powers": {"0": {"re": "7/4", "im": "0"}}}}, {"word": ["q"], "coeff": {"hbar_powers": {"0": {"re": "1", "im": "0"}}}}]}',
    ),
    (
        'i q',
        'i q',
        r"i \hat q",
        '{"basis": "free", "terms": [{"word": ["q"], "coeff": {"hbar_powers": {"0": {"re": "0", "im": "1"}}}}]}',
    ),
    (
        '2 i q',
        '2 i q',
        r"2 i \hat q",
        '{"basis": "free", "terms": [{"word": ["q"], "coeff": {"hbar_powers": {"0": {"re": "0", "im": "2"}}}}]}',
    ),
    (
        '1/3 i p',
        '(1/3) i p',
        r"\frac{1}{3} i \hat p",
        '{"basis": "free", "terms": [{"word": ["p"], "coeff": {"hbar_powers": {"0": {"re": "0", "im": "1/3"}}}}]}',
    ),
    (
        '0 - i q',
        '-1 i q',
        r"- i \hat q",
        '{"basis": "free", "terms": [{"word": ["q"], "coeff": {"hbar_powers": {"0": {"re": "0", "im": "-1"}}}}]}',
    ),
    (
        '0 - 5 i q^2',
        '-5 i q^2',
        r"- 5 i \hat q^{2}",
        '{"basis": "free", "terms": [{"word": ["q", "q"], "coeff": {"hbar_powers": {"0": {"re": "0", "im": "-5"}}}}]}',
    ),
    (
        '0 - 3/2 i p',
        '-3/2 i p',
        r"- \frac{3}{2} i \hat p",
        '{"basis": "free", "terms": [{"word": ["p"], "coeff": {"hbar_powers": {"0": {"re": "0", "im": "-3/2"}}}}]}',
    ),
    (
        'q - i p',
        '-1 i p + q',
        r"- i \hat p + \hat q",
        '{"basis": "free", "terms": [{"word": ["p"], "coeff": {"hbar_powers": {"0": {"re": "0", "im": "-1"}}}}, {"word": ["q"], "coeff": {"hbar_powers": {"0": {"re": "1", "im": "0"}}}}]}',
    ),
    (
        '(2 - 1/2 i) q',
        '(2 - 1/2 i) q',
        r"\left(2 - \frac{1}{2} i\right) \hat q",
        '{"basis": "free", "terms": [{"word": ["q"], "coeff": {"hbar_powers": {"0": {"re": "2", "im": "-1/2"}}}}]}',
    ),
    (
        '(1 + i) q^2',
        '(1 + i) q^2',
        r"\left(1 + i\right) \hat q^{2}",
        '{"basis": "free", "terms": [{"word": ["q", "q"], "coeff": {"hbar_powers": {"0": {"re": "1", "im": "1"}}}}]}',
    ),
    (
        '(-3 + 2 i) p',
        '(-3 + 2 i) p',
        r"\left(-3 + 2 i\right) \hat p",
        '{"basis": "free", "terms": [{"word": ["p"], "coeff": {"hbar_powers": {"0": {"re": "-3", "im": "2"}}}}]}',
    ),
    (
        '(2/3 - i) q p',
        '(2/3 - i) q p',
        r"\left(\frac{2}{3} - i\right) \hat q \hat p",
        '{"basis": "free", "terms": [{"word": ["q", "p"], "coeff": {"hbar_powers": {"0": {"re": "2/3", "im": "-1"}}}}]}',
    ),
    (
        '(-1/2 - 3/4 i) p q',
        '(-1/2 - 3/4 i) p q',
        r"\left(-\frac{1}{2} - \frac{3}{4} i\right) \hat p \hat q",
        '{"basis": "free", "terms": [{"word": ["p", "q"], "coeff": {"hbar_powers": {"0": {"re": "-1/2", "im": "-3/4"}}}}]}',
    ),
    (
        'q + (1 + i) p',
        '(1 + i) p + q',
        r"\left(1 + i\right) \hat p + \hat q",
        '{"basis": "free", "terms": [{"word": ["p"], "coeff": {"hbar_powers": {"0": {"re": "1", "im": "1"}}}}, {"word": ["q"], "coeff": {"hbar_powers": {"0": {"re": "1", "im": "0"}}}}]}',
    ),
    (
        'hbar q',
        'hbar q',
        r"\hbar \hat q",
        '{"basis": "free", "terms": [{"word": ["q"], "coeff": {"hbar_powers": {"1": {"re": "1", "im": "0"}}}}]}',
    ),
    (
        'hbar^2 q p',
        'hbar^2 q p',
        r"\hbar^{2} \hat q \hat p",
        '{"basis": "free", "terms": [{"word": ["q", "p"], "coeff": {"hbar_powers": {"2": {"re": "1", "im": "0"}}}}]}',
    ),
    (
        'hbar^-1 q',
        'hbar^-1 q',
        r"\hbar^{-1} \hat q",
        '{"basis": "free", "terms": [{"word": ["q"], "coeff": {"hbar_powers": {"-1": {"re": "1", "im": "0"}}}}]}',
    ),
    (
        'i hbar^-1 p',
        'i hbar^-1 p',
        r"i \hbar^{-1} \hat p",
        '{"basis": "free", "terms": [{"word": ["p"], "coeff": {"hbar_powers": {"-1": {"re": "0", "im": "1"}}}}]}',
    ),
    (
        '0 - 5/2 hbar^3',
        '-5/2 hbar^3',
        r"- \frac{5}{2} \hbar^{3}",
        '{"basis": "free", "terms": [{"word": [], "coeff": {"hbar_powers": {"3": {"re": "-5/2", "im": "0"}}}}]}',
    ),
    (
        'q p + hbar^2 q p',
        'hbar^2 q p + q p',
        r"\hbar^{2} \hat q \hat p + \hat q \hat p",
        '{"basis": "free", "terms": [{"word": ["q", "p"], "coeff": {"hbar_powers": {"2": {"re": "1", "im": "0"}, "0": {"re": "1", "im": "0"}}}}]}',
    ),
    (
        'q p - i hbar',
        'q p - i hbar',
        r"\hat q \hat p - i \hbar",
        '{"basis": "free", "terms": [{"word": ["q", "p"], "coeff": {"hbar_powers": {"0": {"re": "1", "im": "0"}}}}, {"word": [], "coeff": {"hbar_powers": {"1": {"re": "0", "im": "-1"}}}}]}',
    ),
    (
        '(1 - i) hbar^-2 q',
        '(1 - i) hbar^-2 q',
        r"\left(1 - i\right) \hbar^{-2} \hat q",
        '{"basis": "free", "terms": [{"word": ["q"], "coeff": {"hbar_powers": {"-2": {"re": "1", "im": "-1"}}}}]}',
    ),
    (
        '0',
        '0',
        r"0",
        '{"basis": "free", "terms": []}',
    ),
    (
        '1',
        '1',
        r"1",
        '{"basis": "free", "terms": [{"word": [], "coeff": {"hbar_powers": {"0": {"re": "1", "im": "0"}}}}]}',
    ),
    (
        '0 - 1',
        '-1',
        r"- 1",
        '{"basis": "free", "terms": [{"word": [], "coeff": {"hbar_powers": {"0": {"re": "-1", "im": "0"}}}}]}',
    ),
    (
        'i',
        'i',
        r"i",
        '{"basis": "free", "terms": [{"word": [], "coeff": {"hbar_powers": {"0": {"re": "0", "im": "1"}}}}]}',
    ),
    (
        '0 - i',
        '-1 i',
        r"- i",
        '{"basis": "free", "terms": [{"word": [], "coeff": {"hbar_powers": {"0": {"re": "0", "im": "-1"}}}}]}',
    ),
    (
        'hbar',
        'hbar',
        r"\hbar",
        '{"basis": "free", "terms": [{"word": [], "coeff": {"hbar_powers": {"1": {"re": "1", "im": "0"}}}}]}',
    ),
    (
        '3/4',
        '(3/4)',
        r"\frac{3}{4}",
        '{"basis": "free", "terms": [{"word": [], "coeff": {"hbar_powers": {"0": {"re": "3/4", "im": "0"}}}}]}',
    ),
    (
        '0 - 2 hbar',
        '-2 hbar',
        r"- 2 \hbar",
        '{"basis": "free", "terms": [{"word": [], "coeff": {"hbar_powers": {"1": {"re": "-2", "im": "0"}}}}]}',
    ),
    (
        '(1 + 2 i)',
        '(1 + 2 i)',
        r"\left(1 + 2 i\right)",
        '{"basis": "free", "terms": [{"word": [], "coeff": {"hbar_powers": {"0": {"re": "1", "im": "2"}}}}]}',
    ),
    (
        'S(1)',
        '1',
        r"1",
        '{"basis": "weyl", "terms": [{"word": {"n": 0, "m": 0, "deriv": null}, "coeff": {"hbar_powers": {"0": {"re": "1", "im": "0"}}}}]}',
    ),
    (
        'S(0)',
        '0',
        r"0",
        '{"basis": "weyl", "terms": []}',
    ),
    (
        'S(0 - 1)',
        '-1',
        r"- 1",
        '{"basis": "weyl", "terms": [{"word": {"n": 0, "m": 0, "deriv": null}, "coeff": {"hbar_powers": {"0": {"re": "-1", "im": "0"}}}}]}',
    ),
    (
        'S(2/3)',
        '(2/3)',
        r"\frac{2}{3}",
        '{"basis": "weyl", "terms": [{"word": {"n": 0, "m": 0, "deriv": null}, "coeff": {"hbar_powers": {"0": {"re": "2/3", "im": "0"}}}}]}',
    ),
    (
        'q q p p q',
        'q^2 p^2 q',
        r"\hat q^{2} \hat p^{2} \hat q",
        '{"basis": "free", "terms": [{"word": ["q", "q", "p", "p", "q"], "coeff": {"hbar_powers": {"0": {"re": "1", "im": "0"}}}}]}',
    ),
    (
        'q^3 p^2 q',
        'q^3 p^2 q',
        r"\hat q^{3} \hat p^{2} \hat q",
        '{"basis": "free", "terms": [{"word": ["q", "q", "q", "p", "p", "q"], "coeff": {"hbar_powers": {"0": {"re": "1", "im": "0"}}}}]}',
    ),
    (
        'p q p q',
        'p q p q',
        r"\hat p \hat q \hat p \hat q",
        '{"basis": "free", "terms": [{"word": ["p", "q", "p", "q"], "coeff": {"hbar_powers": {"0": {"re": "1", "im": "0"}}}}]}',
    ),
    (
        'rho',
        'rho',
        r"\hat \rho",
        '{"basis": "free", "terms": [{"word": ["rho"], "coeff": {"hbar_powers": {"0": {"re": "1", "im": "0"}}}}]}',
    ),
    (
        'q rho p',
        'q rho p',
        r"\hat q \hat \rho \hat p",
        '{"basis": "free", "terms": [{"word": ["q", "rho", "p"], "coeff": {"hbar_powers": {"0": {"re": "1", "im": "0"}}}}]}',
    ),
    (
        'drho_q',
        'drho_q',
        r"\frac{\partial \hat \rho}{\partial \hat q}",
        '{"basis": "free", "terms": [{"word": ["drho_q"], "coeff": {"hbar_powers": {"0": {"re": "1", "im": "0"}}}}]}',
    ),
    (
        'drho_p q^2',
        'drho_p q^2',
        r"\frac{\partial \hat \rho}{\partial \hat p} \hat q^{2}",
        '{"basis": "free", "terms": [{"word": ["drho_p", "q", "q"], "coeff": {"hbar_powers": {"0": {"re": "1", "im": "0"}}}}]}',
    ),
    (
        'rho drho_q drho_p',
        'rho drho_q drho_p',
        r"\hat \rho \frac{\partial \hat \rho}{\partial \hat q} \frac{\partial \hat \rho}{\partial \hat p}",
        '{"basis": "free", "terms": [{"word": ["rho", "drho_q", "drho_p"], "coeff": {"hbar_powers": {"0": {"re": "1", "im": "0"}}}}]}',
    ),
    (
        '0 - 1/2 rho rho q',
        '-1/2 rho^2 q',
        r"- \frac{1}{2} \hat \rho^{2} \hat q",
        '{"basis": "free", "terms": [{"word": ["rho", "rho", "q"], "coeff": {"hbar_powers": {"0": {"re": "-1/2", "im": "0"}}}}]}',
    ),
    (
        '2 i drho_p drho_p',
        '2 i drho_p^2',
        r"2 i \frac{\partial \hat \rho}{\partial \hat p}^{2}",
        '{"basis": "free", "terms": [{"word": ["drho_p", "drho_p"], "coeff": {"hbar_powers": {"0": {"re": "0", "im": "2"}}}}]}',
    ),
    (
        'S(q)',
        'S(q)',
        r"\hat q",
        '{"basis": "weyl", "terms": [{"word": {"n": 1, "m": 0, "deriv": null}, "coeff": {"hbar_powers": {"0": {"re": "1", "im": "0"}}}}]}',
    ),
    (
        'S(p)',
        'S(p)',
        r"\hat p",
        '{"basis": "weyl", "terms": [{"word": {"n": 0, "m": 1, "deriv": null}, "coeff": {"hbar_powers": {"0": {"re": "1", "im": "0"}}}}]}',
    ),
    (
        'S(q^2)',
        'S(q^2)',
        r"\hat q^{2}",
        '{"basis": "weyl", "terms": [{"word": {"n": 2, "m": 0, "deriv": null}, "coeff": {"hbar_powers": {"0": {"re": "1", "im": "0"}}}}]}',
    ),
    (
        'S(p^3)',
        'S(p^3)',
        r"\hat p^{3}",
        '{"basis": "weyl", "terms": [{"word": {"n": 0, "m": 3, "deriv": null}, "coeff": {"hbar_powers": {"0": {"re": "1", "im": "0"}}}}]}',
    ),
    (
        'S(q^2 p)',
        'q^2 o p',
        r"\hat q^{2} \circ \hat p",
        '{"basis": "weyl", "terms": [{"word": {"n": 2, "m": 1, "deriv": null}, "coeff": {"hbar_powers": {"0": {"re": "1", "im": "0"}}}}]}',
    ),
    (
        'S(q p)',
        'q o p',
        r"\hat q \circ \hat p",
        '{"basis": "weyl", "terms": [{"word": {"n": 1, "m": 1, "deriv": null}, "coeff": {"hbar_powers": {"0": {"re": "1", "im": "0"}}}}]}',
    ),
    (
        '2 S(q p)',
        '2 (q o p)',
        r"2 \hat q \circ \hat p",
        '{"basis": "weyl", "terms": [{"word": {"n": 1, "m": 1, "deriv": null}, "coeff": {"hbar_powers": {"0": {"re": "2", "im": "0"}}}}]}',
    ),
    (
        '0 - S(q^2 p^2)',
        '-1 (q^2 o p^2)',
        r"- \hat q^{2} \circ \hat p^{2}",
        '{"basis": "weyl", "terms": [{"word": {"n": 2, "m": 2, "deriv": null}, "coeff": {"hbar_powers": {"0": {"re": "-1", "im": "0"}}}}]}',
    ),
    (
        '0 - 1/2 S(q p)',
        '-1/2 (q o p)',
        r"- \frac{1}{2} \hat q \circ \hat p",
        '{"basis": "weyl", "terms": [{"word": {"n": 1, "m": 1, "deriv": null}, "coeff": {"hbar_powers": {"0": {"re": "-1/2", "im": "0"}}}}]}',
    ),
    (
        'i S(q p^2)',
        'i (q o p^2)',
        r"i \hat q \circ \hat p^{2}",
        '{"basis": "weyl", "terms": [{"word": {"n": 1, "m": 2, "deriv": null}, "coeff": {"hbar_powers": {"0": {"re": "0", "im": "1"}}}}]}',
    ),
    (
        '(1 - i) S(q p)',
        '(1 - i) (q o p)',
        r"\left(1 - i\right) \hat q \circ \hat p",
        '{"basis": "weyl", "terms": [{"word": {"n": 1, "m": 1, "deriv": null}, "coeff": {"hbar_powers": {"0": {"re": "1", "im": "-1"}}}}]}',
    ),
    (
        'S(drho_q)',
        'S(drho_q)',
        r"\frac{\partial \hat \rho}{\partial \hat q}",
        '{"basis": "weyl", "terms": [{"word": {"n": 0, "m": 0, "deriv": "drho_q"}, "coeff": {"hbar_powers": {"0": {"re": "1", "im": "0"}}}}]}',
    ),
    (
        'S(drho_p)',
        'S(drho_p)',
        r"\frac{\partial \hat \rho}{\partial \hat p}",
        '{"basis": "weyl", "terms": [{"word": {"n": 0, "m": 0, "deriv": "drho_p"}, "coeff": {"hbar_powers": {"0": {"re": "1", "im": "0"}}}}]}',
    ),
    (
        'S(q drho_p)',
        'S(q) o drho_p',
        r"\hat q \circ \frac{\partial \hat \rho}{\partial \hat p}",
        '{"basis": "weyl", "terms": [{"word": {"n": 1, "m": 0, "deriv": "drho_p"}, "coeff": {"hbar_powers": {"0": {"re": "1", "im": "0"}}}}]}',
    ),
    (
        'S(p^2 drho_q)',
        'S(p^2) o drho_q',
        r"\hat p^{2} \circ \frac{\partial \hat \rho}{\partial \hat q}",
        '{"basis": "weyl", "terms": [{"word": {"n": 0, "m": 2, "deriv": "drho_q"}, "coeff": {"hbar_powers": {"0": {"re": "1", "im": "0"}}}}]}',
    ),
    (
        'S(q p drho_p)',
        'q o p o drho_p',
        r"\hat q \circ \hat p \circ \frac{\partial \hat \rho}{\partial \hat p}",
        '{"basis": "weyl", "terms": [{"word": {"n": 1, "m": 1, "deriv": "drho_p"}, "coeff": {"hbar_powers": {"0": {"re": "1", "im": "0"}}}}]}',
    ),
    (
        '0 - 1/3 S(q p drho_q)',
        '-1/3 (q o p o drho_q)',
        r"- \frac{1}{3} \hat q \circ \hat p \circ \frac{\partial \hat \rho}{\partial \hat q}",
        '{"basis": "weyl", "terms": [{"word": {"n": 1, "m": 1, "deriv": "drho_q"}, "coeff": {"hbar_powers": {"0": {"re": "-1/3", "im": "0"}}}}]}',
    ),
    (
        '0 - S(drho_q)',
        '-1 S(drho_q)',
        r"- \frac{\partial \hat \rho}{\partial \hat q}",
        '{"basis": "weyl", "terms": [{"word": {"n": 0, "m": 0, "deriv": "drho_q"}, "coeff": {"hbar_powers": {"0": {"re": "-1", "im": "0"}}}}]}',
    ),
    (
        'S(q^2) + S(p) - 2/3 (q o p)',
        'S(q^2) - (2/3) (q o p) + S(p)',
        r"\hat q^{2} - \frac{2}{3} \hat q \circ \hat p + \hat p",
        '{"basis": "weyl", "terms": [{"word": {"n": 2, "m": 0, "deriv": null}, "coeff": {"hbar_powers": {"0": {"re": "1", "im": "0"}}}}, {"word": {"n": 1, "m": 1, "deriv": null}, "coeff": {"hbar_powers": {"0": {"re": "-2/3", "im": "0"}}}}, {"word": {"n": 0, "m": 1, "deriv": null}, "coeff": {"hbar_powers": {"0": {"re": "1", "im": "0"}}}}]}',
    ),
    (
        'S(q p) + S(1)',
        'q o p + 1',
        r"\hat q \circ \hat p + 1",
        '{"basis": "weyl", "terms": [{"word": {"n": 1, "m": 1, "deriv": null}, "coeff": {"hbar_powers": {"0": {"re": "1", "im": "0"}}}}, {"word": {"n": 0, "m": 0, "deriv": null}, "coeff": {"hbar_powers": {"0": {"re": "1", "im": "0"}}}}]}',
    ),
    (
        'pb(q^2 o p, q o p^2)',
        '3 (q^2 o p^2)',
        r"3 \hat q^{2} \circ \hat p^{2}",
        '{"basis": "weyl", "terms": [{"word": {"n": 2, "m": 2, "deriv": null}, "coeff": {"hbar_powers": {"0": {"re": "3", "im": "0"}}}}]}',
    ),
    (
        'normal(S(q^2 p^2))',
        'q^2 p^2 - 2 i hbar q p - (1/2) hbar^2',
        r"\hat q^{2} \hat p^{2} - 2 i \hbar \hat q \hat p - \frac{1}{2} \hbar^{2}",
        '{"basis": "free", "terms": [{"word": ["q", "q", "p", "p"], "coeff": {"hbar_powers": {"0": {"re": "1", "im": "0"}}}}, {"word": ["q", "p"], "coeff": {"hbar_powers": {"1": {"re": "0", "im": "-2"}}}}, {"word": [], "coeff": {"hbar_powers": {"2": {"re": "-1/2", "im": "0"}}}}]}',
    ),
    (
        'comm(q^3, p^2)',
        '6 q^2 p - 6 i hbar q',
        r"6 \hat q^{2} \hat p - 6 i \hbar \hat q",
        '{"basis": "free", "terms": [{"word": ["q", "q", "p"], "coeff": {"hbar_powers": {"0": {"re": "6", "im": "0"}}}}, {"word": ["q"], "coeff": {"hbar_powers": {"1": {"re": "0", "im": "-6"}}}}]}',
    ),
    (
        'normal(p^2 q^2)',
        'q^2 p^2 - 4 i hbar q p - 2 hbar^2',
        r"\hat q^{2} \hat p^{2} - 4 i \hbar \hat q \hat p - 2 \hbar^{2}",
        '{"basis": "free", "terms": [{"word": ["q", "q", "p", "p"], "coeff": {"hbar_powers": {"0": {"re": "1", "im": "0"}}}}, {"word": ["q", "p"], "coeff": {"hbar_powers": {"1": {"re": "0", "im": "-4"}}}}, {"word": [], "coeff": {"hbar_powers": {"2": {"re": "-2", "im": "0"}}}}]}',
    ),
    (
        'comm(q, p)',
        '1',
        r"1",
        '{"basis": "free", "terms": [{"word": [], "coeff": {"hbar_powers": {"0": {"re": "1", "im": "0"}}}}]}',
    ),
    (
        'dq(q^3 p)',
        '3 q^2 p',
        r"3 \hat q^{2} \hat p",
        '{"basis": "free", "terms": [{"word": ["q", "q", "p"], "coeff": {"hbar_powers": {"0": {"re": "3", "im": "0"}}}}]}',
    ),
    # Sources that begin with "-" and a digit and hold no space: the command
    # line once read them as unknown options.
    (
        '-3/4',
        '-3/4',
        r"- \frac{3}{4}",
        '{"basis": "free", "terms": [{"word": [], "coeff": {"hbar_powers": {"0": {"re": "-3/4", "im": "0"}}}}]}',
    ),
    (
        '-1q',
        '-1 q',
        r"- \hat q",
        '{"basis": "free", "terms": [{"word": ["q"], "coeff": {"hbar_powers": {"0": {"re": "-1", "im": "0"}}}}]}',
    ),
]


# Coefficient-heavy reference renders, recorded before the scalar core moved
# from Fraction pairs to integer triples: mixed and large denominators,
# brackets of rational-weighted operands, S(...) of i-hbar-weighted sums and
# sums that cancel exactly.  The verify report holds only verdicts, so these
# rows are what pins the coefficients themselves.
COEFFICIENT_GOLDEN = [
    (
        '((2/3) q + (5/7) p)^5',
        '(3125/16807) p^5 + (1250/7203) p^4 q + (1250/7203) p^3 q p + (500/3087) p^3 q^2 + (1250/7203) p^2 q p^2 + (500/3087) p^2 q p q + (500/3087) p^2 q^2 p + (200/1323) p^2 q^3 + (1250/7203) p q p^3 + (500/3087) p q p^2 q + (500/3087) p q p q p + (200/1323) p q p q^2 + (500/3087) p q^2 p^2 + (200/1323) p q^2 p q + (200/1323) p q^3 p + (80/567) p q^4 + (1250/7203) q p^4 + (500/3087) q p^3 q + (500/3087) q p^2 q p + (200/1323) q p^2 q^2 + (500/3087) q p q p^2 + (200/1323) q p q p q + (200/1323) q p q^2 p + (80/567) q p q^3 + (500/3087) q^2 p^3 + (200/1323) q^2 p^2 q + (200/1323) q^2 p q p + (80/567) q^2 p q^2 + (200/1323) q^3 p^2 + (80/567) q^3 p q + (80/567) q^4 p + (32/243) q^5',
        r"\frac{3125}{16807} \hat p^{5} + \frac{1250}{7203} \hat p^{4} \hat q + \frac{1250}{7203} \hat p^{3} \hat q \hat p + \frac{500}{3087} \hat p^{3} \hat q^{2} + \frac{1250}{7203} \hat p^{2} \hat q \hat p^{2} + \frac{500}{3087} \hat p^{2} \hat q \hat p \hat q + \frac{500}{3087} \hat p^{2} \hat q^{2} \hat p + \frac{200}{1323} \hat p^{2} \hat q^{3} + \frac{1250}{7203} \hat p \hat q \hat p^{3} + \frac{500}{3087} \hat p \hat q \hat p^{2} \hat q + \frac{500}{3087} \hat p \hat q \hat p \hat q \hat p + \frac{200}{1323} \hat p \hat q \hat p \hat q^{2} + \frac{500}{3087} \hat p \hat q^{2} \hat p^{2} + \frac{200}{1323} \hat p \hat q^{2} \hat p \hat q + \frac{200}{1323} \hat p \hat q^{3} \hat p + \frac{80}{567} \hat p \hat q^{4} + \frac{1250}{7203} \hat q \hat p^{4} + \frac{500}{3087} \hat q \hat p^{3} \hat q + \frac{500}{3087} \hat q \hat p^{2} \hat q \hat p + \frac{200}{1323} \hat q \hat p^{2} \hat q^{2} + \frac{500}{3087} \hat q \hat p \hat q \hat p^{2} + \frac{200}{1323} \hat q \hat p \hat q \hat p \hat q + \frac{200}{1323} \hat q \hat p \hat q^{2} \hat p + \frac{80}{567} \hat q \hat p \hat q^{3} + \frac{500}{3087} \hat q^{2} \hat p^{3} + \frac{200}{1323} \hat q^{2} \hat p^{2} \hat q + \frac{200}{1323} \hat q^{2} \hat p \hat q \hat p + \frac{80}{567} \hat q^{2} \hat p \hat q^{2} + \frac{200}{1323} \hat q^{3} \hat p^{2} + \frac{80}{567} \hat q^{3} \hat p \hat q + \frac{80}{567} \hat q^{4} \hat p + \frac{32}{243} \hat q^{5}",
        '{"basis": "free", "terms": [{"word": ["p", "p", "p", "p", "p"], "coeff": {"hbar_powers": {"0": {"re": "3125/16807", "im": "0"}}}}, {"word": ["p", "p", "p", "p", "q"], "coeff": {"hbar_powers": {"0": {"re": "1250/7203", "im": "0"}}}}, {"word": ["p", "p", "p", "q", "p"], "coeff": {"hbar_powers": {"0": {"re": "1250/7203", "im": "0"}}}}, {"word": ["p", "p", "p", "q", "q"], "coeff": {"hbar_powers": {"0": {"re": "500/3087", "im": "0"}}}}, {"word": ["p", "p", "q", "p", "p"], "coeff": {"hbar_powers": {"0": {"re": "1250/7203", "im": "0"}}}}, {"word": ["p", "p", "q", "p", "q"], "coeff": {"hbar_powers": {"0": {"re": "500/3087", "im": "0"}}}}, {"word": ["p", "p", "q", "q", "p"], "coeff": {"hbar_powers": {"0": {"re": "500/3087", "im": "0"}}}}, {"word": ["p", "p", "q", "q", "q"], "coeff": {"hbar_powers": {"0": {"re": "200/1323", "im": "0"}}}}, {"word": ["p", "q", "p", "p", "p"], "coeff": {"hbar_powers": {"0": {"re": "1250/7203", "im": "0"}}}}, {"word": ["p", "q", "p", "p", "q"], "coeff": {"hbar_powers": {"0": {"re": "500/3087", "im": "0"}}}}, {"word": ["p", "q", "p", "q", "p"], "coeff": {"hbar_powers": {"0": {"re": "500/3087", "im": "0"}}}}, {"word": ["p", "q", "p", "q", "q"], "coeff": {"hbar_powers": {"0": {"re": "200/1323", "im": "0"}}}}, {"word": ["p", "q", "q", "p", "p"], "coeff": {"hbar_powers": {"0": {"re": "500/3087", "im": "0"}}}}, {"word": ["p", "q", "q", "p", "q"], "coeff": {"hbar_powers": {"0": {"re": "200/1323", "im": "0"}}}}, {"word": ["p", "q", "q", "q", "p"], "coeff": {"hbar_powers": {"0": {"re": "200/1323", "im": "0"}}}}, {"word": ["p", "q", "q", "q", "q"], "coeff": {"hbar_powers": {"0": {"re": "80/567", "im": "0"}}}}, {"word": ["q", "p", "p", "p", "p"], "coeff": {"hbar_powers": {"0": {"re": "1250/7203", "im": "0"}}}}, {"word": ["q", "p", "p", "p", "q"], "coeff": {"hbar_powers": {"0": {"re": "500/3087", "im": "0"}}}}, {"word": ["q", "p", "p", "q", "p"], "coeff": {"hbar_powers": {"0": {"re": "500/3087", "im": "0"}}}}, {"word": ["q", "p", "p", "q", "q"], "coeff": {"hbar_powers": {"0": {"re": "200/1323", "im": "0"}}}}, {"word": ["q", "p", "q", "p", "p"], "coeff": {"hbar_powers": {"0": {"re": "500/3087", "im": "0"}}}}, {"word": ["q", "p", "q", "p", "q"], "coeff": {"hbar_powers": {"0": {"re": "200/1323", "im": "0"}}}}, {"word": ["q", "p", "q", "q", "p"], "coeff": {"hbar_powers": {"0": {"re": "200/1323", "im": "0"}}}}, {"word": ["q", "p", "q", "q", "q"], "coeff": {"hbar_powers": {"0": {"re": "80/567", "im": "0"}}}}, {"word": ["q", "q", "p", "p", "p"], "coeff": {"hbar_powers": {"0": {"re": "500/3087", "im": "0"}}}}, {"word": ["q", "q", "p", "p", "q"], "coeff": {"hbar_powers": {"0": {"re": "200/1323", "im": "0"}}}}, {"word": ["q", "q", "p", "q", "p"], "coeff": {"hbar_powers": {"0": {"re": "200/1323", "im": "0"}}}}, {"word": ["q", "q", "p", "q", "q"], "coeff": {"hbar_powers": {"0": {"re": "80/567", "im": "0"}}}}, {"word": ["q", "q", "q", "p", "p"], "coeff": {"hbar_powers": {"0": {"re": "200/1323", "im": "0"}}}}, {"word": ["q", "q", "q", "p", "q"], "coeff": {"hbar_powers": {"0": {"re": "80/567", "im": "0"}}}}, {"word": ["q", "q", "q", "q", "p"], "coeff": {"hbar_powers": {"0": {"re": "80/567", "im": "0"}}}}, {"word": ["q", "q", "q", "q", "q"], "coeff": {"hbar_powers": {"0": {"re": "32/243", "im": "0"}}}}]}',
    ),
    (
        '((1/2) q - (3/4) i p)^4',
        '(81/256) p^4 + (27/128) i p^3 q + (27/128) i p^2 q p - (9/64) p^2 q^2 + (27/128) i p q p^2 - (9/64) p q p q - (9/64) p q^2 p - (3/32) i p q^3 + (27/128) i q p^3 - (9/64) q p^2 q - (9/64) q p q p - (3/32) i q p q^2 - (9/64) q^2 p^2 - (3/32) i q^2 p q - (3/32) i q^3 p + (1/16) q^4',
        r"\frac{81}{256} \hat p^{4} + \frac{27}{128} i \hat p^{3} \hat q + \frac{27}{128} i \hat p^{2} \hat q \hat p - \frac{9}{64} \hat p^{2} \hat q^{2} + \frac{27}{128} i \hat p \hat q \hat p^{2} - \frac{9}{64} \hat p \hat q \hat p \hat q - \frac{9}{64} \hat p \hat q^{2} \hat p - \frac{3}{32} i \hat p \hat q^{3} + \frac{27}{128} i \hat q \hat p^{3} - \frac{9}{64} \hat q \hat p^{2} \hat q - \frac{9}{64} \hat q \hat p \hat q \hat p - \frac{3}{32} i \hat q \hat p \hat q^{2} - \frac{9}{64} \hat q^{2} \hat p^{2} - \frac{3}{32} i \hat q^{2} \hat p \hat q - \frac{3}{32} i \hat q^{3} \hat p + \frac{1}{16} \hat q^{4}",
        '{"basis": "free", "terms": [{"word": ["p", "p", "p", "p"], "coeff": {"hbar_powers": {"0": {"re": "81/256", "im": "0"}}}}, {"word": ["p", "p", "p", "q"], "coeff": {"hbar_powers": {"0": {"re": "0", "im": "27/128"}}}}, {"word": ["p", "p", "q", "p"], "coeff": {"hbar_powers": {"0": {"re": "0", "im": "27/128"}}}}, {"word": ["p", "p", "q", "q"], "coeff": {"hbar_powers": {"0": {"re": "-9/64", "im": "0"}}}}, {"word": ["p", "q", "p", "p"], "coeff": {"hbar_powers": {"0": {"re": "0", "im": "27/128"}}}}, {"word": ["p", "q", "p", "q"], "coeff": {"hbar_powers": {"0": {"re": "-9/64", "im": "0"}}}}, {"word": ["p", "q", "q", "p"], "coeff": {"hbar_powers": {"0": {"re": "-9/64", "im": "0"}}}}, {"word": ["p", "q", "q", "q"], "coeff": {"hbar_powers": {"0": {"re": "0", "im": "-3/32"}}}}, {"word": ["q", "p", "p", "p"], "coeff": {"hbar_powers": {"0": {"re": "0", "im": "27/128"}}}}, {"word": ["q", "p", "p", "q"], "coeff": {"hbar_powers": {"0": {"re": "-9/64", "im": "0"}}}}, {"word": ["q", "p", "q", "p"], "coeff": {"hbar_powers": {"0": {"re": "-9/64", "im": "0"}}}}, {"word": ["q", "p", "q", "q"], "coeff": {"hbar_powers": {"0": {"re": "0", "im": "-3/32"}}}}, {"word": ["q", "q", "p", "p"], "coeff": {"hbar_powers": {"0": {"re": "-9/64", "im": "0"}}}}, {"word": ["q", "q", "p", "q"], "coeff": {"hbar_powers": {"0": {"re": "0", "im": "-3/32"}}}}, {"word": ["q", "q", "q", "p"], "coeff": {"hbar_powers": {"0": {"re": "0", "im": "-3/32"}}}}, {"word": ["q", "q", "q", "q"], "coeff": {"hbar_powers": {"0": {"re": "1/16", "im": "0"}}}}]}',
    ),
    (
        '((7/9) q + (11/13) p + (1/17))^3',
        '(1331/2197) p^3 + (847/1521) p^2 q + (847/1521) p q p + (539/1053) p q^2 + (847/1521) q p^2 + (539/1053) q p q + (539/1053) q^2 p + (343/729) q^3 + (363/2873) p^2 + (77/663) p q + (77/663) q p + (49/459) q^2 + (33/3757) p + (7/867) q + (1/4913)',
        r"\frac{1331}{2197} \hat p^{3} + \frac{847}{1521} \hat p^{2} \hat q + \frac{847}{1521} \hat p \hat q \hat p + \frac{539}{1053} \hat p \hat q^{2} + \frac{847}{1521} \hat q \hat p^{2} + \frac{539}{1053} \hat q \hat p \hat q + \frac{539}{1053} \hat q^{2} \hat p + \frac{343}{729} \hat q^{3} + \frac{363}{2873} \hat p^{2} + \frac{77}{663} \hat p \hat q + \frac{77}{663} \hat q \hat p + \frac{49}{459} \hat q^{2} + \frac{33}{3757} \hat p + \frac{7}{867} \hat q + \frac{1}{4913}",
        '{"basis": "free", "terms": [{"word": ["p", "p", "p"], "coeff": {"hbar_powers": {"0": {"re": "1331/2197", "im": "0"}}}}, {"word": ["p", "p", "q"], "coeff": {"hbar_powers": {"0": {"re": "847/1521", "im": "0"}}}}, {"word": ["p", "q", "p"], "coeff": {"hbar_powers": {"0": {"re": "847/1521", "im": "0"}}}}, {"word": ["p", "q", "q"], "coeff": {"hbar_powers": {"0": {"re": "539/1053", "im": "0"}}}}, {"word": ["q", "p", "p"], "coeff": {"hbar_powers": {"0": {"re": "847/1521", "im": "0"}}}}, {"word": ["q", "p", "q"], "coeff": {"hbar_powers": {"0": {"re": "539/1053", "im": "0"}}}}, {"word": ["q", "q", "p"], "coeff": {"hbar_powers": {"0": {"re": "539/1053", "im": "0"}}}}, {"word": ["q", "q", "q"], "coeff": {"hbar_powers": {"0": {"re": "343/729", "im": "0"}}}}, {"word": ["p", "p"], "coeff": {"hbar_powers": {"0": {"re": "363/2873", "im": "0"}}}}, {"word": ["p", "q"], "coeff": {"hbar_powers": {"0": {"re": "77/663", "im": "0"}}}}, {"word": ["q", "p"], "coeff": {"hbar_powers": {"0": {"re": "77/663", "im": "0"}}}}, {"word": ["q", "q"], "coeff": {"hbar_powers": {"0": {"re": "49/459", "im": "0"}}}}, {"word": ["p"], "coeff": {"hbar_powers": {"0": {"re": "33/3757", "im": "0"}}}}, {"word": ["q"], "coeff": {"hbar_powers": {"0": {"re": "7/867", "im": "0"}}}}, {"word": [], "coeff": {"hbar_powers": {"0": {"re": "1/4913", "im": "0"}}}}]}',
    ),
    (
        '(123456789/1000003) q p + (987654321/999983) p q',
        '(987654321/999983) p q + (123456789/1000003) q p',
        r"\frac{987654321}{999983} \hat p \hat q + \frac{123456789}{1000003} \hat q \hat p",
        '{"basis": "free", "terms": [{"word": ["p", "q"], "coeff": {"hbar_powers": {"0": {"re": "987654321/999983", "im": "0"}}}}, {"word": ["q", "p"], "coeff": {"hbar_powers": {"0": {"re": "123456789/1000003", "im": "0"}}}}]}',
    ),
    (
        '((1234567891011/97) q + (13/1234567891) i hbar)^3',
        '(1881676376411925699615487319217434331/912673) q^3 + (59442157223098586609482719/11616049286419) i hbar q^2 - (625925920742577/147843314116354224457) hbar^2 q - (2197/1881676376361628489657928971) i hbar^3',
        r"\frac{1881676376411925699615487319217434331}{912673} \hat q^{3} + \frac{59442157223098586609482719}{11616049286419} i \hbar \hat q^{2} - \frac{625925920742577}{147843314116354224457} \hbar^{2} \hat q - \frac{2197}{1881676376361628489657928971} i \hbar^{3}",
        '{"basis": "free", "terms": [{"word": ["q", "q", "q"], "coeff": {"hbar_powers": {"0": {"re": "1881676376411925699615487319217434331/912673", "im": "0"}}}}, {"word": ["q", "q"], "coeff": {"hbar_powers": {"1": {"re": "0", "im": "59442157223098586609482719/11616049286419"}}}}, {"word": ["q"], "coeff": {"hbar_powers": {"2": {"re": "-625925920742577/147843314116354224457", "im": "0"}}}}, {"word": [], "coeff": {"hbar_powers": {"3": {"re": "0", "im": "-2197/1881676376361628489657928971"}}}}]}',
    ),
    (
        'normal(((2/3) q + (5/7) p)^4)',
        '(625/2401) p^4 + (1000/1029) q p^3 + (200/147) q^2 p^2 + (160/189) q^3 p + (16/81) q^4 - (500/343) i hbar p^2 - (400/147) i hbar q p - (80/63) i hbar q^2 - (100/147) hbar^2',
        r"\frac{625}{2401} \hat p^{4} + \frac{1000}{1029} \hat q \hat p^{3} + \frac{200}{147} \hat q^{2} \hat p^{2} + \frac{160}{189} \hat q^{3} \hat p + \frac{16}{81} \hat q^{4} - \frac{500}{343} i \hbar \hat p^{2} - \frac{400}{147} i \hbar \hat q \hat p - \frac{80}{63} i \hbar \hat q^{2} - \frac{100}{147} \hbar^{2}",
        '{"basis": "free", "terms": [{"word": ["p", "p", "p", "p"], "coeff": {"hbar_powers": {"0": {"re": "625/2401", "im": "0"}}}}, {"word": ["q", "p", "p", "p"], "coeff": {"hbar_powers": {"0": {"re": "1000/1029", "im": "0"}}}}, {"word": ["q", "q", "p", "p"], "coeff": {"hbar_powers": {"0": {"re": "200/147", "im": "0"}}}}, {"word": ["q", "q", "q", "p"], "coeff": {"hbar_powers": {"0": {"re": "160/189", "im": "0"}}}}, {"word": ["q", "q", "q", "q"], "coeff": {"hbar_powers": {"0": {"re": "16/81", "im": "0"}}}}, {"word": ["p", "p"], "coeff": {"hbar_powers": {"1": {"re": "0", "im": "-500/343"}}}}, {"word": ["q", "p"], "coeff": {"hbar_powers": {"1": {"re": "0", "im": "-400/147"}}}}, {"word": ["q", "q"], "coeff": {"hbar_powers": {"1": {"re": "0", "im": "-80/63"}}}}, {"word": [], "coeff": {"hbar_powers": {"2": {"re": "-100/147", "im": "0"}}}}]}',
    ),
    (
        'normal(((3/5) p + (5/3) q)^3 ((1/7) q - i p))',
        '-27/125 i p^4 + (27/875 - 9/5 i) q p^3 + (9/35 - 5 i) q^2 p^2 + (5/7 - 125/27 i) q^3 p + (125/189) q^4 + (-9/5 - 81/875 i) hbar p^2 + (-5 - 27/35 i) hbar q p - (10/7) i hbar q^2 - (9/35) hbar^2',
        r"- \frac{27}{125} i \hat p^{4} + \left(\frac{27}{875} - \frac{9}{5} i\right) \hat q \hat p^{3} + \left(\frac{9}{35} - 5 i\right) \hat q^{2} \hat p^{2} + \left(\frac{5}{7} - \frac{125}{27} i\right) \hat q^{3} \hat p + \frac{125}{189} \hat q^{4} + \left(-\frac{9}{5} - \frac{81}{875} i\right) \hbar \hat p^{2} + \left(-5 - \frac{27}{35} i\right) \hbar \hat q \hat p - \frac{10}{7} i \hbar \hat q^{2} - \frac{9}{35} \hbar^{2}",
        '{"basis": "free", "terms": [{"word": ["p", "p", "p", "p"], "coeff": {"hbar_powers": {"0": {"re": "0", "im": "-27/125"}}}}, {"word": ["q", "p", "p", "p"], "coeff": {"hbar_powers": {"0": {"re": "27/875", "im": "-9/5"}}}}, {"word": ["q", "q", "p", "p"], "coeff": {"hbar_powers": {"0": {"re": "9/35", "im": "-5"}}}}, {"word": ["q", "q", "q", "p"], "coeff": {"hbar_powers": {"0": {"re": "5/7", "im": "-125/27"}}}}, {"word": ["q", "q", "q", "q"], "coeff": {"hbar_powers": {"0": {"re": "125/189", "im": "0"}}}}, {"word": ["p", "p"], "coeff": {"hbar_powers": {"1": {"re": "-9/5", "im": "-81/875"}}}}, {"word": ["q", "p"], "coeff": {"hbar_powers": {"1": {"re": "-5", "im": "-27/35"}}}}, {"word": ["q", "q"], "coeff": {"hbar_powers": {"1": {"re": "0", "im": "-10/7"}}}}, {"word": [], "coeff": {"hbar_powers": {"2": {"re": "-9/35", "im": "0"}}}}]}',
    ),
    (
        'normal((i hbar (1/3) p + (2/5) q)^3)',
        '-1/27 i hbar^3 p^3 - (2/15) hbar^2 q p^2 + (4/25) i hbar q^2 p + (8/125) q^3 + (2/15) i hbar^3 p + (4/25) hbar^2 q',
        r"- \frac{1}{27} i \hbar^{3} \hat p^{3} - \frac{2}{15} \hbar^{2} \hat q \hat p^{2} + \frac{4}{25} i \hbar \hat q^{2} \hat p + \frac{8}{125} \hat q^{3} + \frac{2}{15} i \hbar^{3} \hat p + \frac{4}{25} \hbar^{2} \hat q",
        '{"basis": "free", "terms": [{"word": ["p", "p", "p"], "coeff": {"hbar_powers": {"3": {"re": "0", "im": "-1/27"}}}}, {"word": ["q", "p", "p"], "coeff": {"hbar_powers": {"2": {"re": "-2/15", "im": "0"}}}}, {"word": ["q", "q", "p"], "coeff": {"hbar_powers": {"1": {"re": "0", "im": "4/25"}}}}, {"word": ["q", "q", "q"], "coeff": {"hbar_powers": {"0": {"re": "8/125", "im": "0"}}}}, {"word": ["p"], "coeff": {"hbar_powers": {"3": {"re": "0", "im": "2/15"}}}}, {"word": ["q"], "coeff": {"hbar_powers": {"2": {"re": "4/25", "im": "0"}}}}]}',
    ),
    (
        'pb((2/3) q^2 + (5/7) p, (3/11) q p^2)',
        '(8/11) (q^2 o p) - (15/77) S(p^2)',
        r"\frac{8}{11} \hat q^{2} \circ \hat p - \frac{15}{77} \hat p^{2}",
        '{"basis": "weyl", "terms": [{"word": {"n": 2, "m": 1, "deriv": null}, "coeff": {"hbar_powers": {"0": {"re": "8/11", "im": "0"}}}}, {"word": {"n": 0, "m": 2, "deriv": null}, "coeff": {"hbar_powers": {"0": {"re": "-15/77", "im": "0"}}}}]}',
    ),
    (
        'pb((1/6) q^3 - (7/4) p^2, (5/9) q^2 p + (2/3) i hbar q)',
        '(5/18) S(q^4) + (35/9) (q o p^2)',
        r"\frac{5}{18} \hat q^{4} + \frac{35}{9} \hat q \circ \hat p^{2}",
        '{"basis": "weyl", "terms": [{"word": {"n": 4, "m": 0, "deriv": null}, "coeff": {"hbar_powers": {"0": {"re": "5/18", "im": "0"}}}}, {"word": {"n": 1, "m": 2, "deriv": null}, "coeff": {"hbar_powers": {"0": {"re": "35/9", "im": "0"}}}}]}',
    ),
    (
        'pb((3/8) q^2 p^2, (8/3) q p + (1/5) q^3)',
        '-9/20 (q^4 o p)',
        r"- \frac{9}{20} \hat q^{4} \circ \hat p",
        '{"basis": "weyl", "terms": [{"word": {"n": 4, "m": 1, "deriv": null}, "coeff": {"hbar_powers": {"0": {"re": "-9/20", "im": "0"}}}}]}',
    ),
    (
        'comm((2/3) q^2 + (5/7) p, (3/11) q p^2)',
        '(8/11) q^2 p - (15/77) p^2 - (4/11) i hbar q',
        r"\frac{8}{11} \hat q^{2} \hat p - \frac{15}{77} \hat p^{2} - \frac{4}{11} i \hbar \hat q",
        '{"basis": "free", "terms": [{"word": ["q", "q", "p"], "coeff": {"hbar_powers": {"0": {"re": "8/11", "im": "0"}}}}, {"word": ["p", "p"], "coeff": {"hbar_powers": {"0": {"re": "-15/77", "im": "0"}}}}, {"word": ["q"], "coeff": {"hbar_powers": {"1": {"re": "0", "im": "-4/11"}}}}]}',
    ),
    (
        'comm((1/6) q^3 - (7/4) p, (5/9) q^2 p)',
        '(5/18) q^4 + (35/18) q p',
        r"\frac{5}{18} \hat q^{4} + \frac{35}{18} \hat q \hat p",
        '{"basis": "free", "terms": [{"word": ["q", "q", "q", "q"], "coeff": {"hbar_powers": {"0": {"re": "5/18", "im": "0"}}}}, {"word": ["q", "p"], "coeff": {"hbar_powers": {"0": {"re": "35/18", "im": "0"}}}}]}',
    ),
    (
        'comm((3/4) i q p, (4/3) q^2 + (1/9) p^2)',
        '(1/6) i p^2 - 2 i q^2',
        r"\frac{1}{6} i \hat p^{2} - 2 i \hat q^{2}",
        '{"basis": "free", "terms": [{"word": ["p", "p"], "coeff": {"hbar_powers": {"0": {"re": "0", "im": "1/6"}}}}, {"word": ["q", "q"], "coeff": {"hbar_powers": {"0": {"re": "0", "im": "-2"}}}}]}',
    ),
    (
        'S((i hbar) q p + (1/3) q^2)',
        '(1/3) S(q^2)',
        r"\frac{1}{3} \hat q^{2}",
        '{"basis": "weyl", "terms": [{"word": {"n": 2, "m": 0, "deriv": null}, "coeff": {"hbar_powers": {"0": {"re": "1/3", "im": "0"}}}}]}',
    ),
    (
        'S((1/2) i hbar q^2 p + (2/3) hbar q p^2)',
        '0',
        r"0",
        '{"basis": "weyl", "terms": []}',
    ),
    (
        'S((i hbar (2/7)) q^3 + (i hbar) (5/3) p^3 + (1/11) q p)',
        '(1/11) (q o p)',
        r"\frac{1}{11} \hat q \circ \hat p",
        '{"basis": "weyl", "terms": [{"word": {"n": 1, "m": 1, "deriv": null}, "coeff": {"hbar_powers": {"0": {"re": "1/11", "im": "0"}}}}]}',
    ),
    (
        'normal(S((i hbar) q^2 p^2 + (3/5) q p))',
        '(3/5) q p - (3/10) i hbar',
        r"\frac{3}{5} \hat q \hat p - \frac{3}{10} i \hbar",
        '{"basis": "free", "terms": [{"word": ["q", "p"], "coeff": {"hbar_powers": {"0": {"re": "3/5", "im": "0"}}}}, {"word": [], "coeff": {"hbar_powers": {"1": {"re": "0", "im": "-3/10"}}}}]}',
    ),
    (
        'S((2/3) q p) o S((3/2) p q)',
        'q^2 o p^2',
        r"\hat q^{2} \circ \hat p^{2}",
        '{"basis": "weyl", "terms": [{"word": {"n": 2, "m": 2, "deriv": null}, "coeff": {"hbar_powers": {"0": {"re": "1", "im": "0"}}}}]}',
    ),
    (
        '((1/3) S(q p)) o ((1/5) S(q p^2))',
        '(1/15) (q^2 o p^3)',
        r"\frac{1}{15} \hat q^{2} \circ \hat p^{3}",
        '{"basis": "weyl", "terms": [{"word": {"n": 2, "m": 3, "deriv": null}, "coeff": {"hbar_powers": {"0": {"re": "1/15", "im": "0"}}}}]}',
    ),
    (
        '((2/3) q) o ((3/7) p) o ((7/2) q^2)',
        'q^3 o p',
        r"\hat q^{3} \circ \hat p",
        '{"basis": "weyl", "terms": [{"word": {"n": 3, "m": 1, "deriv": null}, "coeff": {"hbar_powers": {"0": {"re": "1", "im": "0"}}}}]}',
    ),
    (
        '(1/3) q + (1/6) q - (1/2) q',
        '0',
        r"0",
        '{"basis": "free", "terms": []}',
    ),
    (
        '(2/3) q p + (1/3) q p - q p + (1/7) p',
        '(1/7) p',
        r"\frac{1}{7} \hat p",
        '{"basis": "free", "terms": [{"word": ["p"], "coeff": {"hbar_powers": {"0": {"re": "1/7", "im": "0"}}}}]}',
    ),
    (
        'normal(p q) - normal(q p) - comm(p, q) * 0',
        '-1 i hbar',
        r"- i \hbar",
        '{"basis": "free", "terms": [{"word": [], "coeff": {"hbar_powers": {"1": {"re": "0", "im": "-1"}}}}]}',
    ),
    (
        '(1/2) q p + (1/2) p q - S(q p)',
        '0',
        r"0",
        '{"basis": "free", "terms": []}',
    ),
    (
        'normal(q p - p q) - i hbar',
        '0',
        r"0",
        '{"basis": "free", "terms": []}',
    ),
    (
        '(3/7) i hbar q - (3/7) i hbar q + (5/11) hbar^2 p',
        '(5/11) hbar^2 p',
        r"\frac{5}{11} \hbar^{2} \hat p",
        '{"basis": "free", "terms": [{"word": ["p"], "coeff": {"hbar_powers": {"2": {"re": "5/11", "im": "0"}}}}]}',
    ),
    (
        'dq(((2/3) q + (5/7) p)^3)',
        '(50/49) p^2 + (20/21) p q + (20/21) q p + (8/9) q^2',
        r"\frac{50}{49} \hat p^{2} + \frac{20}{21} \hat p \hat q + \frac{20}{21} \hat q \hat p + \frac{8}{9} \hat q^{2}",
        '{"basis": "free", "terms": [{"word": ["p", "p"], "coeff": {"hbar_powers": {"0": {"re": "50/49", "im": "0"}}}}, {"word": ["p", "q"], "coeff": {"hbar_powers": {"0": {"re": "20/21", "im": "0"}}}}, {"word": ["q", "p"], "coeff": {"hbar_powers": {"0": {"re": "20/21", "im": "0"}}}}, {"word": ["q", "q"], "coeff": {"hbar_powers": {"0": {"re": "8/9", "im": "0"}}}}]}',
    ),
    (
        'dp((1/3) q^2 p^3 - (5/4) i hbar q p^2)',
        'q^2 p^2 - (5/2) i hbar q p',
        r"\hat q^{2} \hat p^{2} - \frac{5}{2} i \hbar \hat q \hat p",
        '{"basis": "free", "terms": [{"word": ["q", "q", "p", "p"], "coeff": {"hbar_powers": {"0": {"re": "1", "im": "0"}}}}, {"word": ["q", "p"], "coeff": {"hbar_powers": {"1": {"re": "0", "im": "-5/2"}}}}]}',
    ),
    (
        '((1/2) + (1/3) i) q ((1/5) - (2/7) i) p',
        '(41/210 - 8/105 i) q p',
        r"\left(\frac{41}{210} - \frac{8}{105} i\right) \hat q \hat p",
        '{"basis": "free", "terms": [{"word": ["q", "p"], "coeff": {"hbar_powers": {"0": {"re": "41/210", "im": "-8/105"}}}}]}',
    ),
    (
        '((1/999999937) + (1/999999929) i hbar) q^2',
        '(1/999999929) i hbar q^2 + (1/999999937) q^2',
        r"\frac{1}{999999929} i \hbar \hat q^{2} + \frac{1}{999999937} \hat q^{2}",
        '{"basis": "free", "terms": [{"word": ["q", "q"], "coeff": {"hbar_powers": {"1": {"re": "0", "im": "1/999999929"}, "0": {"re": "1/999999937", "im": "0"}}}}]}',
    ),
    (
        'normal(((5/6) - (1/6) i) p^2 q^2)',
        '(5/6 - 1/6 i) q^2 p^2 + (-2/3 - 10/3 i) hbar q p + (-5/3 + 1/3 i) hbar^2',
        r"\left(\frac{5}{6} - \frac{1}{6} i\right) \hat q^{2} \hat p^{2} + \left(-\frac{2}{3} - \frac{10}{3} i\right) \hbar \hat q \hat p + \left(-\frac{5}{3} + \frac{1}{3} i\right) \hbar^{2}",
        '{"basis": "free", "terms": [{"word": ["q", "q", "p", "p"], "coeff": {"hbar_powers": {"0": {"re": "5/6", "im": "-1/6"}}}}, {"word": ["q", "p"], "coeff": {"hbar_powers": {"1": {"re": "-2/3", "im": "-10/3"}}}}, {"word": [], "coeff": {"hbar_powers": {"2": {"re": "-5/3", "im": "1/3"}}}}]}',
    ),
    (
        'comm((2/3) q^2 + (5/7) i p, rho)',
        '(2/3) i hbar^-1 rho q^2 - (2/3) i hbar^-1 q^2 rho - (5/7) hbar^-1 rho p + (5/7) hbar^-1 p rho',
        r"\frac{2}{3} i \hbar^{-1} \hat \rho \hat q^{2} - \frac{2}{3} i \hbar^{-1} \hat q^{2} \hat \rho - \frac{5}{7} \hbar^{-1} \hat \rho \hat p + \frac{5}{7} \hbar^{-1} \hat p \hat \rho",
        '{"basis": "free", "terms": [{"word": ["rho", "q", "q"], "coeff": {"hbar_powers": {"-1": {"re": "0", "im": "2/3"}}}}, {"word": ["q", "q", "rho"], "coeff": {"hbar_powers": {"-1": {"re": "0", "im": "-2/3"}}}}, {"word": ["rho", "p"], "coeff": {"hbar_powers": {"-1": {"re": "-5/7", "im": "0"}}}}, {"word": ["p", "rho"], "coeff": {"hbar_powers": {"-1": {"re": "5/7", "im": "0"}}}}]}',
    ),
    (
        'comm(S(q^6 p^4), S(q^3 p^6))',
        '24 q^8 p^9 - 864 i hbar q^7 p^8 - 11664 hbar^2 q^6 p^7 + 75600 i hbar^3 q^5 p^6 + 250425 hbar^4 q^4 p^5 - 417690 i hbar^5 q^3 p^4 - 323460 hbar^6 q^2 p^3 + 97200 i hbar^7 q p^2 + 7425 hbar^8 p',
        r"24 \hat q^{8} \hat p^{9} - 864 i \hbar \hat q^{7} \hat p^{8} - 11664 \hbar^{2} \hat q^{6} \hat p^{7} + 75600 i \hbar^{3} \hat q^{5} \hat p^{6} + 250425 \hbar^{4} \hat q^{4} \hat p^{5} - 417690 i \hbar^{5} \hat q^{3} \hat p^{4} - 323460 \hbar^{6} \hat q^{2} \hat p^{3} + 97200 i \hbar^{7} \hat q \hat p^{2} + 7425 \hbar^{8} \hat p",
        '{"basis": "free", "terms": [{"word": ["q", "q", "q", "q", "q", "q", "q", "q", "p", "p", "p", "p", "p", "p", "p", "p", "p"], "coeff": {"hbar_powers": {"0": {"re": "24", "im": "0"}}}}, {"word": ["q", "q", "q", "q", "q", "q", "q", "p", "p", "p", "p", "p", "p", "p", "p"], "coeff": {"hbar_powers": {"1": {"re": "0", "im": "-864"}}}}, {"word": ["q", "q", "q", "q", "q", "q", "p", "p", "p", "p", "p", "p", "p"], "coeff": {"hbar_powers": {"2": {"re": "-11664", "im": "0"}}}}, {"word": ["q", "q", "q", "q", "q", "p", "p", "p", "p", "p", "p"], "coeff": {"hbar_powers": {"3": {"re": "0", "im": "75600"}}}}, {"word": ["q", "q", "q", "q", "p", "p", "p", "p", "p"], "coeff": {"hbar_powers": {"4": {"re": "250425", "im": "0"}}}}, {"word": ["q", "q", "q", "p", "p", "p", "p"], "coeff": {"hbar_powers": {"5": {"re": "0", "im": "-417690"}}}}, {"word": ["q", "q", "p", "p", "p"], "coeff": {"hbar_powers": {"6": {"re": "-323460", "im": "0"}}}}, {"word": ["q", "p", "p"], "coeff": {"hbar_powers": {"7": {"re": "0", "im": "97200"}}}}, {"word": ["p"], "coeff": {"hbar_powers": {"8": {"re": "7425", "im": "0"}}}}]}',
    ),
    (
        'comm((q+p)^4, (q-p)^3)',
        '-24 p^5 - 24 q p^4 + 48 q^2 p^3 + 48 q^3 p^2 - 24 q^4 p - 24 q^5 + 48 i hbar p^3 - 144 i hbar q p^2 - 144 i hbar q^2 p + 48 i hbar q^3 - 24 hbar^2 p - 24 hbar^2 q',
        r"- 24 \hat p^{5} - 24 \hat q \hat p^{4} + 48 \hat q^{2} \hat p^{3} + 48 \hat q^{3} \hat p^{2} - 24 \hat q^{4} \hat p - 24 \hat q^{5} + 48 i \hbar \hat p^{3} - 144 i \hbar \hat q \hat p^{2} - 144 i \hbar \hat q^{2} \hat p + 48 i \hbar \hat q^{3} - 24 \hbar^{2} \hat p - 24 \hbar^{2} \hat q",
        '{"basis": "free", "terms": [{"word": ["p", "p", "p", "p", "p"], "coeff": {"hbar_powers": {"0": {"re": "-24", "im": "0"}}}}, {"word": ["q", "p", "p", "p", "p"], "coeff": {"hbar_powers": {"0": {"re": "-24", "im": "0"}}}}, {"word": ["q", "q", "p", "p", "p"], "coeff": {"hbar_powers": {"0": {"re": "48", "im": "0"}}}}, {"word": ["q", "q", "q", "p", "p"], "coeff": {"hbar_powers": {"0": {"re": "48", "im": "0"}}}}, {"word": ["q", "q", "q", "q", "p"], "coeff": {"hbar_powers": {"0": {"re": "-24", "im": "0"}}}}, {"word": ["q", "q", "q", "q", "q"], "coeff": {"hbar_powers": {"0": {"re": "-24", "im": "0"}}}}, {"word": ["p", "p", "p"], "coeff": {"hbar_powers": {"1": {"re": "0", "im": "48"}}}}, {"word": ["q", "p", "p"], "coeff": {"hbar_powers": {"1": {"re": "0", "im": "-144"}}}}, {"word": ["q", "q", "p"], "coeff": {"hbar_powers": {"1": {"re": "0", "im": "-144"}}}}, {"word": ["q", "q", "q"], "coeff": {"hbar_powers": {"1": {"re": "0", "im": "48"}}}}, {"word": ["p"], "coeff": {"hbar_powers": {"2": {"re": "-24", "im": "0"}}}}, {"word": ["q"], "coeff": {"hbar_powers": {"2": {"re": "-24", "im": "0"}}}}]}',
    ),
    (
        'comm(q^3 rho p^2 drho_q, p^4 q^2 rho)',
        'i hbar^-1 q^2 p^4 rho q^3 rho p^2 drho_q - i hbar^-1 q^3 rho p^2 drho_q q^2 p^4 rho + 8 q p^3 rho q^3 rho p^2 drho_q - 8 q^3 rho p^2 drho_q q p^3 rho - 12 i hbar p^2 rho q^3 rho p^2 drho_q + 12 i hbar q^3 rho p^2 drho_q p^2 rho',
        r"i \hbar^{-1} \hat q^{2} \hat p^{4} \hat \rho \hat q^{3} \hat \rho \hat p^{2} \frac{\partial \hat \rho}{\partial \hat q} - i \hbar^{-1} \hat q^{3} \hat \rho \hat p^{2} \frac{\partial \hat \rho}{\partial \hat q} \hat q^{2} \hat p^{4} \hat \rho + 8 \hat q \hat p^{3} \hat \rho \hat q^{3} \hat \rho \hat p^{2} \frac{\partial \hat \rho}{\partial \hat q} - 8 \hat q^{3} \hat \rho \hat p^{2} \frac{\partial \hat \rho}{\partial \hat q} \hat q \hat p^{3} \hat \rho - 12 i \hbar \hat p^{2} \hat \rho \hat q^{3} \hat \rho \hat p^{2} \frac{\partial \hat \rho}{\partial \hat q} + 12 i \hbar \hat q^{3} \hat \rho \hat p^{2} \frac{\partial \hat \rho}{\partial \hat q} \hat p^{2} \hat \rho",
        '{"basis": "free", "terms": [{"word": ["q", "q", "p", "p", "p", "p", "rho", "q", "q", "q", "rho", "p", "p", "drho_q"], "coeff": {"hbar_powers": {"-1": {"re": "0", "im": "1"}}}}, {"word": ["q", "q", "q", "rho", "p", "p", "drho_q", "q", "q", "p", "p", "p", "p", "rho"], "coeff": {"hbar_powers": {"-1": {"re": "0", "im": "-1"}}}}, {"word": ["q", "p", "p", "p", "rho", "q", "q", "q", "rho", "p", "p", "drho_q"], "coeff": {"hbar_powers": {"0": {"re": "8", "im": "0"}}}}, {"word": ["q", "q", "q", "rho", "p", "p", "drho_q", "q", "p", "p", "p", "rho"], "coeff": {"hbar_powers": {"0": {"re": "-8", "im": "0"}}}}, {"word": ["p", "p", "rho", "q", "q", "q", "rho", "p", "p", "drho_q"], "coeff": {"hbar_powers": {"1": {"re": "0", "im": "-12"}}}}, {"word": ["q", "q", "q", "rho", "p", "p", "drho_q", "p", "p", "rho"], "coeff": {"hbar_powers": {"1": {"re": "0", "im": "12"}}}}]}',
    ),
    (
        'normal(S(q^9 p^8))',
        'q^9 p^8 - 36 i hbar q^8 p^7 - 504 hbar^2 q^7 p^6 + 3528 i hbar^3 q^6 p^5 + 13230 hbar^4 q^5 p^4 - 26460 i hbar^5 q^4 p^3 - 26460 hbar^6 q^3 p^2 + 11340 i hbar^7 q^2 p + (2835/2) hbar^8 q',
        r"\hat q^{9} \hat p^{8} - 36 i \hbar \hat q^{8} \hat p^{7} - 504 \hbar^{2} \hat q^{7} \hat p^{6} + 3528 i \hbar^{3} \hat q^{6} \hat p^{5} + 13230 \hbar^{4} \hat q^{5} \hat p^{4} - 26460 i \hbar^{5} \hat q^{4} \hat p^{3} - 26460 \hbar^{6} \hat q^{3} \hat p^{2} + 11340 i \hbar^{7} \hat q^{2} \hat p + \frac{2835}{2} \hbar^{8} \hat q",
        '{"basis": "free", "terms": [{"word": ["q", "q", "q", "q", "q", "q", "q", "q", "q", "p", "p", "p", "p", "p", "p", "p", "p"], "coeff": {"hbar_powers": {"0": {"re": "1", "im": "0"}}}}, {"word": ["q", "q", "q", "q", "q", "q", "q", "q", "p", "p", "p", "p", "p", "p", "p"], "coeff": {"hbar_powers": {"1": {"re": "0", "im": "-36"}}}}, {"word": ["q", "q", "q", "q", "q", "q", "q", "p", "p", "p", "p", "p", "p"], "coeff": {"hbar_powers": {"2": {"re": "-504", "im": "0"}}}}, {"word": ["q", "q", "q", "q", "q", "q", "p", "p", "p", "p", "p"], "coeff": {"hbar_powers": {"3": {"re": "0", "im": "3528"}}}}, {"word": ["q", "q", "q", "q", "q", "p", "p", "p", "p"], "coeff": {"hbar_powers": {"4": {"re": "13230", "im": "0"}}}}, {"word": ["q", "q", "q", "q", "p", "p", "p"], "coeff": {"hbar_powers": {"5": {"re": "0", "im": "-26460"}}}}, {"word": ["q", "q", "q", "p", "p"], "coeff": {"hbar_powers": {"6": {"re": "-26460", "im": "0"}}}}, {"word": ["q", "q", "p"], "coeff": {"hbar_powers": {"7": {"re": "0", "im": "11340"}}}}, {"word": ["q"], "coeff": {"hbar_powers": {"8": {"re": "2835/2", "im": "0"}}}}]}',
    ),
    (
        'normal(2 S(q^5 p^4) + (1/3) S(q^4 p^5))',
        '(1/3) q^4 p^5 + 2 q^5 p^4 - (10/3) i hbar q^3 p^4 - 20 i hbar q^4 p^3 - 10 hbar^2 q^2 p^3 - 60 hbar^2 q^3 p^2 + 10 i hbar^3 q p^2 + 60 i hbar^3 q^2 p + (5/2) hbar^4 p + 15 hbar^4 q',
        r"\frac{1}{3} \hat q^{4} \hat p^{5} + 2 \hat q^{5} \hat p^{4} - \frac{10}{3} i \hbar \hat q^{3} \hat p^{4} - 20 i \hbar \hat q^{4} \hat p^{3} - 10 \hbar^{2} \hat q^{2} \hat p^{3} - 60 \hbar^{2} \hat q^{3} \hat p^{2} + 10 i \hbar^{3} \hat q \hat p^{2} + 60 i \hbar^{3} \hat q^{2} \hat p + \frac{5}{2} \hbar^{4} \hat p + 15 \hbar^{4} \hat q",
        '{"basis": "free", "terms": [{"word": ["q", "q", "q", "q", "p", "p", "p", "p", "p"], "coeff": {"hbar_powers": {"0": {"re": "1/3", "im": "0"}}}}, {"word": ["q", "q", "q", "q", "q", "p", "p", "p", "p"], "coeff": {"hbar_powers": {"0": {"re": "2", "im": "0"}}}}, {"word": ["q", "q", "q", "p", "p", "p", "p"], "coeff": {"hbar_powers": {"1": {"re": "0", "im": "-10/3"}}}}, {"word": ["q", "q", "q", "q", "p", "p", "p"], "coeff": {"hbar_powers": {"1": {"re": "0", "im": "-20"}}}}, {"word": ["q", "q", "p", "p", "p"], "coeff": {"hbar_powers": {"2": {"re": "-10", "im": "0"}}}}, {"word": ["q", "q", "q", "p", "p"], "coeff": {"hbar_powers": {"2": {"re": "-60", "im": "0"}}}}, {"word": ["q", "p", "p"], "coeff": {"hbar_powers": {"3": {"re": "0", "im": "10"}}}}, {"word": ["q", "q", "p"], "coeff": {"hbar_powers": {"3": {"re": "0", "im": "60"}}}}, {"word": ["p"], "coeff": {"hbar_powers": {"4": {"re": "5/2", "im": "0"}}}}, {"word": ["q"], "coeff": {"hbar_powers": {"4": {"re": "15", "im": "0"}}}}]}',
    ),
    # A scalar of several grades beside a Weyl value, and a zero scalar.
    (
        '(2 - i hbar) S(q p)',
        '-1 i hbar (q o p) + 2 (q o p)',
        r"- i \hbar \hat q \circ \hat p + 2 \hat q \circ \hat p",
        '{"basis": "weyl", "terms": [{"word": {"n": 1, "m": 1, "deriv": null}, "coeff": {"hbar_powers": {"1": {"re": "0", "im": "-1"}, "0": {"re": "2", "im": "0"}}}}]}',
    ),
    (
        'S(q p) (1/2 + hbar^-1)',
        '(1/2) (q o p) + hbar^-1 (q o p)',
        r"\frac{1}{2} \hat q \circ \hat p + \hbar^{-1} \hat q \circ \hat p",
        '{"basis": "weyl", "terms": [{"word": {"n": 1, "m": 1, "deriv": null}, "coeff": {"hbar_powers": {"0": {"re": "1/2", "im": "0"}, "-1": {"re": "1", "im": "0"}}}}]}',
    ),
    (
        'S(q) + (1 + i hbar)',
        'S(q) + i hbar + 1',
        r"\hat q + i \hbar + 1",
        '{"basis": "weyl", "terms": [{"word": {"n": 1, "m": 0, "deriv": null}, "coeff": {"hbar_powers": {"0": {"re": "1", "im": "0"}}}}, {"word": {"n": 0, "m": 0, "deriv": null}, "coeff": {"hbar_powers": {"1": {"re": "0", "im": "1"}, "0": {"re": "1", "im": "0"}}}}]}',
    ),
    (
        '(q - q) S(p)',
        '0',
        r"0",
        '{"basis": "weyl", "terms": []}',
    ),
]


@pytest.mark.parametrize(
    "source, text, latex, json_text",
    GOLDEN + COEFFICIENT_GOLDEN,
    ids=[row[0] for row in GOLDEN + COEFFICIENT_GOLDEN],
)
def test_golden_renders(source, text, latex, json_text):
    value = ev(source)
    assert render_text(value) == text
    assert render_latex(value) == latex
    assert render_json(value) == json_text


# -- the JSON writer against an independent reference --------------------------


def reference_json_dict(x) -> dict:
    """The JSON document of ``x`` built as Python objects from the public
    fields of its terms, in the printer's term order, for ``json.dumps``."""
    free = isinstance(x, FreePolynomial)
    terms = []
    for key, run in groupby(_display_terms(x), key=lambda term: term[0]):
        if free:
            word: object = [letter.symbol for letter in key.letters]
        else:
            word = {"n": key.n, "m": key.m, "deriv": key.deriv.symbol if key.deriv else None}
        grades = {str(c.hbar_power): {"re": str(c.re), "im": str(c.im)} for _, c in run}
        terms.append({"word": word, "coeff": {"hbar_powers": grades}})
    return {"basis": "free" if free else "weyl", "terms": terms}


def assert_json_document(x) -> None:
    document = render_json(x)
    assert document == json.dumps(reference_json_dict(x))
    assert json.dumps(json.loads(document)) == document
    parsed = result_to_json_dict(x)
    assert parsed == reference_json_dict(x)
    assert json.dumps(parsed) == document  # and so its keys are in document order


@pytest.mark.parametrize("source", [row[0] for row in GOLDEN + COEFFICIENT_GOLDEN])
def test_json_writer_matches_the_reference_on_the_golden_sources(source):
    assert_json_document(ev(source))


@pytest.mark.parametrize("deriv", [None, Letter.DRHO_Q, Letter.DRHO_P])
def test_json_writer_matches_the_reference_on_one_key_at_several_grades(deriv):
    c = HbarScalar.of(Fraction(-2, 3), Fraction(5, 2))
    grades = [(-2, c), (-1, c.conjugate()), (0, HbarScalar.real(7)), (3, HbarScalar.imag(-1))]
    for cls, key in ((WeylPolynomial, WeylMonomial(1, 2, deriv)), (FreePolynomial, Word.of(Q, deriv or P))):
        x = cls([(key, HbarScalar.of(c.re, c.im, grade)) for grade, c in grades])
        assert_json_document(x)
        assert len(result_to_json_dict(x)["terms"]) == 1


_nonzero_parts = st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool)
_json_coefficients = st.one_of(
    st.builds(lambda re: (re, 0), _nonzero_parts),
    st.builds(lambda im: (0, im), _nonzero_parts),
    st.tuples(_nonzero_parts, _nonzero_parts),
)
_json_keys = {
    FreePolynomial: st.lists(st.sampled_from(list(Letter)), max_size=3).map(
        lambda letters: Word(tuple(letters))
    ),
    WeylPolynomial: _monomials,
}


@pytest.mark.parametrize("cls", [FreePolynomial, WeylPolynomial], ids=["free", "weyl"])
@given(data=st.data())
def test_json_writer_matches_the_reference_on_drawn_values(cls, data):
    terms = data.draw(
        st.lists(st.tuples(_json_keys[cls], _json_coefficients, st.integers(-2, 3)), max_size=6)
    )
    x = cls([(key, HbarScalar.of(re, im, grade)) for key, (re, im), grade in terms])
    assert_json_document(x)


def test_json_writer_matches_the_reference_on_zero_values():
    for cls in (FreePolynomial, WeylPolynomial):
        assert_json_document(cls.zero())


# -- the shared text/LaTeX loop against the two per-format loops ---------------


def _weyl_monomial_text(m: WeylMonomial) -> str:
    """The text Weyl body, with the text rules inline."""
    if m.n and m.m:
        text = f"{_TEXT.raised('q', m.n)} o {_TEXT.raised('p', m.m)}"
        return f"{text} o {m.deriv.symbol}" if m.deriv else text
    if m.n or m.m:
        inner = _TEXT.raised("q", m.n) if m.n else _TEXT.raised("p", m.m)
        text = f"S({inner})"
        return f"{text} o {m.deriv.symbol}" if m.deriv else text
    return f"S({m.deriv.symbol})" if m.deriv else ""


def _latex_weyl_monomial(m: WeylMonomial) -> str:
    """The LaTeX Weyl body, with the LaTeX rules inline."""
    parts: list[str] = []
    if m.n:
        parts.append(_LATEX.raised(_LATEX.letters[Letter.Q], m.n))
    if m.m:
        parts.append(_LATEX.raised(_LATEX.letters[Letter.P], m.m))
    if m.deriv:
        parts.append(_LATEX.letters[m.deriv])
    return r" \circ ".join(parts)


@pytest.mark.parametrize(
    "deriv", [None, Letter.DRHO_Q, Letter.DRHO_P], ids=["none", "drho_q", "drho_p"]
)
def test_one_weyl_body_matches_the_per_format_bodies(deriv):
    for n in range(5):
        for m in range(5):  # n = m = 0: the empty key, or a lone derivative letter
            key = WeylMonomial(n, m, deriv)
            assert _weyl(key, _TEXT) == _weyl_monomial_text(key), key
            assert _weyl(key, _LATEX) == _latex_weyl_monomial(key), key


def reference_render_text(x) -> str:
    """The text render as its own term loop, with the text rules inline."""
    terms = _display_terms(x)
    if not terms:
        return "0"
    free = isinstance(x, FreePolynomial)
    rendered: list[str] = []
    for index, (key, coeff) in enumerate(terms):
        sign, tokens = _coeff_tokens(coeff, _TEXT)
        body = _word(key, _TEXT) if free else _weyl_monomial_text(key)
        leading = index == 0
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


def reference_render_latex(x) -> str:
    """The LaTeX render as its own term loop, with the LaTeX rules inline."""
    terms = _display_terms(x)
    if not terms:
        return "0"
    free = isinstance(x, FreePolynomial)
    out: list[str] = []
    for index, (key, coeff) in enumerate(terms):
        sign, tokens = _coeff_tokens(coeff, _LATEX)
        body = _word(key, _LATEX) if free else _latex_weyl_monomial(key)
        parts = tokens + ([body] if body else [])
        text = " ".join(parts) if parts else "1"
        if index == 0:
            out.append(f"- {text}" if sign < 0 else text)
        else:
            out.append(f"{'+' if sign > 0 else '-'} {text}")
    return " ".join(out)


def assert_reference_renders(x) -> None:
    assert render_text(x) == reference_render_text(x)
    assert render_latex(x) == reference_render_latex(x)


@pytest.mark.parametrize("source", [row[0] for row in GOLDEN + COEFFICIENT_GOLDEN])
def test_text_and_latex_match_the_reference_loops_on_the_golden_sources(source):
    assert_reference_renders(ev(source))


# Real, imaginary and mixed coefficients with rational and unit magnitudes of
# either sign, often at grade 0, so that a lone -1 or -i leads; keys with the
# empty (identity) body, state and derivative letters, and Weyl bodies with
# " o ".  Each value is also rendered negated.
_unit_or_rational = st.one_of(st.sampled_from([1, -1]), _nonzero_parts)
_render_coefficients = st.one_of(
    st.builds(lambda re: (re, 0), _unit_or_rational),
    st.builds(lambda im: (0, im), _unit_or_rational),
    st.tuples(_unit_or_rational, _unit_or_rational),
)
_render_grades = st.one_of(st.just(0), st.integers(-2, 3))


@pytest.mark.parametrize("cls", [FreePolynomial, WeylPolynomial], ids=["free", "weyl"])
@given(data=st.data())
def test_text_and_latex_match_the_reference_loops_on_drawn_values(cls, data):
    terms = data.draw(
        st.lists(st.tuples(_json_keys[cls], _render_coefficients, _render_grades), max_size=4)
    )
    x = cls([(key, HbarScalar.of(re, im, grade)) for key, (re, im), grade in terms])
    assert_reference_renders(x)
    assert_reference_renders(-x)


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="str() writes ints of any length here",
)
def test_json_dict_of_a_too_long_coefficient_is_a_user_error():
    x = ev("2^15000")  # 4,516 digits
    limit = sys.get_int_max_str_digits()
    message = f"^coefficient too long to print \\(more than {limit} digits\\)$"
    for convert in (result_to_json_dict, render_json):
        with pytest.raises(UnsupportedFragmentError, match=message):
            convert(x)


def test_bool_exponents_and_grades_render_as_their_int_twins():
    pairs = [
        (WeylMonomial(True, 2), WeylMonomial(1, 2)),
        (WeylMonomial(False, True, Letter.DRHO_Q), WeylMonomial(0, 1, Letter.DRHO_Q)),
    ]
    values = [(WeylPolynomial.from_monomial(b), WeylPolynomial.from_monomial(i)) for b, i in pairs]
    values += [
        (cls.one().scale(HbarScalar(1, 0, True)), cls.one().scale(HbarScalar(1, 0, 1)))
        for cls in (FreePolynomial, WeylPolynomial)
    ]
    for built, twin in values:
        assert result_to_json_dict(built) == json.loads(render_json(built))
        for fmt in ("text", "latex", "json"):
            assert render(built, fmt) == render(twin, fmt)
