import json
from fractions import Fraction

import pytest

from opalg.core import FreePolynomial, IDENTITY_WORD, Letter, Word
from opalg.parser import evaluate, parse
from opalg.printing import render, render_json, render_latex, render_text, result_to_json_dict
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
    # canonical key order is (length, letters) with q < p; display reverses it
    x = ev("1 + q + q^2 + q p")
    assert render_text(x) == "q p + q^2 + q + 1"
    assert render_text(ev("1 + q + p")) == "p + q + 1"


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
]


@pytest.mark.parametrize("source, text, latex, json_text", GOLDEN, ids=[row[0] for row in GOLDEN])
def test_golden_renders(source, text, latex, json_text):
    value = ev(source)
    assert render_text(value) == text
    assert render_latex(value) == latex
    assert render_json(value) == json_text
