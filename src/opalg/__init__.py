"""Exact symbolic operator algebra for the canonical pair (q, p).

Free noncommutative polynomials over q, p and an opaque state symbol,
normal ordering under the canonical commutation relation, the Weyl
symmetrizer with its symmetric product and operatorial Poisson bracket,
a classical commutative mirror, machine checkers for the bracket
identities, and an independent polynomial-representation oracle.
"""

from .brackets import (
    ClassicalPolynomial,
    EqualityReport,
    ObstructionReport,
    check_anticommutator_identity,
    check_leibniz,
    check_obstruction,
    check_von_neumann_equivalence,
    commutator_bracket,
    leibniz_ordinary_product_gap,
    poisson_bracket_classical,
    quantize,
    substitute_drho,
    symmetrized_poisson_bracket,
)
from .core import (
    FreePolynomial,
    Letter,
    Word,
    adjoint,
    multiply,
    normal_order,
    partial_derivative,
)
from .errors import EvalError, ParseError, UnsupportedFragmentError
from .oracle import oracle_equal
from .parser import evaluate, parse
from .printing import render, render_json, render_latex, render_text, result_to_json_dict
from .scalars import HBAR, HbarScalar, I, I_HBAR, INV_I_HBAR, ONE, ZERO
from .weyl import (
    WeylMonomial,
    WeylPolynomial,
    expand,
    expand_polynomial,
    normal_form_of_weyl,
    symmetrize,
    weyl_derivative,
    weyl_product,
)

__version__ = "0.1.0"

__all__ = [
    "ClassicalPolynomial",
    "EqualityReport",
    "EvalError",
    "FreePolynomial",
    "HBAR",
    "HbarScalar",
    "I",
    "I_HBAR",
    "INV_I_HBAR",
    "Letter",
    "ONE",
    "ObstructionReport",
    "ParseError",
    "UnsupportedFragmentError",
    "Word",
    "WeylMonomial",
    "WeylPolynomial",
    "ZERO",
    "adjoint",
    "check_anticommutator_identity",
    "check_leibniz",
    "check_obstruction",
    "check_von_neumann_equivalence",
    "commutator_bracket",
    "evaluate",
    "expand",
    "expand_polynomial",
    "leibniz_ordinary_product_gap",
    "multiply",
    "normal_form_of_weyl",
    "normal_order",
    "oracle_equal",
    "parse",
    "partial_derivative",
    "poisson_bracket_classical",
    "quantize",
    "render",
    "render_json",
    "render_latex",
    "render_text",
    "result_to_json_dict",
    "substitute_drho",
    "symmetrize",
    "symmetrized_poisson_bracket",
    "weyl_derivative",
    "weyl_product",
]
