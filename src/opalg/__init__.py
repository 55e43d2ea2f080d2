"""Exact symbolic operator algebra for the canonical pair (q, p).

Free noncommutative polynomials over q, p and an opaque state symbol,
normal ordering under the canonical commutation relation, the Weyl
symmetrizer with its symmetric product and operatorial Poisson bracket,
a classical commutative mirror, machine checkers for the bracket
identities, and an independent polynomial-representation oracle.
"""

from types import ModuleType as _Module

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

# Every public name imported above, and no submodule; tests/test_exports.py
# pins the list.
__all__ = sorted(
    name for name, value in globals().items() if name[0] != "_" and not isinstance(value, _Module)
)
