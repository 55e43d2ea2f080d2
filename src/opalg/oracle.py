"""Independent exactness oracle: the polynomial Schrodinger representation.

The pure q/p algebra acts faithfully on polynomials in a formal variable x
by ``q = multiply by x`` and ``p = -i*hbar * d/dx``, with hbar kept formal
and all coefficients exact.  This gives a second, structurally unrelated
route to operator equality: two operators are compared by applying them to
the monomials ``x**k`` instead of by rewriting.

Why a finite test degree suffices: write an operator in normal form as a
sum of ``c * hbar**k * q**a p**b``.  Acting on ``x**j`` (for ``j >= b``)
contributes ``c * (-i*hbar)**b * j!/(j-b)! * x**(j + a - b)``.  Group terms
by the offset ``a - b``: within one offset, the contribution to the image
of ``x**j`` is a linear combination of the falling factorials
``j!/(j-b)!``, and the matrix of falling factorials over ``j = 0..D`` is
triangular with nonzero diagonal once ``D`` reaches the largest ``b``.  So
the images of ``x**0 .. x**D`` determine every coefficient with p-degree at
most ``D``, and testing up to the total degree of the operands decides
equality exactly.  (State words have no faithful finite action here and are
rejected; identities involving them are settled by the free normal form.)

Each word acts with plain ints: on ``x**d``, ``q`` raises the degree and
``p`` multiplies by it and lowers it, and the word's ``(-i*hbar)**k`` for
its ``k`` p's is one scalar.  The oracle never rewrites words.
"""

from __future__ import annotations

from .core import FreePolynomial, Letter, STATE_LETTERS
from .errors import UnsupportedFragmentError
from .scalars import HbarScalar, ONE, minus_i_hbar_power
from .terms import GradedTerms, sum_into


class TestFunction(GradedTerms):
    """An exact polynomial in x, keyed by degree, with graded coefficients."""

    __test__ = False  # not a pytest class, despite the name
    __slots__ = ()

    @classmethod
    def _validate_pair(cls, key: int, scalar: HbarScalar) -> None:
        if not isinstance(key, int) or key < 0:
            raise TypeError("TestFunction keys are non-negative integer degrees")

    @classmethod
    def x_power(cls, degree: int, coeff: HbarScalar = ONE) -> TestFunction:
        return cls([(degree, coeff)])


def apply_operator(op: FreePolynomial, f: TestFunction) -> TestFunction:
    """Act with ``op`` on ``f``, letters applied right to left; exact and linear.

    Every word with a state letter raises, whatever ``f`` is.
    """
    f_terms = f._terms.items()
    Q, P = Letter.Q, Letter.P
    terms = []
    for (word, _), coeff in op._terms.items():
        letters = word.letters
        if not STATE_LETTERS.isdisjoint(letters):
            raise UnsupportedFragmentError(
                "the polynomial representation acts on q/p words only"
            )
        k = letters.count(P)
        shift = len(letters) - 2 * k
        word_coeff = coeff * minus_i_hbar_power(k)
        for (degree, _), c in f_terms:
            factor, d = 1, degree
            for letter in reversed(letters):
                if letter is Q:
                    d += 1
                elif d:
                    factor *= d
                    d -= 1
                else:  # p annihilates x**0
                    factor = 0
                    break
            if factor:
                scalar = word_coeff * c * factor
                terms.append(((degree + shift, scalar.hbar_power), scalar))
    return TestFunction._of(sum_into({}, terms))


def oracle_equal(a: FreePolynomial, b: FreePolynomial) -> bool:
    """Decide operator equality by action on ``x**k`` for ``k`` up to one
    more than the larger total degree of the two operands, which per the
    module docstring is already past the faithful threshold."""
    degree = max(a.max_word_length, b.max_word_length) + 1
    return all(
        apply_operator(a, TestFunction.x_power(k))
        == apply_operator(b, TestFunction.x_power(k))
        for k in range(degree + 1)
    )
