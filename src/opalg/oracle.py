"""Independent exactness oracle: the polynomial Schrodinger representation.

The pure q/p algebra acts faithfully on polynomials in a formal variable x
by ``q = multiply by x`` and ``p = -i*hbar * d/dx``, with hbar kept formal
and all coefficients exact.  Two operators are equal exactly when their
images of ``x**0 .. x**D`` agree, ``D`` one more than their largest word
length; the README ("Why the oracle's finite test degree suffices") gives
the argument and each word's closed-form action.  :func:`oracle_equal`
sums the images of one operand's terms and of the other's negated terms in
one map of Gaussian integers over a common denominator, and the operands
are equal when every entry is zero.  The oracle never rewrites words and
never calls the normal form.  State words have no faithful finite action
here and are rejected; identities involving them are settled by the free
normal form.
"""

from __future__ import annotations

from math import lcm, prod
from typing import Iterable

from .core import FreePolynomial, Letter, STATE_LETTERS, Word
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


def _action(word: Word) -> tuple[list[int], int, int]:
    """How ``word`` acts on ``x**j``, read right to left: the offsets ``o``
    at which its ``k`` p's meet the degree, its rise ``#q - #p``, and the
    lowest ``j`` it does not annihilate.  It maps ``x**j`` to
    ``(-i*hbar)**k * prod(j + o) * x**(j + rise)``, which is zero exactly
    for ``j < 1 - min(o)`` (see the README).  A state letter raises."""
    letters = word.letters
    if not STATE_LETTERS.isdisjoint(letters):
        raise UnsupportedFragmentError("the polynomial representation acts on q/p words only")
    offsets, rise, Q = [], 0, Letter.Q
    for letter in reversed(letters):
        if letter is Q:
            rise += 1
        else:
            offsets.append(rise)
            rise -= 1
    return offsets, rise, 1 - min(offsets, default=1)


def _images(terms: list, degrees: Iterable[int]) -> dict:
    """The images of ``x**j`` for ``j`` in ``degrees`` under the sum of
    ``terms``, each ``((word, grade), re, im)`` with ``Fraction`` parts for
    ``(re + im*i) * hbar**grade * word``: one map of Gaussian integers
    ``(re, im)`` over the common denominator of every part, keyed by
    ``(j, image degree, grade + k)``."""
    den = lcm(*(part.denominator for _, re, im in terms for part in (re, im)))
    images: dict[tuple[int, int, int], tuple[int, int]] = {}
    for (word, grade), re, im in terms:
        offsets, rise, lowest = _action(word)
        k = len(offsets)
        re, im = re.numerator * (den // re.denominator), im.numerator * (den // im.denominator)
        for _ in range(k % 4):
            re, im = im, -re  # times -i
        for j in degrees:
            if j >= lowest:
                n = prod(j + offset for offset in offsets)
                slot = (j, j + rise, grade + k)
                sum_re, sum_im = images.get(slot, (0, 0))
                images[slot] = (sum_re + n * re, sum_im + n * im)
    return images


def apply_operator(op: FreePolynomial, f: TestFunction) -> TestFunction:
    """Act with ``op`` on ``f``, exact and linear: each term ``c * word`` maps
    each term ``c_f * x**j`` of ``f`` to
    ``c * c_f * (-i*hbar)**k * prod(j + o) * x**(j + rise)``.

    Every word with a state letter raises, whatever ``f`` is.
    """
    terms = []
    for (word, _), c in op._terms.items():
        offsets, rise, lowest = _action(word)
        unit = c * minus_i_hbar_power(len(offsets))
        for (j, _), c_f in f._terms.items():
            if j >= lowest:
                product = unit * c_f * prod(j + offset for offset in offsets)
                terms.append(((j + rise, product.hbar_power), product))
    return TestFunction._of(sum_into({}, terms))


def oracle_equal(a: FreePolynomial, b: FreePolynomial) -> bool:
    """Decide operator equality by the images of ``x**j`` for ``j`` up to one
    more than the larger total degree of the two operands, which per the
    README is already past the faithful threshold.  Every word of both
    operands is read, so a state word raises even where it appears in both."""
    degrees = range(max(a.max_word_length, b.max_word_length) + 2)
    terms = [(slot, c.re, c.im) for slot, c in a._terms.items()]
    terms += [(slot, -c.re, -c.im) for slot, c in b._terms.items()]
    return not any(re or im for re, im in _images(terms, degrees).values())
