"""Independent exactness oracle: the polynomial Schrodinger representation.

The pure q/p algebra acts faithfully on polynomials in a formal variable x
by ``q = multiply by x`` and ``p = -i*hbar * d/dx``, with hbar kept formal
and all coefficients exact.  Two operators are equal exactly when their
images of ``x**0 .. x**D`` agree, ``D`` one more than their largest word
length; the README ("Why the oracle's finite test degree suffices") gives
the argument and each word's closed-form action.  The oracle never rewrites
words and never calls the normal form.  State words have no faithful
finite action here and are rejected; identities involving them are settled
by the free normal form.
"""

from __future__ import annotations

from typing import Iterable

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


def _images(op: FreePolynomial, degrees: Iterable[int]) -> dict:
    """The images of ``x**j`` under ``op`` for ``j`` in ``degrees``, one slot
    map keyed by ``((j, image degree), grade)``.

    Each word is read once, right to left, for the offsets ``o`` at which
    its ``k`` p's meet the degree and for its rise ``#q - #p``; it maps
    ``x**j`` to ``(-i*hbar)**k * prod(j + o) * x**(j + rise)``, which is
    zero exactly for ``j < 1 - min(o)`` (see the README).  The products are
    summed as ints per source coefficient at ``(j, image degree, k)``, and
    each sum ``n`` makes one scalar, ``n * coeff * (-i*hbar)**k``.
    """
    Q = Letter.Q
    counts_by_coeff: dict[HbarScalar, dict] = {}
    for (word, _), coeff in op._terms.items():
        letters = word.letters
        if not STATE_LETTERS.isdisjoint(letters):
            raise UnsupportedFragmentError("the polynomial representation acts on q/p words only")
        offsets, rise = [], 0
        for letter in reversed(letters):
            if letter is Q:
                rise += 1
            else:
                offsets.append(rise)
                rise -= 1
        k = len(offsets)
        lowest = 1 - min(offsets, default=1)
        counts = counts_by_coeff.setdefault(coeff, {})
        for j in degrees:
            if j >= lowest:
                n = 1
                for offset in offsets:
                    n *= j + offset
                slot = (j, j + rise, k)
                counts[slot] = counts.get(slot, 0) + n
    terms = []
    for coeff, counts in counts_by_coeff.items():
        units: dict[int, HbarScalar] = {}  # coeff * (-i*hbar)**k by k
        for (j, image, k), n in counts.items():
            unit = units.get(k)
            if unit is None:
                unit = units[k] = coeff * minus_i_hbar_power(k)
            terms.append((((j, image), unit.hbar_power), unit * n))
    return sum_into({}, terms)


def apply_operator(op: FreePolynomial, f: TestFunction) -> TestFunction:
    """Act with ``op`` on ``f``, letters applied right to left; exact and linear.

    Every word with a state letter raises, whatever ``f`` is.
    """
    by_degree: dict[int, list[HbarScalar]] = {}
    for (degree, _), c in f._terms.items():
        by_degree.setdefault(degree, []).append(c)
    terms = []
    for ((j, image), _), scalar in _images(op, by_degree).items():
        for c in by_degree[j]:
            product = scalar * c
            terms.append(((image, product.hbar_power), product))
    return TestFunction._of(sum_into({}, terms))


def oracle_equal(a: FreePolynomial, b: FreePolynomial) -> bool:
    """Decide operator equality by the images of ``x**j`` for ``j`` up to one
    more than the larger total degree of the two operands, which per the
    README is already past the faithful threshold."""
    degrees = range(max(a.max_word_length, b.max_word_length) + 2)
    return _images(a, degrees) == _images(b, degrees)
