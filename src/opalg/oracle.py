"""Independent exactness oracle: the polynomial Schrodinger representation.

The pure q/p algebra acts faithfully on polynomials in a formal variable x
by ``q = multiply by x`` and ``p = -i*hbar * d/dx``, with hbar kept formal
and all coefficients exact.  Two operators are equal exactly when their
images of ``x**0 .. x**D`` agree, ``D`` their largest word length; the
README ("Why the oracle's finite test degree suffices") gives the argument
and each word's closed-form action.  The oracle decides equality and
nothing else: :func:`oracle_equal`, its one entry, sums the images of one
operand's terms and of the other's negated terms (:func:`_images`) in one
map of Gaussian integers over a common denominator, and the operands are
equal when every entry is zero.  The oracle never rewrites words and
never calls the normal form.  State words have no faithful finite action
here and are rejected; identities involving them are settled by the free
normal form.
"""

from __future__ import annotations

from math import lcm, perm
from typing import Iterable

from .core import FreePolynomial, Letter, STATE_LETTERS, Word
from .errors import UnsupportedFragmentError
from .scalars import times_minus_i_hbar_power


# Bound once: reading a member off ``Letter`` costs about 0.1 us.
_P = Letter.P


def _action(word: Word) -> tuple[list[tuple[int, int]], int, int, int]:
    """How ``word`` acts on ``x**j``, read right to left: its p-runs as
    ``(R, r)``, a run of ``r`` p's met at rise ``R``, its p-count ``k``, its
    rise ``#q - #p``, and the lowest ``j`` it does not annihilate.  It maps
    ``x**j`` to ``(-i*hbar)**k * prod(perm(j + R, r)) * x**(j + rise)``,
    which is zero exactly for ``j < max(r - R)`` (see the README).  A state
    letter raises."""
    letters = word.letters
    if not STATE_LETTERS.isdisjoint(letters):
        raise UnsupportedFragmentError("the polynomial representation acts on q/p words only")
    runs, rise, lowest, run, r = [], 0, 0, None, 0
    for letter in letters[::-1] + (None,):  # None ends the last run
        if letter is run:
            r += 1
            continue
        if run is _P:
            runs.append((rise, r))
            lowest = max(lowest, r - rise)
            rise -= r
        elif r:
            rise += r
        run, r = letter, 1
    return runs, letters.count(_P), rise, lowest


def _images(terms: list, degrees: Iterable[int]) -> tuple[int, dict]:
    """The images of ``x**j`` for ``j`` in ``degrees`` under the sum of
    ``terms``, each ``((word, grade), c)`` for ``c * word``, read from the
    ints of the scalar ``c``: the common denominator ``den`` of every
    coefficient, and one map of Gaussian integers ``(re, im)`` over ``den``,
    keyed by ``(j, image degree, grade + k)``.  Each p-run of a word is one
    falling factorial, one C call per run."""
    den = lcm(*(c._den for _, c in terms))
    images: dict[tuple[int, int, int], tuple[int, int]] = {}
    for (word, grade), c in terms:
        runs, k, rise, lowest = _action(word)
        c = times_minus_i_hbar_power(c, 1, k)
        scale = den // c._den
        re, im, grade = c._re * scale, c._im * scale, grade + k
        for j in degrees:
            if j >= lowest:
                n = 1
                for R, r in runs:
                    n *= perm(j + R, r)
                slot = (j, j + rise, grade)
                sum_re, sum_im = images.get(slot, (0, 0))
                images[slot] = (sum_re + n * re, sum_im + n * im)
    return den, images


def oracle_equal(a: FreePolynomial, b: FreePolynomial) -> bool:
    """Decide operator equality by the images of ``x**j`` for ``j`` up to the
    larger total degree of the two operands, which per the README is the
    faithful threshold.  The images of ``a``'s terms and of ``b``'s negated
    terms are summed from the scalars' ints, and the operands are equal
    when every sum is zero.  Every word of both
    operands is read, so a state word raises even where it appears in both."""
    degrees = range(max(a.max_word_length, b.max_word_length) + 1)
    terms = list(a._terms.items())
    terms += [(slot, -c) for slot, c in b._terms.items()]
    _, images = _images(terms, degrees)
    return not any(re or im for re, im in images.values())
