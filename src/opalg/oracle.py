"""Independent exactness oracle: the polynomial Schrodinger representation.

The pure q/p algebra acts faithfully on polynomials in a formal variable x
by ``q = multiply by x`` and ``p = -i*hbar * d/dx``, with hbar kept formal
and all coefficients exact.  Two operators are equal exactly when their
images of ``x**0 .. x**D`` agree, ``D`` their largest word length; the
README ("Why the oracle's finite test degree suffices") gives the argument
and each word's closed-form action.  The oracle decides equality and
nothing else: :func:`oracle_equal`, its one entry, reads every word of
both operands once and groups the terms of one and the negated terms of
the other by ``(rise, grade + k)`` (:func:`_groups`), the only terms that
can add into one image coefficient.  Each group's image of ``x**j`` is
then summed in two local ints, a Gaussian integer over a common
denominator, from the group's lowest nonannihilated degree up to ``D``
(:func:`_sums`), and the first nonzero sum decides that the operands
differ.  The oracle never rewrites words and never calls the normal form.
State words have no faithful finite action here and are rejected;
identities involving them are settled by the free normal form.
"""

from __future__ import annotations

from math import lcm, perm
from typing import Iterator

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


def _groups(*operands: tuple[dict, int]) -> tuple[int, dict]:
    """Read every term of each operand ``(terms, sign)`` once, a slot map of
    ``((word, grade), c)`` for ``sign * c * word``, and group the terms by
    ``(rise, grade + k)``: only terms with the same rise and the same
    ``grade + k`` can add into one image coefficient.  Returns the common
    denominator ``den`` of every coefficient and, per group, its members
    ``(lowest, runs, re, im)``: each word's action (:func:`_action`) and
    ``sign * c`` turned by ``(-i)**k``, as a Gaussian integer over ``den``
    read from the scalar's ints.  A state word raises here, before any sum."""
    den = lcm(*(c._den for terms, _ in operands for c in terms.values()))
    groups: dict[tuple[int, int], list] = {}
    for terms, sign in operands:
        for (word, grade), c in terms.items():
            runs, k, rise, lowest = _action(word)
            c = times_minus_i_hbar_power(c, sign, k)
            scale = den // c._den
            member = (lowest, runs, c._re * scale, c._im * scale)
            groups.setdefault((rise, grade + k), []).append(member)
    return den, groups


def _sums(members: list, top: int) -> Iterator[tuple[int, int, int]]:
    """One group's images, ``(j, re, im)`` for ``j`` from its lowest member's
    ``lowest`` to ``top``: the coefficient ``(re + im*i)/den`` of
    ``hbar**(grade + k) * x**(j + rise)`` in the image of ``x**j``.  Every
    member annihilates the degrees below the start.  Each p-run of a word
    is one falling factorial, one C call per run and degree."""
    for j in range(min(member[0] for member in members), top + 1):
        re = im = 0
        for lowest, runs, c_re, c_im in members:
            if j >= lowest:
                n = 1
                for R, r in runs:
                    n *= perm(j + R, r)
                re += n * c_re
                im += n * c_im
        yield j, re, im


def oracle_equal(a: FreePolynomial, b: FreePolynomial) -> bool:
    """Decide operator equality by the images of ``x**j`` for ``j`` up to the
    larger total degree of the two operands, which per the README is the
    faithful threshold.  The terms of ``a`` and the negated terms of ``b``
    are grouped (:func:`_groups`), so every word of both operands is read
    and a state word raises even where it appears in both; then each
    group's sums (:func:`_sums`) are taken in turn, and the first nonzero
    sum decides that the operands differ."""
    top = max(a.max_word_length, b.max_word_length)
    _, groups = _groups((a._terms, 1), (b._terms, -1))
    return not any(re or im for members in groups.values() for _, re, im in _sums(members, top))
