"""Closed-form normal forms, computed without the package under test.

A normal-ordered q/p polynomial is held as a dict mapping ``(a, b, k)`` to a
complex rational ``(re, im)``: the term ``(re + i im) hbar^k q^a p^b``.  Two
formulas do all the work:

* ``p^b q^a = sum_k C(a,k) C(b,k) k! (-i hbar)^k q^(a-k) p^(b-k)``, the
  normal-ordering of one inversion block, which also gives the normal
  product of two normal monomials and so the normal form of any q/p word;
* McCoy's form of the Weyl-symmetrized monomial (N. H. McCoy, PNAS 18
  (1932) 674): ``S(q^n p^m) = sum_k C(n,k) C(m,k) k! (-i hbar/2)^k
  q^(n-k) p^(m-k)``.

Only ``math.comb`` and ``fractions.Fraction`` are used, so a defect in the
package cannot leak into the references that check it.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

Poly = dict[tuple[int, int, int], tuple[Fraction, Fraction]]

# (-i)^k for k mod 4, as (re, im)
_MINUS_I_POWERS = ((1, 0), (0, -1), (-1, 0), (0, 1))


def _cmul(x: tuple[Fraction, Fraction], y: tuple[Fraction, Fraction]) -> tuple[Fraction, Fraction]:
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _accumulate(acc: Poly, key: tuple[int, int, int], value: tuple[Fraction, Fraction]) -> None:
    re, im = acc.get(key, (Fraction(0), Fraction(0)))
    re, im = re + value[0], im + value[1]
    if re or im:
        acc[key] = (re, im)
    else:
        acc.pop(key, None)


def _ordering_sum(a: int, b: int, scale: Fraction) -> Poly:
    """``sum_k C(a,k) C(b,k) k! (-i scale hbar)^k q^(a-k) p^(b-k)``."""
    out: Poly = {}
    for k in range(min(a, b) + 1):
        magnitude = comb(a, k) * comb(b, k) * factorial(k) * scale**k
        re, im = _MINUS_I_POWERS[k % 4]
        _accumulate(out, (a - k, b - k, k), (Fraction(magnitude * re), Fraction(magnitude * im)))
    return out


def normal_pq(a: int, b: int) -> Poly:
    """Normal form of the word ``p^b q^a``."""
    return _ordering_sum(a, b, Fraction(1))


def mccoy(n: int, m: int) -> Poly:
    """Normal form of the Weyl-symmetrized monomial ``S(q^n p^m)``."""
    return _ordering_sum(n, m, Fraction(1, 2))


def multiply(x: Poly, y: Poly) -> Poly:
    """Normal-ordered product: ``q^a p^b . q^c p^d`` reorders ``p^b q^c``."""
    out: Poly = {}
    for (a, b, k1), cx in x.items():
        for (c, d, k2), cy in y.items():
            coeff = _cmul(cx, cy)
            for (qa, pb, k3), cz in normal_pq(c, b).items():
                _accumulate(out, (a + qa, pb + d, k1 + k2 + k3), _cmul(coeff, cz))
    return out


def add(x: Poly, y: Poly, sign: int = 1) -> Poly:
    out = dict(x)
    for key, (re, im) in y.items():
        _accumulate(out, key, (re * sign, im * sign))
    return out


def scale(x: Poly, re: Fraction, im: Fraction = Fraction(0), hbar: int = 0) -> Poly:
    out: Poly = {}
    for (a, b, k), value in x.items():
        _accumulate(out, (a, b, k + hbar), _cmul(value, (re, im)))
    return out


def normal_word(letters: str) -> Poly:
    """Normal form of a word over ``q`` and ``p``, e.g. ``"pqqp"``."""
    out: Poly = {(0, 0, 0): (Fraction(1), Fraction(0))}
    for letter in letters:
        step = (1, 0, 0) if letter == "q" else (0, 1, 0)
        out = multiply(out, {step: (Fraction(1), Fraction(0))})
    return out


def weyl_sum(terms: list[tuple[Fraction, int, int]]) -> Poly:
    """Normal form of ``sum c S(q^n p^m)`` for ``(c, n, m)`` terms."""
    out: Poly = {}
    for c, n, m in terms:
        out = add(out, scale(mccoy(n, m), c))
    return out

