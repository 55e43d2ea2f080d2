"""Exact complex-rational scalars graded by an integer power of hbar.

Coefficients in this package are never floating point.  A scalar is
``(re + im*i) * hbar**hbar_power`` with ``re`` and ``im`` arbitrary-precision
rationals.  hbar stays a formal symbol: it is a dimensional constant, so
scalars of different grade never merge (they live in different terms of a
polynomial), while products add grades.  The grade is what lets the
symmetrizer recognize and annihilate commutator remainders, and a negative
grade hosts the 1/(i*hbar) prefactor of commutator brackets.

Storage is four plain ints: ``re = _re/_den`` and ``im = _im/_den`` over one
shared denominator, and the grade ``_power``.  Every value is kept in the
canonical form ``_den > 0`` and ``gcd(_re, _im, _den) == 1``, and zero is
``(0, 0, 1)`` at grade 0, so equal values have equal fields.  Arithmetic
works on the ints and reduces each result once, with one three-argument gcd
in :func:`_make` (none over a unit denominator); ``re`` and ``im`` are built
as ``Fraction`` only when read.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

RationalLike = int | Fraction


def _ratio(value: RationalLike) -> tuple[int, int]:
    if isinstance(value, int):
        return value, 1
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    raise TypeError(f"expected an int or Fraction, got {type(value).__name__}")


class HbarScalar:
    """A single graded coefficient ``(re + im*i) * hbar**hbar_power``.

    Immutable: the parts are read-only properties and no attribute can be
    added.
    """

    __slots__ = ("_re", "_im", "_den", "_power")

    def __new__(
        cls, re: RationalLike = 0, im: RationalLike = 0, hbar_power: int = 0
    ) -> HbarScalar:
        re_num, re_den = _ratio(re)
        im_num, im_den = _ratio(im)
        if not isinstance(hbar_power, int):
            raise TypeError("hbar_power must be an int")
        return _make(re_num * im_den, im_num * re_den, re_den * im_den, int(hbar_power))

    @classmethod
    def of(cls, re: RationalLike, im: RationalLike = 0, hbar_power: int = 0) -> HbarScalar:
        return cls(re, im, hbar_power)

    @classmethod
    def real(cls, value: RationalLike) -> HbarScalar:
        return cls(value)

    @classmethod
    def imag(cls, value: RationalLike) -> HbarScalar:
        return cls(0, value)

    @property
    def re(self) -> Fraction:
        return Fraction(self._re, self._den)

    @property
    def im(self) -> Fraction:
        return Fraction(self._im, self._den)

    @property
    def hbar_power(self) -> int:
        return self._power

    @property
    def is_zero(self) -> bool:
        return not (self._re or self._im)

    def __bool__(self) -> bool:
        return bool(self._re or self._im)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HbarScalar):
            return NotImplemented
        return (
            self._re == other._re
            and self._im == other._im
            and self._den == other._den
            and self._power == other._power
        )

    def __hash__(self) -> int:
        return hash((self._re, self._im, self._den, self._power))

    def __reduce__(self):
        # Copy and pickle by the four ints, under every pickle protocol.
        return _make, (self._re, self._im, self._den, self._power)

    def __repr__(self) -> str:
        return f"HbarScalar(re={self.re!r}, im={self.im!r}, hbar_power={self._power!r})"

    def __add__(self, other: HbarScalar) -> HbarScalar:
        if not isinstance(other, HbarScalar):
            return NotImplemented
        if not (self._re or self._im):
            return other
        if not (other._re or other._im):
            return self
        power = self._power
        if power != other._power:
            raise ValueError(
                f"cannot add scalars of different hbar grade "
                f"({power} vs {other._power}); "
                "they belong in separate polynomial terms"
            )
        den, other_den = self._den, other._den
        if den == other_den:
            return _make(self._re + other._re, self._im + other._im, den, power)
        return _make(
            self._re * other_den + other._re * den,
            self._im * other_den + other._im * den,
            den * other_den,
            power,
        )

    def __neg__(self) -> HbarScalar:
        return _make(-self._re, -self._im, self._den, self._power)

    def __sub__(self, other: HbarScalar) -> HbarScalar:
        if not isinstance(other, HbarScalar):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: HbarScalar | RationalLike) -> HbarScalar:
        if isinstance(other, HbarScalar):
            a, b, c, d = self._re, self._im, other._re, other._im
            return _make(
                a * c - b * d, a * d + b * c, self._den * other._den, self._power + other._power
            )
        if isinstance(other, int):
            return _make(self._re * other, self._im * other, self._den, self._power)
        if isinstance(other, Fraction):
            num = other.numerator
            return _make(self._re * num, self._im * num, self._den * other.denominator, self._power)
        return NotImplemented

    def __rmul__(self, other: RationalLike) -> HbarScalar:
        return self * other

    def __truediv__(self, other: HbarScalar | RationalLike) -> HbarScalar:
        if isinstance(other, (int, Fraction)):
            other = HbarScalar.real(other)
        if not isinstance(other, HbarScalar):
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by the zero scalar")
        # (a + b i)/s ÷ (c + d i)/t = (a + b i)(c - d i) t / (s (c² + d²))
        a, b, c, d, t = self._re, self._im, other._re, other._im, other._den
        return _make(
            (a * c + b * d) * t,
            (b * c - a * d) * t,
            self._den * (c * c + d * d),
            self._power - other._power,
        )

    def conjugate(self) -> HbarScalar:
        """Complex conjugate; hbar is real, so the grade is unchanged."""
        return _make(self._re, -self._im, self._den, self._power)

    def __str__(self) -> str:
        """The text printer's form of ``self`` times the identity word, as
        ``opalg eval`` prints it: ``(-1/2 + 3 i) hbar^2``."""
        from .core import FreePolynomial
        from .printing import render_text

        return render_text(FreePolynomial.one().scale(self))


_new = object.__new__


def _make(re: int, im: int, den: int, power: int) -> HbarScalar:
    """The scalar ``(re + im*i)/den * hbar**power``; ``den`` must be positive.

    Every scalar is built here, negations and conjugates too.  The only
    normalisation: divide out ``gcd(re, im, den)``, and give zero grade 0.
    A unit ``den``, the common case of integral coefficients, is already
    reduced, so the gcd runs only for ``den != 1``.  Arguments are trusted
    ints, so nothing is validated.
    """
    if den != 1:
        g = gcd(re, im, den)
        if g != 1:
            re //= g
            im //= g
            den //= g
    scalar = _new(HbarScalar)
    scalar._re = re
    scalar._im = im
    scalar._den = den
    scalar._power = power if re or im else 0
    return scalar


def _scaled_product(x: HbarScalar, y: HbarScalar, n: int) -> HbarScalar:
    """``x * y * n`` for an int ``n``, reduced once."""
    a, b, c, d = x._re, x._im, y._re, y._im
    return _make((a * c - b * d) * n, (a * d + b * c) * n, x._den * y._den, x._power + y._power)


def _leads_negative(x: HbarScalar) -> bool:
    """Whether the first nonzero part of ``x``, ``re`` then ``im``, is
    negative: of a nonzero ``c`` and ``-c``, exactly one leads negative."""
    return x._re < 0 or (not x._re and x._im < 0)


def times_minus_i_hbar_power(c: HbarScalar, n: int, k: int) -> HbarScalar:
    """``c * n * (-i*hbar)**k`` for an int ``n`` and ``k >= 0``, reduced once:
    ``c``'s parts times ``n``, turned by ``(-i)**k``."""
    re, im, turns = c._re * n, c._im * n, k % 4
    if turns == 1:
        re, im = im, -re
    elif turns == 2:
        re, im = -re, -im
    elif turns == 3:
        re, im = -im, re
    return _make(re, im, c._den, c._power + k)


ZERO = HbarScalar()
ONE = HbarScalar.real(1)
I = HbarScalar.imag(1)
HBAR = HbarScalar(1, 0, 1)
I_HBAR = HbarScalar(0, 1, 1)
# 1/(i*hbar) = -i * hbar**-1
INV_I_HBAR = HbarScalar(0, -1, -1)
