import copy
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from opalg import FreePolynomial, evaluate, parse, render_text
from opalg.scalars import (
    HBAR,
    HbarScalar,
    I,
    INV_I_HBAR,
    I_HBAR,
    ONE,
    ZERO,
    _make,
    times_minus_i_hbar_power,
)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)
scalars = st.builds(
    HbarScalar, rationals, rationals, st.integers(min_value=-3, max_value=3)
)


def test_zero_is_grade_normalized():
    assert HbarScalar.of(0, 0, 5) == ZERO
    assert HbarScalar.of(0, 0, -2).hbar_power == 0
    assert ZERO.is_zero


def test_addition_requires_equal_grade():
    with pytest.raises(ValueError):
        HBAR + ONE
    assert HBAR + ZERO == HBAR
    assert ZERO + HBAR == HBAR
    assert HBAR + (-HBAR) == ZERO


def test_products_add_grades():
    assert (HBAR * HBAR).hbar_power == 2
    assert (INV_I_HBAR * I_HBAR) == ONE
    assert I * I == -ONE
    assert HbarScalar.of(0, 1, 1) * HbarScalar.of(0, 1, 1) == HbarScalar.of(-1, 0, 2)


def test_rational_coercion_and_exactness():
    third = HbarScalar.real(Fraction(1, 3))
    assert third + third + third == ONE
    assert (third * 3) == ONE
    assert 2 * third == HbarScalar.real(Fraction(2, 3))


def test_division_is_exact_complex_division():
    a = HbarScalar.of(Fraction(3, 2), Fraction(-1, 2), 2)
    b = HbarScalar.of(1, 2, 1)
    assert (a / b) * b == a
    assert ONE / I == -I
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_conjugate_keeps_grade():
    assert I_HBAR.conjugate() == HbarScalar.of(0, -1, 1)
    assert HBAR.conjugate() == HBAR


@pytest.mark.parametrize("n", [1, -3, 7])
def test_minus_i_hbar_power_is_a_repeated_product(n):
    cs = [ONE, HbarScalar.real(-2), HbarScalar.of(Fraction(-3, 4), Fraction(5, 6), 2), I_HBAR]
    for c in cs:
        expected = c * n
        for k in range(9):  # every k mod 4, twice
            assert times_minus_i_hbar_power(c, n, k) == expected, (c, k)
            expected = expected * HbarScalar.of(0, -1, 1)


def test_inv_i_hbar_is_the_bracket_prefactor():
    assert INV_I_HBAR * I_HBAR == ONE
    assert INV_I_HBAR.hbar_power == -1


@given(scalars, scalars)
def test_multiplication_commutes(a, b):
    assert a * b == b * a


@given(scalars, scalars, scalars)
def test_multiplication_associates_and_distributes_same_grade(a, b, c):
    assert (a * b) * c == a * (b * c)
    # distributivity within a single grade
    b_same = HbarScalar(c.re + 1, c.im, c.hbar_power)
    assert a * (c + b_same) == a * c + a * b_same


@given(scalars)
def test_conjugation_is_an_involution(a):
    assert a.conjugate().conjugate() == a
    assert (a * a.conjugate()).im == 0


# -- the Fraction-pair arithmetic as the reference for the int-triple core --


class FractionScalar:
    """The former ``HbarScalar`` arithmetic on a pair of ``Fraction`` parts."""

    def __init__(self, re, im=0, hbar_power=0):
        self.re, self.im = Fraction(re), Fraction(im)
        self.hbar_power = hbar_power if self.re or self.im else 0

    @classmethod
    def of(cls, s: HbarScalar):
        return cls(s.re, s.im, s.hbar_power)

    def __add__(self, other):
        if not (self.re or self.im):
            return other
        if not (other.re or other.im):
            return self
        if self.hbar_power != other.hbar_power:
            raise ValueError("different hbar grade")
        return FractionScalar(self.re + other.re, self.im + other.im, self.hbar_power)

    def __neg__(self):
        return FractionScalar(-self.re, -self.im, self.hbar_power)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = FractionScalar(other)
        return FractionScalar(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
            self.hbar_power + other.hbar_power,
        )

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            other = FractionScalar(other)
        norm = other.re * other.re + other.im * other.im
        return FractionScalar(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
            self.hbar_power - other.hbar_power,
        )

    def conjugate(self):
        return FractionScalar(self.re, -self.im, self.hbar_power)


def assert_matches(actual: HbarScalar, expected: FractionScalar):
    assert (actual.re, actual.im, actual.hbar_power) == (
        expected.re,
        expected.im,
        expected.hbar_power,
    )
    assert actual._den > 0
    assert math.gcd(actual._re, actual._im, actual._den) == 1


BIG = 2**70
numerators = st.one_of(
    st.integers(min_value=-30, max_value=30),
    st.integers(min_value=BIG - 50, max_value=BIG + 50),
    st.integers(min_value=-BIG - 50, max_value=-BIG + 50),
)
denominators = st.one_of(
    st.integers(min_value=1, max_value=12),
    st.sampled_from([2**40, 3**30, 2**70 + 1, 999999937]),
)
parts = st.builds(Fraction, numerators, denominators)
grades = st.integers(min_value=-2, max_value=2)
big_scalars = st.builds(HbarScalar, parts, parts, grades)
rational_factors = st.one_of(numerators, parts)


@given(big_scalars, big_scalars)
def test_ring_operations_match_the_fraction_reference(a, b):
    ra, rb = FractionScalar.of(a), FractionScalar.of(b)
    assert_matches(a * b, ra * rb)
    assert_matches(-a, -ra)
    assert_matches(a.conjugate(), ra.conjugate())
    if a.hbar_power == b.hbar_power or not a or not b:
        assert_matches(a + b, ra + rb)
        assert_matches(a - b, ra - rb)
    else:
        with pytest.raises(ValueError):
            a + b
    if b:
        assert_matches(a / b, ra / rb)


@given(big_scalars, rational_factors)
def test_products_and_quotients_by_rationals_match_the_fraction_reference(a, k):
    ra = FractionScalar.of(a)
    assert_matches(a * k, ra * k)
    assert_matches(k * a, ra * k)
    if k:
        assert_matches(a / k, ra / k)
    else:
        with pytest.raises(ZeroDivisionError):
            a / k


@given(big_scalars, parts, parts, grades)
def test_sums_that_cancel_are_zero_at_grade_zero(a, re, im, grade):
    b = HbarScalar(re, im, grade)
    minus_b = HbarScalar(-re, -im, grade)
    totals = [a - a, a + (-a), b + minus_b]
    if a.hbar_power == grade or not a or not b:
        totals.append((a + b) - a - b)
    for total in totals:
        assert total == ZERO
        assert (total._re, total._im, total._den, total.hbar_power) == (0, 0, 1, 0)
        assert not total and total.is_zero and str(total) == "0"


def fields(a):
    return (a._re, a._im, a._den, a._power)


@given(st.one_of(big_scalars, st.just(ZERO)))
def test_negation_and_conjugate_build_the_reduced_fields_directly(a):
    # Both skip _make's gcd; a canonical scalar's sign change is canonical.
    assert fields(-a) == fields(_make(-a._re, -a._im, a._den, a._power))
    assert fields(a.conjugate()) == fields(_make(a._re, -a._im, a._den, a._power))


@given(big_scalars)
def test_parts_read_back_as_fractions(a):
    assert type(a.re) is Fraction and type(a.im) is Fraction
    assert type(a.hbar_power) is int
    assert HbarScalar(a.re, a.im, a.hbar_power) == a


@given(parts, parts, grades, st.integers(min_value=1, max_value=10**6))
def test_equal_values_hash_equal(re, im, grade, k):
    a = HbarScalar(re, im, grade)
    b = HbarScalar(Fraction(re.numerator * k, re.denominator * k), im, grade)
    c = a * HbarScalar(Fraction(k, 1)) / k
    assert a == b == c
    assert hash(a) == hash(b) == hash(c)


def test_repr_keeps_the_field_text():
    assert repr(HbarScalar.of(Fraction(1, 2), -3, 2)) == (
        "HbarScalar(re=Fraction(1, 2), im=Fraction(-3, 1), hbar_power=2)"
    )
    assert repr(HbarScalar.of(0, 0, 5)) == (
        "HbarScalar(re=Fraction(0, 1), im=Fraction(0, 1), hbar_power=0)"
    )
    assert repr(INV_I_HBAR) == "HbarScalar(re=Fraction(0, 1), im=Fraction(-1, 1), hbar_power=-1)"


@given(st.one_of(scalars, big_scalars))
@example(ZERO)
@example(HBAR)
@example(INV_I_HBAR)
@example(HbarScalar.of(Fraction(1, 2)))
def test_str_prints_a_scalar_as_eval_does(c):
    value = FreePolynomial.one().scale(c)
    assert str(c) == render_text(value)
    assert evaluate(parse(str(c))) == value


def test_scalars_are_immutable():
    x = HbarScalar.of(1, 2, 1)
    for name in ("re", "im", "hbar_power", "extra"):
        with pytest.raises(AttributeError):
            setattr(x, name, 0)
    assert x == HbarScalar.of(1, 2, 1)


@pytest.mark.parametrize(
    "x", [ZERO, ONE, INV_I_HBAR, HbarScalar.of(Fraction(-2, 3), Fraction(5, 7), 3)], ids=repr
)
def test_scalars_round_trip_on_every_pickle_protocol(x):
    pickled = [pickle.loads(pickle.dumps(x, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in pickled + [copy.copy(x), copy.deepcopy(x)]:
        assert type(twin) is HbarScalar and twin == x and hash(twin) == hash(x)
        assert (twin._re, twin._im, twin._den, twin._power) == (x._re, x._im, x._den, x._power)
        for name in ("re", "im", "hbar_power", "extra"):
            with pytest.raises(AttributeError):
                setattr(twin, name, 0)


@pytest.mark.parametrize("bad", [1.5, "1", None, complex(1, 0)])
def test_parts_must_be_int_or_fraction(bad):
    for build in (
        lambda: HbarScalar(bad),
        lambda: HbarScalar(0, bad),
        lambda: HbarScalar.of(bad),
        lambda: HbarScalar.of(1, bad),
        lambda: HbarScalar.real(bad),
        lambda: HbarScalar.imag(bad),
    ):
        with pytest.raises(TypeError, match="expected an int or Fraction"):
            build()


@pytest.mark.parametrize("bad", [1.0, "1", None, Fraction(1)])
def test_hbar_power_must_be_an_int(bad):
    with pytest.raises(TypeError, match="hbar_power must be an int"):
        HbarScalar(1, 0, bad)
    with pytest.raises(TypeError, match="hbar_power must be an int"):
        HbarScalar.of(1, 0, bad)


def test_arithmetic_with_other_types_is_not_implemented():
    assert (ONE == 1) is False
    with pytest.raises(TypeError):
        ONE + 1
    for other in (1, None):
        with pytest.raises(TypeError, match="for -:"):
            ONE - other
    with pytest.raises(TypeError):
        ONE * 1.5
    with pytest.raises(TypeError):
        ONE / "2"
