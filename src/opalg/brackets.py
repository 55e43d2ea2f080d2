"""Bracket structures: classical mirror, commutator, and the symmetric bracket.

The classical mirror is the commutative polynomial algebra in (q, p) with
the ordinary Poisson bracket.  On the operator side live two candidate Lie
brackets: the commutator divided by i*hbar, and the operatorial Poisson
bracket built from partial derivatives and the symmetric product.  The
checkers in this module decide, exactly and with full difference
polynomials, the identities that relate them: the Leibniz rule, the
anti-commutator form of mixed products, the equivalence of the symmetric
bracket with the commutator on state words (the von Neumann generator), and
the Groenewold-style obstruction comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import (
    FreePolynomial,
    Letter,
    Word,
    normal_order,
)
from .errors import UnsupportedFragmentError
from .scalars import HbarScalar, INV_I_HBAR, ONE, RationalLike
from .terms import GradedTerms
from .weyl import (
    WeylMonomial,
    WeylPolynomial,
    expand_polynomial,
    weyl_derivative,
    weyl_product,
)

_RHO = FreePolynomial.from_letters(Letter.RHO)
_DRHO_Q_MONO = WeylPolynomial.from_monomial(WeylMonomial(0, 0, Letter.DRHO_Q))
_DRHO_P_MONO = WeylPolynomial.from_monomial(WeylMonomial(0, 0, Letter.DRHO_P))


class ClassicalPolynomial(GradedTerms):
    """A commutative polynomial in (q, p) with exact complex coefficients.

    Keys are ``(q_degree, p_degree)`` pairs; coefficients carry no hbar
    grade (there is no hbar in classical mechanics).
    """

    __slots__ = ()

    @classmethod
    def _validate_pair(cls, key: tuple[int, int], scalar: HbarScalar) -> None:
        if (
            not isinstance(key, tuple)
            or len(key) != 2
            or not all(isinstance(d, int) and d >= 0 for d in key)
        ):
            raise TypeError("ClassicalPolynomial keys are (q_degree, p_degree) pairs")
        if scalar.hbar_power != 0:
            raise ValueError("classical coefficients cannot carry an hbar grade")

    @classmethod
    def zero(cls) -> ClassicalPolynomial:
        return cls()

    @classmethod
    def one(cls) -> ClassicalPolynomial:
        return cls.from_monomial(0, 0)

    @classmethod
    def from_monomial(
        cls, n: int, m: int, coeff: HbarScalar | RationalLike = ONE
    ) -> ClassicalPolynomial:
        if isinstance(coeff, (int, Fraction)):
            coeff = HbarScalar.real(coeff)
        return cls([((n, m), coeff)])

    def __mul__(self, other):
        if isinstance(other, ClassicalPolynomial):
            return ClassicalPolynomial(
                ((na + nb, ma + mb), ca * cb)
                for (na, ma), ca in self.items()
                for (nb, mb), cb in other.items()
            )
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def derivative(self, wrt: Letter) -> ClassicalPolynomial:
        if wrt not in (Letter.Q, Letter.P):
            raise ValueError("partial derivatives are taken with respect to Q or P")
        if wrt is Letter.Q:
            return ClassicalPolynomial(
                ((n - 1, m), c * n) for (n, m), c in self.items() if n > 0
            )
        return ClassicalPolynomial(
            ((n, m - 1), c * m) for (n, m), c in self.items() if m > 0
        )


def poisson_bracket_classical(
    f: ClassicalPolynomial, g: ClassicalPolynomial
) -> ClassicalPolynomial:
    """df/dq * dg/dp - dg/dq * df/dp with exact arithmetic."""
    return f.derivative(Letter.Q) * g.derivative(Letter.P) - g.derivative(
        Letter.Q
    ) * f.derivative(Letter.P)


def commutator_bracket(f: FreePolynomial, g: FreePolynomial) -> FreePolynomial:
    """The normal form of ``(f*g - g*f) / (i*hbar)``."""
    return normal_order(f * g - g * f).scale(INV_I_HBAR)


def symmetrized_poisson_bracket(
    f: WeylPolynomial, g: WeylPolynomial
) -> WeylPolynomial:
    """The operatorial Poisson bracket: derivatives paired by the symmetric
    product, bilinear and antisymmetric.

    The symmetric product adds exponents, so each term pair contributes the
    classical monomial bracket ``(ad - bc) q^(a+c-1) o p^(b+d-1)``, keeping
    the derivative letter of either factor.  Two derivative letters leave
    the fragment whenever ``a*d`` or ``b*c`` is nonzero, even if they cancel.
    """
    pairs = []
    for ma, ca in f.items():
        for mb, cb in g.items():
            ad, bc = ma.n * mb.m, ma.m * mb.n
            if ma.deriv is not None and mb.deriv is not None and (ad or bc):
                raise UnsupportedFragmentError(
                    "cannot multiply two terms that both carry a state-derivative letter"
                )
            if ad != bc:
                deriv = ma.deriv if ma.deriv is not None else mb.deriv
                monomial = WeylMonomial(ma.n + mb.n - 1, ma.m + mb.m - 1, deriv)
                pairs.append((monomial, ca * cb * (ad - bc)))
    return WeylPolynomial(pairs)


def quantize(f: ClassicalPolynomial) -> WeylPolynomial:
    """The exponent-preserving map from classical monomials to the Weyl basis."""
    return WeylPolynomial((WeylMonomial(n, m), c) for (n, m), c in f.items())


def dequantize(F: WeylPolynomial) -> ClassicalPolynomial:
    """Inverse of :func:`quantize`; defined on pure, grade-0 polynomials only."""
    pairs = []
    for monomial, coeff in F.items():
        if monomial.deriv is not None:
            raise UnsupportedFragmentError(
                "cannot dequantize a term carrying a state-derivative letter"
            )
        if coeff.hbar_power != 0:
            raise UnsupportedFragmentError(
                "cannot dequantize a term with a nonzero hbar grade"
            )
        pairs.append(((monomial.n, monomial.m), coeff))
    return ClassicalPolynomial(pairs)


def substitute_drho(x: FreePolynomial) -> FreePolynomial:
    """Replace state-derivative letters by their commutator expressions.

    ``drho_p`` becomes ``(q rho - rho q) / (i*hbar)`` and ``drho_q`` becomes
    ``-(p rho - rho p) / (i*hbar)``, distributed in place inside each word.
    Words without derivative letters pass through unchanged.
    """
    pairs: list[tuple[Word, HbarScalar]] = []
    stack = list(x.items())
    while stack:
        word, coeff = stack.pop()
        for i, letter in enumerate(word.letters):
            if letter in (Letter.DRHO_P, Letter.DRHO_Q):
                head, tail = word.letters[:i], word.letters[i + 1 :]
                other = Letter.Q if letter is Letter.DRHO_P else Letter.P
                sign = ONE if letter is Letter.DRHO_P else -ONE
                c = coeff * INV_I_HBAR * sign
                stack.append((Word(head + (other, Letter.RHO) + tail), c))
                stack.append((Word(head + (Letter.RHO, other) + tail), -c))
                break
        else:
            pairs.append((word, coeff))
    return FreePolynomial(pairs)


# -- checkers ------------------------------------------------------------


@dataclass(frozen=True)
class EqualityReport:
    """Outcome of an identity check: both sides and their difference."""

    lhs: object
    rhs: object
    difference: object

    @property
    def equal(self) -> bool:
        return self.difference.is_zero  # type: ignore[attr-defined]


@dataclass(frozen=True)
class ObstructionReport:
    """Outcome of the obstruction comparison for two classical pairs.

    ``scale`` is the rational factor that makes the second classical bracket
    match the first.  The symmetric brackets of the quantized pairs must
    agree exactly; the commutator brackets are allowed to differ, and the
    difference (with its minimal hbar grade) is what exhibits the
    obstruction.
    """

    classical_bracket: ClassicalPolynomial
    scale: HbarScalar
    symmetrized_bracket: WeylPolynomial
    symmetrized_difference: WeylPolynomial
    commutator_difference: FreePolynomial

    @property
    def symmetrized_agree(self) -> bool:
        return self.symmetrized_difference.is_zero

    @property
    def commutator_min_hbar_power(self) -> int | None:
        powers = [c.hbar_power for _, c in self.commutator_difference.items()]
        return min(powers) if powers else None


def check_leibniz(
    f: WeylPolynomial, g: WeylPolynomial, h: WeylPolynomial
) -> EqualityReport:
    """Leibniz rule for the symmetric bracket over the symmetric product."""
    lhs = symmetrized_poisson_bracket(f, weyl_product(g, h))
    rhs = weyl_product(symmetrized_poisson_bracket(f, g), h) + weyl_product(
        g, symmetrized_poisson_bracket(f, h)
    )
    return EqualityReport(lhs, rhs, lhs - rhs)


def leibniz_ordinary_product_gap(
    f: WeylPolynomial, g: WeylPolynomial, h: WeylPolynomial
) -> FreePolynomial:
    """Difference left by restating the Leibniz rule with the ordinary product.

    The bracket side is unchanged (its second argument must be symmetrized
    to enter the bracket at all), but the right-hand side multiplies with
    the ordinary product.  The returned normal form is nonzero in general:
    one and the same product has to be used throughout for the rule to hold.
    """
    lhs = expand_polynomial(symmetrized_poisson_bracket(f, weyl_product(g, h)))
    rhs = expand_polynomial(symmetrized_poisson_bracket(f, g)) * expand_polynomial(
        h
    ) + expand_polynomial(g) * expand_polynomial(symmetrized_poisson_bracket(f, h))
    return normal_order(lhs - rhs)


def check_anticommutator_identity(
    coeffs: Sequence[HbarScalar | RationalLike],
) -> EqualityReport:
    """For ``V = sum c_n q**n``: half the anti-commutator of V with p equals
    the symmetric product ``sum c_n q**n o p``, compared in normal form."""
    v = FreePolynomial(
        (Word.of(*([Letter.Q] * n)), c if isinstance(c, HbarScalar) else HbarScalar.real(c))
        for n, c in enumerate(coeffs)
    )
    p = FreePolynomial.from_letters(Letter.P)
    lhs = normal_order((v * p + p * v).scale(Fraction(1, 2)))
    rhs = normal_order(
        expand_polynomial(
            WeylPolynomial(
                (WeylMonomial(n, 1), c if isinstance(c, HbarScalar) else HbarScalar.real(c))
                for n, c in enumerate(coeffs)
            )
        )
    )
    return EqualityReport(lhs, rhs, lhs - rhs)


def check_von_neumann_equivalence(F: WeylPolynomial) -> EqualityReport:
    """Equivalence of the symmetric bracket with the scaled commutator on the
    state symbol.

    The left side pairs the Weyl-basis derivatives of ``F`` with the state
    derivative letters through the symmetric product, expands, substitutes
    the derivative letters by their commutator expressions, and normal
    orders; most cross terms cancel in the free normal form.  The right side
    is the normal form of ``(F rho - rho F) / (i*hbar)`` with ``F`` expanded.
    Both sides are compared exactly in the free algebra over q, p, rho.
    """
    for monomial, _ in F.items():
        if monomial.deriv is not None:
            raise UnsupportedFragmentError(
                "the equivalence check takes a pure observable (no derivative letters)"
            )
    lhs_weyl = weyl_product(weyl_derivative(F, Letter.Q), _DRHO_P_MONO) - weyl_product(
        _DRHO_Q_MONO, weyl_derivative(F, Letter.P)
    )
    lhs = normal_order(substitute_drho(expand_polynomial(lhs_weyl)))
    f_free = expand_polynomial(F)
    rhs = normal_order((f_free * _RHO - _RHO * f_free).scale(INV_I_HBAR))
    return EqualityReport(lhs, rhs, lhs - rhs)


def check_obstruction(
    pair_a: tuple[ClassicalPolynomial, ClassicalPolynomial],
    pair_b: tuple[ClassicalPolynomial, ClassicalPolynomial],
) -> ObstructionReport:
    """Compare the two quantum brackets on two classically equivalent pairs.

    The second pair is normalized by the rational scale that makes the
    classical brackets match exactly (an error if no such scale exists).
    The symmetric brackets of the quantized pairs must then agree exactly,
    while the commutator brackets of the expanded quantizations may differ;
    the difference is reported in normal form.
    """
    f1, f2 = pair_a
    f3, f4 = pair_b
    bracket_a = poisson_bracket_classical(f1, f2)
    bracket_b = poisson_bracket_classical(f3, f4)
    if bracket_a.is_zero and bracket_b.is_zero:
        scale = ONE
    elif bracket_a.is_zero or bracket_b.is_zero:
        raise ValueError("classical brackets are not related by a scale")
    else:
        key, coeff_b = next(iter(bracket_b.items()))
        coeff_a = bracket_a.coefficient(key)
        if coeff_a.is_zero:
            raise ValueError("classical brackets are not related by a scale")
        scale = coeff_a / coeff_b
        if bracket_a != bracket_b.scale(scale):
            raise ValueError("classical brackets are not related by a scale")

    q1, q2, q3, q4 = (quantize(f) for f in (f1, f2, f3, f4))
    sym_a = symmetrized_poisson_bracket(q1, q2)
    sym_b = symmetrized_poisson_bracket(q3, q4).scale(scale)
    comm_a = commutator_bracket(expand_polynomial(q1), expand_polynomial(q2))
    comm_b = commutator_bracket(expand_polynomial(q3), expand_polynomial(q4)).scale(scale)
    return ObstructionReport(
        classical_bracket=bracket_a,
        scale=scale,
        symmetrized_bracket=sym_a,
        symmetrized_difference=sym_a - sym_b,
        commutator_difference=comm_a - comm_b,
    )
