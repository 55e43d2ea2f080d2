import random
from fractions import Fraction
from itertools import product

import pytest

from opalg.brackets import (
    ClassicalPolynomial,
    check_anticommutator_identity,
    check_leibniz,
    check_obstruction,
    check_von_neumann_equivalence,
    commutator_bracket,
    dequantize,
    leibniz_ordinary_product_gap,
    poisson_bracket_classical,
    quantize,
    substitute_drho,
    symmetrized_poisson_bracket,
)
from opalg.core import FreePolynomial, IDENTITY_WORD, Letter, Word, normal_order
from opalg.errors import UnsupportedFragmentError
from opalg.oracle import oracle_equal
from opalg.scalars import HbarScalar, INV_I_HBAR, ONE
from opalg.weyl import (
    WeylMonomial,
    WeylPolynomial,
    expand_polynomial,
    weyl_derivative,
    weyl_product,
)

Q, P, RHO = Letter.Q, Letter.P, Letter.RHO
q = FreePolynomial.from_letters(Q)
p = FreePolynomial.from_letters(P)


def mono(n, m, deriv=None) -> WeylPolynomial:
    return WeylPolynomial.from_monomial(WeylMonomial(n, m, deriv))


def cmono(n, m, coeff=1) -> ClassicalPolynomial:
    return ClassicalPolynomial.from_monomial(n, m, Fraction(coeff))


# -- classical mirror ----------------------------------------------------------


def test_canonical_pair():
    assert poisson_bracket_classical(cmono(1, 0), cmono(0, 1)) == cmono(0, 0)


def test_cubic_bracket():
    assert poisson_bracket_classical(cmono(3, 0), cmono(0, 3)) == cmono(2, 2, 9)


def test_mixed_bracket():
    assert poisson_bracket_classical(cmono(1, 1), cmono(2, 0)) == cmono(2, 0, -2)


def test_classical_coefficients_reject_hbar():
    with pytest.raises(ValueError):
        ClassicalPolynomial([((1, 0), HbarScalar.of(1, 0, 1))])


# -- the two quantum brackets -----------------------------------------------------


def test_symmetrized_bracket_of_canonical_pair():
    assert symmetrized_poisson_bracket(mono(1, 0), mono(0, 1)) == WeylPolynomial.one()


def test_symmetrized_bracket_cubes():
    assert symmetrized_poisson_bracket(mono(3, 0), mono(0, 3)) == mono(2, 2).scale(9)


def test_symmetrized_bracket_mixed_monomials():
    assert symmetrized_poisson_bracket(mono(2, 1), mono(1, 2)) == mono(2, 2).scale(3)


def test_symmetrized_bracket_monomial_closed_form():
    for a1, a2, b1, b2 in [(1, 0, 0, 1), (2, 1, 1, 2), (3, 0, 2, 2), (1, 3, 2, 1)]:
        got = symmetrized_poisson_bracket(mono(a1, a2), mono(b1, b2))
        factor = a1 * b2 - a2 * b1
        expected = (
            mono(a1 + b1 - 1, a2 + b2 - 1).scale(factor)
            if factor
            else WeylPolynomial.zero()
        )
        assert got == expected


def reference_bracket(f: WeylPolynomial, g: WeylPolynomial) -> WeylPolynomial:
    """The bracket's definition: q- and p-derivatives paired by the symmetric product."""
    return weyl_product(weyl_derivative(f, Q), weyl_derivative(g, P)) - weyl_product(
        weyl_derivative(g, Q), weyl_derivative(f, P)
    )


DERIVS = (None, Letter.DRHO_Q, Letter.DRHO_P)


@pytest.mark.parametrize(
    "deriv_a, deriv_b",
    list(product(DERIVS, repeat=2)),
    ids=lambda deriv: deriv.symbol if deriv else "none",
)
def test_symmetrized_bracket_matches_its_definition(deriv_a, deriv_b):
    exponents = [(n, total - n) for total in range(6) for n in range(total + 1)]
    coeff_a = HbarScalar.of(Fraction(2, 3), -1, 1)
    coeff_b = HbarScalar.of(-3, Fraction(1, 2), -1)
    for a in exponents:
        f = WeylPolynomial.from_monomial(WeylMonomial(*a, deriv_a), coeff_a)
        for b in exponents:
            g = WeylPolynomial.from_monomial(WeylMonomial(*b, deriv_b), coeff_b)
            try:
                expected = reference_bracket(f, g)
            except UnsupportedFragmentError as exc:
                with pytest.raises(UnsupportedFragmentError) as info:
                    symmetrized_poisson_bracket(f, g)
                assert type(info.value) is type(exc)
                assert str(info.value) == str(exc)
            else:
                assert symmetrized_poisson_bracket(f, g) == expected, (a, b)


def test_commutator_bracket_of_canonical_pair():
    assert commutator_bracket(q, p) == FreePolynomial.one()


def test_commutator_bracket_is_alternating():
    assert commutator_bracket(q, q).is_zero


def test_commutator_bracket_q2_p():
    assert commutator_bracket(q * q, p) == q.scale(2)


def test_brackets_agree_on_low_degree_arguments():
    monos = [(n, m) for n in range(3) for m in range(3) if n + m <= 2]
    for n1, m1 in monos:
        for n2, m2 in monos:
            sym = normal_order(
                expand_polynomial(symmetrized_poisson_bracket(mono(n1, m1), mono(n2, m2)))
            )
            comm = commutator_bracket(
                expand_polynomial(mono(n1, m1)), expand_polynomial(mono(n2, m2))
            )
            assert sym == comm


# -- Leibniz -----------------------------------------------------------------------


def test_leibniz_monomials_match_closed_form():
    for a in [(1, 1), (2, 0), (2, 1)]:
        for b in [(1, 0), (1, 2)]:
            for c in [(0, 1), (2, 2)]:
                report = check_leibniz(mono(*a), mono(*b), mono(*c))
                assert report.equal
                factor = a[0] * (b[1] + c[1]) - a[1] * (b[0] + c[0])
                expected = (
                    mono(a[0] + b[0] + c[0] - 1, a[1] + b[1] + c[1] - 1).scale(factor)
                    if factor
                    else WeylPolynomial.zero()
                )
                assert report.lhs == expected


def test_leibniz_with_constant_first_argument():
    report = check_leibniz(WeylPolynomial.one(), mono(2, 1), mono(1, 1))
    assert report.equal
    assert report.lhs.is_zero


def test_leibniz_fails_for_the_ordinary_product():
    # engine-derived witness, verified against the oracle below:
    # gap = 4 i hbar q p + 2 hbar^2 for f = S(q^2), g = S(p^2), h = q o p
    gap = leibniz_ordinary_product_gap(mono(2, 0), mono(0, 2), mono(1, 1))
    expected = FreePolynomial.from_word(Word.of(Q, P), HbarScalar.of(0, 4, 1)) + (
        FreePolynomial.from_word(IDENTITY_WORD, HbarScalar.of(2, 0, 2))
    )
    assert gap == expected
    assert oracle_equal(gap, expected)


# -- anti-commutator form -----------------------------------------------------------


def test_anticommutator_identity_quadratic_potential():
    report = check_anticommutator_identity([0, 0, 1])  # V = q^2
    assert report.equal
    expected = FreePolynomial.from_word(Word.of(Q, Q, P)) - FreePolynomial.from_word(
        Word.of(Q), HbarScalar.of(0, 1, 1)
    )
    assert report.lhs == expected


def test_anticommutator_identity_constant_potential():
    report = check_anticommutator_identity([1])
    assert report.equal
    assert report.lhs == p


def test_anticommutator_identity_random_coefficients():
    rng = random.Random(17)
    pool = [Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(2), Fraction(-1, 3)]
    for _ in range(50):
        coeffs = [rng.choice(pool) for _ in range(rng.randint(1, 7))]
        report = check_anticommutator_identity(coeffs)
        assert report.equal
        assert oracle_equal(report.lhs, report.rhs)


# -- state-derivative substitution ----------------------------------------------------


def test_substitute_momentum_derivative():
    x = FreePolynomial.from_letters(Letter.DRHO_P)
    expected = (q * FreePolynomial.from_letters(RHO) - FreePolynomial.from_letters(RHO) * q).scale(
        INV_I_HBAR
    )
    assert substitute_drho(x) == expected


def test_substitute_coordinate_derivative():
    x = FreePolynomial.from_letters(Letter.DRHO_Q)
    rho = FreePolynomial.from_letters(RHO)
    expected = (p * rho - rho * p).scale(-ONE * INV_I_HBAR)
    assert substitute_drho(x) == expected


def test_substitute_leaves_plain_words_alone():
    x = q * p + FreePolynomial.from_letters(RHO)
    assert substitute_drho(x) == x


def test_substitute_distributes_inside_words():
    x = FreePolynomial.from_letters(Q, Letter.DRHO_P, P)
    rho = FreePolynomial.from_letters(RHO)
    expected = (q * q * rho * p - q * rho * q * p).scale(INV_I_HBAR)
    assert substitute_drho(x) == expected


# -- von Neumann equivalence -----------------------------------------------------------


def test_equivalence_for_coordinate():
    report = check_von_neumann_equivalence(mono(1, 0))
    assert report.equal
    rho = FreePolynomial.from_letters(RHO)
    assert report.rhs == normal_order((q * rho - rho * q).scale(INV_I_HBAR))


def test_equivalence_for_q2p2():
    assert check_von_neumann_equivalence(mono(2, 2)).equal


def test_equivalence_for_kinetic_plus_potential():
    for mass in (1, 2, 3):
        hamiltonian = WeylPolynomial.from_monomial(
            WeylMonomial(0, 2), HbarScalar.real(Fraction(1, 2 * mass))
        ) + mono(3, 0).scale(Fraction(1, 2)) + mono(1, 0).scale(-2)
        assert check_von_neumann_equivalence(hamiltonian).equal


def test_equivalence_rejects_derivative_terms():
    with pytest.raises(UnsupportedFragmentError):
        check_von_neumann_equivalence(mono(1, 0, Letter.DRHO_P))


def test_anticommutator_pairing_breaks_equivalence_above_degree_two():
    # Pairing the derivative with the state-derivative letter via the half
    # anti-commutator, instead of averaging over all placements, keeps the
    # equivalence only up to V = q^2; from q^3 on it fails.  This is exactly
    # why the multi-placement average is the right pairing.
    rho = FreePolynomial.from_letters(RHO)
    for n in range(1, 6):
        q_lower = FreePolynomial.from_word(Word.of(*([Q] * (n - 1))))
        dp = FreePolynomial.from_letters(Letter.DRHO_P)
        lhs = normal_order(
            substitute_drho((q_lower * dp + dp * q_lower).scale(Fraction(n, 2)))
        )
        q_n = FreePolynomial.from_word(Word.of(*([Q] * n)))
        rhs = normal_order((q_n * rho - rho * q_n).scale(INV_I_HBAR))
        assert (lhs == rhs) == (n <= 2)
        # the multi-placement pairing holds at every degree
        assert check_von_neumann_equivalence(mono(n, 0)).equal


# -- quantization and the obstruction ---------------------------------------------------


def test_quantize_preserves_exponents():
    assert quantize(cmono(2, 1)) == mono(2, 1)


def test_quantize_dequantize_round_trip():
    f = cmono(2, 1, 3) + cmono(0, 4, -1)
    assert dequantize(quantize(f)) == f


def test_dequantize_rejects_hbar_and_derivative_terms():
    with pytest.raises(UnsupportedFragmentError):
        dequantize(WeylPolynomial([(WeylMonomial(1, 0), HbarScalar.of(1, 0, 1))]))
    with pytest.raises(UnsupportedFragmentError):
        dequantize(mono(1, 0, Letter.DRHO_Q))


def test_quantization_intertwines_the_brackets():
    rng = random.Random(23)
    for _ in range(40):
        f = ClassicalPolynomial(
            ((rng.randint(0, 4), rng.randint(0, 4)), HbarScalar.real(rng.choice((1, -1, 2))))
            for _ in range(rng.randint(1, 3))
        )
        g = ClassicalPolynomial(
            ((rng.randint(0, 4), rng.randint(0, 4)), HbarScalar.real(rng.choice((1, Fraction(1, 2)))))
            for _ in range(rng.randint(1, 3))
        )
        assert quantize(poisson_bracket_classical(f, g)) == symmetrized_poisson_bracket(
            quantize(f), quantize(g)
        )


def test_groenewold_pair():
    report = check_obstruction(
        (cmono(3, 0), cmono(0, 3)), (cmono(2, 1), cmono(1, 2))
    )
    assert report.scale == HbarScalar.real(3)
    assert report.classical_bracket == cmono(2, 2, 9)
    assert report.symmetrized_bracket == mono(2, 2).scale(9)
    assert report.symmetrized_agree
    # engine-derived: the commutator routes differ by exactly -3 hbar^2
    assert report.commutator_difference == FreePolynomial.from_word(
        IDENTITY_WORD, HbarScalar.of(-3, 0, 2)
    )
    assert report.commutator_min_hbar_power == 2


def test_trivial_pair_shows_no_discrepancy():
    report = check_obstruction(
        (cmono(1, 0), cmono(0, 1)), (cmono(1, 0), cmono(0, 1))
    )
    assert report.symmetrized_agree
    assert report.commutator_difference.is_zero
    assert report.symmetrized_bracket == WeylPolynomial.one()


def test_obstruction_rejects_unrelated_pairs():
    with pytest.raises(ValueError):
        check_obstruction((cmono(1, 0), cmono(0, 1)), (cmono(2, 0), cmono(0, 1)))


# -- Lie algebra laws ----------------------------------------------------------------


def test_antisymmetry_on_monomials():
    for a in [(1, 0), (2, 1), (0, 3)]:
        for b in [(0, 1), (1, 2), (2, 2)]:
            assert symmetrized_poisson_bracket(mono(*a), mono(*b)) == -(
                symmetrized_poisson_bracket(mono(*b), mono(*a))
            )


def test_jacobi_identity_on_monomials():
    monos = [mono(n, m) for n in range(3) for m in range(3)]
    for f in monos:
        for g in monos:
            for h in monos:
                jac = (
                    symmetrized_poisson_bracket(f, symmetrized_poisson_bracket(g, h))
                    + symmetrized_poisson_bracket(g, symmetrized_poisson_bracket(h, f))
                    + symmetrized_poisson_bracket(h, symmetrized_poisson_bracket(f, g))
                )
                assert jac.is_zero
