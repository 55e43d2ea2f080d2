"""Seeded verification suites shared by the command line and the acceptance tests.

Every suite runs its identity checks over exhaustive monomial families up to
a degree bound plus a configurable number of seeded-random cases, and
reports per-check failures with the full difference polynomial.  Random
generation draws Weyl and classical exponents uniformly from
``[0, max_degree]`` per axis, free words with total length up to
``max_degree``, and coefficients from a small exact pool; identical
``(suite, max_degree, cases, seed)`` configurations reproduce identical
reports byte for byte.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from .brackets import (
    ClassicalPolynomial,
    check_anticommutator_identity,
    check_leibniz,
    check_obstruction,
    check_von_neumann_equivalence,
    leibniz_ordinary_product_gap,
    poisson_bracket_classical,
    quantize,
    symmetrized_poisson_bracket,
)
from .core import (
    FreePolynomial,
    Letter,
    Word,
    adjoint,
    normal_order,
    partial_derivative,
)
from .combinatorics import multiset_permutations
from .errors import UnsupportedFragmentError
from .oracle import oracle_equal
from .printing import render_text, result_to_json_dict
from .scalars import HbarScalar
from .weyl import (
    WeylMonomial,
    WeylPolynomial,
    expand,
    expand_polynomial,
    symmetrize,
    weyl_derivative,
    weyl_product,
)

_COEFF_POOL = (
    Fraction(1),
    Fraction(-1),
    Fraction(1, 2),
    Fraction(-1, 2),
    Fraction(2),
    Fraction(-2),
    Fraction(1, 3),
    Fraction(-1, 3),
)


# -- report structures -------------------------------------------------------


@dataclass(frozen=True)
class Failure:
    input: str
    difference: FreePolynomial | WeylPolynomial


@dataclass(frozen=True)
class CheckResult:
    name: str
    cases: int
    failures: tuple[Failure, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "checks": [
                {
                    "name": check.name,
                    "cases": check.cases,
                    "failures": [
                        {
                            "input": failure.input,
                            "difference": result_to_json_dict(failure.difference),
                        }
                        for failure in check.failures
                    ],
                }
                for check in self.checks
            ],
        }


def _check(name: str, cases: Iterable[tuple[str, FreePolynomial | WeylPolynomial]]) -> CheckResult:
    """Build a check from (label, difference) cases; nonzero differences fail."""
    count = 0
    failures = []
    for label, difference in cases:
        count += 1
        if not difference.is_zero:
            failures.append(Failure(label, difference))
    return CheckResult(name, count, tuple(failures))


# -- random generators --------------------------------------------------------


def _random_coeff(rng: random.Random) -> HbarScalar:
    return HbarScalar.real(rng.choice(_COEFF_POOL))


def _random_word(rng: random.Random, max_degree: int) -> Word:
    length = rng.randint(0, max_degree)
    return Word.of(*(rng.choice((Letter.Q, Letter.P)) for _ in range(length)))


def _random_free(rng: random.Random, max_degree: int) -> FreePolynomial:
    return FreePolynomial(
        (_random_word(rng, max_degree), _random_coeff(rng))
        for _ in range(rng.randint(1, 4))
    )


def _random_weyl(rng: random.Random, max_degree: int) -> WeylPolynomial:
    return WeylPolynomial(
        (
            WeylMonomial(rng.randint(0, max_degree), rng.randint(0, max_degree)),
            _random_coeff(rng),
        )
        for _ in range(rng.randint(1, 4))
    )


def _random_classical(rng: random.Random, max_degree: int) -> ClassicalPolynomial:
    return ClassicalPolynomial(
        (
            (rng.randint(0, max_degree), rng.randint(0, max_degree)),
            _random_coeff(rng),
        )
        for _ in range(rng.randint(1, 4))
    )


def _monomials(max_degree: int) -> list[WeylMonomial]:
    return [
        WeylMonomial(n, m)
        for total in range(max_degree + 1)
        for n in range(total + 1)
        for m in [total - n]
    ]


def _count_words(n: int, m: int, deriv: Letter | None = None) -> list[Word]:
    letters = [Letter.Q] * n + [Letter.P] * m + ([deriv] if deriv else [])
    return [Word(arrangement) for arrangement in multiset_permutations(letters)]


# -- suites --------------------------------------------------------------------


def _ordering_independence(
    monomials: list[WeylMonomial], derivs: tuple[Letter | None, ...]
) -> Iterable[tuple[str, WeylPolynomial]]:
    """Every arrangement of a letter multiset symmetrizes to the first one's image."""
    for mono in monomials:
        for deriv in derivs:
            reference = None
            for word in _count_words(mono.n, mono.m, deriv):
                image = symmetrize(FreePolynomial.from_word(word))
                if reference is None:
                    reference = image
                yield str(word), image - reference


def _monomial_triples(
    max_degree: int, identity: Callable[..., WeylPolynomial]
) -> Iterable[tuple[str, WeylPolynomial]]:
    """An identity's residual on every triple of monomials up to ``max_degree``."""
    monos = [(m, WeylPolynomial.from_monomial(m)) for m in _monomials(max_degree)]
    for f, fp in monos:
        for g, gp in monos:
            for h, hp in monos:
                yield f"{f} , {g} , {h}", identity(fp, gp, hp)


def _suite_eq6(max_degree: int, cases: int, rng: random.Random) -> list[CheckResult]:
    return [
        _check("ordering-independence", _ordering_independence(_monomials(max_degree), (None,))),
        _check(
            "ordering-independence-with-state-derivative",
            _ordering_independence(
                _monomials(max(max_degree - 1, 0)), (Letter.DRHO_Q, Letter.DRHO_P)
            ),
        ),
    ]


def _suite_eq8(max_degree: int, cases: int, rng: random.Random) -> list[CheckResult]:
    def witness() -> Iterable[tuple[str, WeylPolynomial]]:
        q, p = FreePolynomial.from_letters(Letter.Q), FreePolynomial.from_letters(Letter.P)
        anticomm = (q * p + p * q).scale(Fraction(1, 2))
        rewritten = q * p - FreePolynomial.from_word(
            Word(), HbarScalar.of(0, Fraction(1, 2), 1)
        )
        yield "(q p + p q)/2 vs q p - i hbar/2", symmetrize(anticomm) - symmetrize(rewritten)

    def annihilation() -> Iterable[tuple[str, WeylPolynomial]]:
        for mono in _monomials(max_degree):
            for power in (1, 2, 3):
                poly = FreePolynomial.from_word(
                    Word.of(*([Letter.Q] * mono.n + [Letter.P] * mono.m)),
                    HbarScalar.of(1, 0, power),
                )
                yield f"hbar^{power} {mono}", symmetrize(poly)

    def rewrite_invariance() -> Iterable[tuple[str, WeylPolynomial]]:
        for _ in range(cases):
            x = _random_free(rng, max_degree)
            yield render_text(x), symmetrize(x) - symmetrize(normal_order(x))

    def negative_grade() -> Iterable[tuple[str, FreePolynomial]]:
        poly = FreePolynomial.from_word(Word.of(Letter.Q), HbarScalar.of(1, 0, -1))
        try:
            symmetrize(poly)
        except UnsupportedFragmentError:
            yield "hbar^-1 q rejected", FreePolynomial.zero()
        else:
            yield "hbar^-1 q rejected", poly

    return [
        _check("ccr-witness", witness()),
        _check("hbar-annihilation", annihilation()),
        _check("rewrite-invariance", rewrite_invariance()),
        _check("negative-grade-rejected", negative_grade()),
    ]


def _suite_eq10(max_degree: int, cases: int, rng: random.Random) -> list[CheckResult]:
    def two_step(x: WeylPolynomial, y: WeylPolynomial) -> WeylPolynomial:
        return symmetrize(expand_polynomial(x) * expand_polynomial(y))

    def monomial_pairs() -> Iterable[tuple[str, WeylPolynomial]]:
        for a in _monomials(max_degree):
            for b in _monomials(max_degree - a.degree):
                x = WeylPolynomial.from_monomial(a)
                y = WeylPolynomial.from_monomial(b)
                yield f"{a} , {b}", weyl_product(x, y) - two_step(x, y)

    def random_pairs() -> Iterable[tuple[str, WeylPolynomial]]:
        # The agreement is bilinear, so the exhaustive monomial check above
        # carries the degree load; random pairs exercise multi-term
        # coefficient handling at expansion-friendly exponents.
        bound = max(1, max_degree // 2)
        for _ in range(cases):
            x, y = _random_weyl(rng, bound), _random_weyl(rng, bound)
            yield f"{render_text(x)} , {render_text(y)}", weyl_product(x, y) - two_step(x, y)

    def unit() -> Iterable[tuple[str, WeylPolynomial]]:
        for _ in range(cases):
            x = _random_weyl(rng, max_degree)
            yield render_text(x), weyl_product(WeylPolynomial.one(), x) - x

    def commutativity() -> Iterable[tuple[str, WeylPolynomial]]:
        for _ in range(cases):
            x, y = _random_weyl(rng, max_degree), _random_weyl(rng, max_degree)
            yield f"{render_text(x)} , {render_text(y)}", weyl_product(x, y) - weyl_product(y, x)

    def associativity() -> Iterable[tuple[str, WeylPolynomial]]:
        for _ in range(cases):
            x, y, z = (_random_weyl(rng, max_degree) for _ in range(3))
            yield f"{render_text(x)} , {render_text(y)} , {render_text(z)}", (
                weyl_product(weyl_product(x, y), z) - weyl_product(x, weyl_product(y, z))
            )

    def bilinearity() -> Iterable[tuple[str, WeylPolynomial]]:
        for _ in range(cases):
            a = _random_coeff(rng)
            x, y, z = (_random_weyl(rng, max_degree) for _ in range(3))
            lhs = weyl_product(x.scale(a) + y, z)
            rhs = weyl_product(x, z).scale(a) + weyl_product(y, z)
            yield f"{render_text(x)} , {render_text(y)} , {render_text(z)}", lhs - rhs

    return [
        _check("two-step-agreement-monomials", monomial_pairs()),
        _check("two-step-agreement-random", random_pairs()),
        _check("unit", unit()),
        _check("commutativity", commutativity()),
        _check("associativity", associativity()),
        _check("bilinearity", bilinearity()),
    ]


def _suite_eq11(max_degree: int, cases: int, rng: random.Random) -> list[CheckResult]:
    def monomials() -> Iterable[tuple[str, FreePolynomial]]:
        for n in range(max_degree + 1):
            coeffs = [Fraction(0)] * n + [Fraction(1)]
            yield f"V = q^{n}", check_anticommutator_identity(coeffs).difference

    def random_potentials() -> Iterable[tuple[str, FreePolynomial]]:
        for _ in range(cases):
            coeffs = [
                rng.choice(_COEFF_POOL) if rng.random() < 0.7 else Fraction(0)
                for _ in range(rng.randint(1, max_degree + 1))
            ]
            yield f"V coeffs {coeffs}", check_anticommutator_identity(coeffs).difference

    return [
        _check("anticommutator-monomials", monomials()),
        _check("anticommutator-random", random_potentials()),
    ]


def _suite_eq12(max_degree: int, cases: int, rng: random.Random) -> list[CheckResult]:
    def closure(wrt: Letter, deriv: Letter | None) -> Iterable[tuple[str, FreePolynomial]]:
        bound = max_degree - (1 if deriv else 0)
        for mono in _monomials(max(bound, 0)):
            mono = WeylMonomial(mono.n, mono.m, deriv)
            poly = WeylPolynomial.from_monomial(mono)
            direct = partial_derivative(expand(mono), wrt)
            via_basis = expand_polynomial(weyl_derivative(poly, wrt))
            yield f"d/d{wrt.symbol} {mono}", direct - via_basis

    return [
        _check("derivative-closure-q", closure(Letter.Q, None)),
        _check("derivative-closure-p", closure(Letter.P, None)),
        _check(
            "derivative-closure-with-state-derivative",
            (
                case
                for deriv in (Letter.DRHO_Q, Letter.DRHO_P)
                for wrt in (Letter.Q, Letter.P)
                for case in closure(wrt, deriv)
            ),
        ),
    ]


def _suite_eq14(max_degree: int, cases: int, rng: random.Random) -> list[CheckResult]:
    def random_triples() -> Iterable[tuple[str, WeylPolynomial]]:
        for _ in range(cases):
            f, g, h = (_random_weyl(rng, max_degree) for _ in range(3))
            yield (
                f"{render_text(f)} , {render_text(g)} , {render_text(h)}",
                check_leibniz(f, g, h).difference,
            )

    def ordinary_gap() -> Iterable[tuple[str, FreePolynomial]]:
        f = WeylPolynomial.from_monomial(WeylMonomial(2, 0))
        g = WeylPolynomial.from_monomial(WeylMonomial(0, 2))
        h = WeylPolynomial.from_monomial(WeylMonomial(1, 1))
        gap = leibniz_ordinary_product_gap(f, g, h)
        # This check records that the rule *fails* for the ordinary product:
        # a zero gap would be the failure.
        label = "S(q^2) , S(p^2) , q o p (ordinary-product variant stays unequal)"
        if gap.is_zero:
            yield label, FreePolynomial.one()
        else:
            yield label, FreePolynomial.zero()

    def antisymmetry() -> Iterable[tuple[str, WeylPolynomial]]:
        for _ in range(cases):
            f, g = _random_weyl(rng, max_degree), _random_weyl(rng, max_degree)
            yield f"{render_text(f)} , {render_text(g)}", (
                symmetrized_poisson_bracket(f, g) + symmetrized_poisson_bracket(g, f)
            )

    def bilinearity() -> Iterable[tuple[str, WeylPolynomial]]:
        for _ in range(cases):
            a = _random_coeff(rng)
            f, g, h = (_random_weyl(rng, max_degree) for _ in range(3))
            lhs = symmetrized_poisson_bracket(f.scale(a) + g, h)
            rhs = symmetrized_poisson_bracket(f, h).scale(a) + symmetrized_poisson_bracket(g, h)
            yield (
                f"{render_text(f)} , {render_text(g)} , {render_text(h)}",
                lhs - rhs,
            )

    return [
        _check(
            "leibniz-symmetric-product-monomials",
            _monomial_triples(max_degree, lambda f, g, h: check_leibniz(f, g, h).difference),
        ),
        _check("leibniz-symmetric-product-random", random_triples()),
        _check("leibniz-ordinary-product-gap", ordinary_gap()),
        _check("antisymmetry", antisymmetry()),
        _check("bilinearity", bilinearity()),
    ]


def _suite_eq18_19(max_degree: int, cases: int, rng: random.Random) -> list[CheckResult]:
    def momentum_pairing() -> Iterable[tuple[str, FreePolynomial]]:
        for deriv in (Letter.DRHO_Q, Letter.DRHO_P):
            half = HbarScalar.real(Fraction(1, 2))
            expected = FreePolynomial(
                [
                    (Word.of(Letter.P, deriv), half),
                    (Word.of(deriv, Letter.P), half),
                ]
            )
            yield f"p o {deriv.symbol}", expand(WeylMonomial(0, 1, deriv)) - expected

    def coordinate_powers() -> Iterable[tuple[str, FreePolynomial]]:
        for deriv in (Letter.DRHO_Q, Letter.DRHO_P):
            for n in range(max_degree + 1):
                coeff = HbarScalar.real(Fraction(1, n + 1))
                expected = FreePolynomial(
                    (
                        Word.of(*([Letter.Q] * k + [deriv] + [Letter.Q] * (n - k))),
                        coeff,
                    )
                    for k in range(n + 1)
                )
                yield f"q^{n} o {deriv.symbol}", expand(WeylMonomial(n, 0, deriv)) - expected

    return [
        _check("momentum-with-state-derivative", momentum_pairing()),
        _check("coordinate-powers-with-state-derivative", coordinate_powers()),
    ]


def _suite_eq20(max_degree: int, cases: int, rng: random.Random) -> list[CheckResult]:
    def hamiltonians() -> Iterable[tuple[str, FreePolynomial]]:
        for _ in range(cases):
            mass = rng.choice((1, 2, 3, 4))
            kinetic = WeylPolynomial.from_monomial(
                WeylMonomial(0, 2), HbarScalar.real(Fraction(1, 2 * mass))
            )
            potential = WeylPolynomial(
                (WeylMonomial(n, 0), _random_coeff(rng))
                for n in range(rng.randint(1, max_degree + 1))
                if rng.random() < 0.8
            )
            hamiltonian = kinetic + potential
            label = f"H = p^2/{2 * mass} + {render_text(potential)}"
            yield label, check_von_neumann_equivalence(hamiltonian).difference

    return [_check("kinetic-plus-potential", hamiltonians())]


def _suite_eq21(max_degree: int, cases: int, rng: random.Random) -> list[CheckResult]:
    def monomials() -> Iterable[tuple[str, FreePolynomial]]:
        for mono in _monomials(max_degree):
            poly = WeylPolynomial.from_monomial(mono)
            yield str(mono), check_von_neumann_equivalence(poly).difference

    def random_observables() -> Iterable[tuple[str, FreePolynomial]]:
        for _ in range(cases):
            f = _random_weyl(rng, max_degree // 2 or 1)
            yield render_text(f), check_von_neumann_equivalence(f).difference

    return [
        _check("bracket-commutator-equivalence-monomials", monomials()),
        _check("bracket-commutator-equivalence-random", random_observables()),
    ]


def _suite_jacobi(max_degree: int, cases: int, rng: random.Random) -> list[CheckResult]:
    def jacobiator(f: WeylPolynomial, g: WeylPolynomial, h: WeylPolynomial) -> WeylPolynomial:
        return (
            symmetrized_poisson_bracket(f, symmetrized_poisson_bracket(g, h))
            + symmetrized_poisson_bracket(g, symmetrized_poisson_bracket(h, f))
            + symmetrized_poisson_bracket(h, symmetrized_poisson_bracket(f, g))
        )

    def random_triples() -> Iterable[tuple[str, WeylPolynomial]]:
        for _ in range(cases):
            f, g, h = (_random_weyl(rng, max_degree) for _ in range(3))
            yield (
                f"{render_text(f)} , {render_text(g)} , {render_text(h)}",
                jacobiator(f, g, h),
            )

    return [
        _check("jacobi-monomials", _monomial_triples(max_degree, jacobiator)),
        _check("jacobi-random", random_triples()),
    ]


def _suite_hermiticity(max_degree: int, cases: int, rng: random.Random) -> list[CheckResult]:
    def expansions() -> Iterable[tuple[str, FreePolynomial]]:
        for mono in _monomials(max_degree):
            expanded = expand(mono)
            yield str(mono), adjoint(expanded) - expanded

    return [_check("self-adjoint-expansions", expansions())]


def _suite_obstruction(max_degree: int, cases: int, rng: random.Random) -> list[CheckResult]:
    def groenewold() -> Iterable[tuple[str, FreePolynomial | WeylPolynomial]]:
        report = check_obstruction(
            (ClassicalPolynomial.from_monomial(3, 0), ClassicalPolynomial.from_monomial(0, 3)),
            (ClassicalPolynomial.from_monomial(2, 1), ClassicalPolynomial.from_monomial(1, 2)),
        )
        yield "symmetric brackets agree (q^3, p^3) vs scaled (q^2 p, q p^2)", report.symmetrized_difference
        # The commutator discrepancy is the point: zero difference or a
        # difference reaching below grade 2 would falsify the demonstration.
        discrepancy_ok = (
            not report.commutator_difference.is_zero
            and (report.commutator_min_hbar_power or 0) >= 2
        )
        yield (
            f"commutator brackets differ at grade >= 2 (scale {report.scale}, "
            f"difference {render_text(report.commutator_difference)})",
            FreePolynomial.zero() if discrepancy_ok else FreePolynomial.one(),
        )

    def trivial_pair() -> Iterable[tuple[str, FreePolynomial | WeylPolynomial]]:
        report = check_obstruction(
            (ClassicalPolynomial.from_monomial(1, 0), ClassicalPolynomial.from_monomial(0, 1)),
            (ClassicalPolynomial.from_monomial(1, 0), ClassicalPolynomial.from_monomial(0, 1)),
        )
        yield "(q, p) vs (q, p): symmetric", report.symmetrized_difference
        yield "(q, p) vs (q, p): commutator", report.commutator_difference

    def correspondence() -> Iterable[tuple[str, WeylPolynomial]]:
        for _ in range(cases):
            f, g = _random_classical(rng, max_degree), _random_classical(rng, max_degree)
            lhs = quantize(poisson_bracket_classical(f, g))
            rhs = symmetrized_poisson_bracket(quantize(f), quantize(g))
            yield f"{render_text(quantize(f))} , {render_text(quantize(g))}", lhs - rhs

    return [
        _check("groenewold-pair", groenewold()),
        _check("trivial-pair", trivial_pair()),
        _check("classical-correspondence", correspondence()),
    ]


def _suite_oracle(max_degree: int, cases: int, rng: random.Random) -> list[CheckResult]:
    def verdicts() -> Iterable[tuple[str, FreePolynomial]]:
        for _ in range(cases):
            a = _random_free(rng, max_degree)
            if rng.random() < 0.5:
                b = normal_order(a)
            else:
                b = _random_free(rng, max_degree)
            agree = oracle_equal(a, b) == (normal_order(a) == normal_order(b))
            yield (
                f"{render_text(a)} vs {render_text(b)}",
                FreePolynomial.zero() if agree else FreePolynomial.one(),
            )

    return [_check("normal-form-vs-representation", verdicts())]


_SUITES: dict[str, Callable[[int, int, random.Random], list[CheckResult]]] = {
    "eq6": _suite_eq6,
    "eq8": _suite_eq8,
    "eq10": _suite_eq10,
    "eq11": _suite_eq11,
    "eq12": _suite_eq12,
    "eq14": _suite_eq14,
    "eq18_19": _suite_eq18_19,
    "eq20": _suite_eq20,
    "eq21": _suite_eq21,
    "jacobi": _suite_jacobi,
    "hermiticity": _suite_hermiticity,
    "obstruction": _suite_obstruction,
    "oracle": _suite_oracle,
}

SUITE_NAMES = tuple(_SUITES)


def run_suite(
    suite: str, max_degree: int = 6, cases: int = 200, seed: int = 0
) -> SuiteReport:
    """Run one named suite (or ``all``) and return its report."""
    if suite != "all" and suite not in _SUITES:
        raise ValueError(f"unknown suite {suite!r}; expected one of {SUITE_NAMES + ('all',)}")
    if max_degree < 1:
        raise ValueError("max_degree must be at least 1")
    if cases < 1:
        raise ValueError("cases must be at least 1")
    if suite == "all":
        checks = []
        for name in SUITE_NAMES:
            rng = random.Random(f"{seed}:{name}")
            for check in _SUITES[name](max_degree, cases, rng):
                checks.append(
                    CheckResult(f"{name}/{check.name}", check.cases, check.failures)
                )
        return SuiteReport("all", tuple(checks))
    rng = random.Random(f"{seed}:{suite}")
    return SuiteReport(suite, tuple(_SUITES[suite](max_degree, cases, rng)))
