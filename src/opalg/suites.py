"""Seeded verification suites shared by the command line and the acceptance tests.

Every suite runs its identity checks over exhaustive monomial families up to
a degree bound plus a configurable number of seeded-random cases, and
reports per-check failures with the full difference polynomial.  A suite
declares each check as a row ``(name, cases)``; a case is the plain tuple
``(template, values, difference)``, and most cases come from one driver,
:func:`_cases`, which turns input tuples into such cases.  The cases are a
lazy iterator, produced while :func:`_check` builds the check, so every
case's work happens inside that iteration.  :func:`_check` formats a case's
label (``template`` over ``values``, its inputs in text form) only when the
case fails, so a passing run renders no inputs.  Random
generation draws Weyl and classical exponents uniformly from
``[0, max_degree]`` per axis, free words with total length up to
``max_degree``, and coefficients from a small exact pool; identical
``(suite, max_degree, cases, seed)`` configurations reproduce identical
reports byte for byte.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import cache
from typing import Callable, Iterable

from .brackets import (
    ClassicalPolynomial,
    _bracket_sum,
    _leibniz,
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
from .errors import UnsupportedFragmentError
from .oracle import oracle_equal
from .printing import render_text, result_to_json_dict
from .scalars import HbarScalar
from .terms import TaggedTuple
from .weyl import (
    WeylMonomial,
    WeylPolynomial,
    _product_difference,
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
_DERIVS = (Letter.DRHO_Q, Letter.DRHO_P)


# -- report structures -------------------------------------------------------


class Failure(TaggedTuple):
    __slots__ = ()
    _fields = ("input", "difference")  # str, FreePolynomial | WeylPolynomial


class CheckResult(TaggedTuple):
    __slots__ = ()
    _fields = ("name", "cases", "failures")  # str, int, tuple[Failure, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


class SuiteReport(TaggedTuple):
    __slots__ = ()
    _fields = ("suite", "checks")  # str, tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def to_text(self) -> str:
        """The report as ``verify`` prints it in text: one line per check,
        each failure's input and difference under its check, and the verdict
        last."""
        lines = [f"suite {self.suite}"]
        for check in self.checks:
            status = "PASS" if check.passed else "FAIL"
            lines.append(f"  {check.name:55s} {status} ({check.cases} cases)")
            for failure in check.failures:
                lines.append(f"    input:      {failure.input}")
                lines.append(f"    difference: {render_text(failure.difference)}")
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)

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


Cases = Iterable[tuple[str, tuple, FreePolynomial | WeylPolynomial]]


def _format_label(template: str, values: tuple) -> str:
    """A case's label: ``template`` formatted with ``values``, each polynomial
    in its text form."""
    return template.format(
        *(render_text(v) if isinstance(v, (FreePolynomial, WeylPolynomial)) else v for v in values)
    )


def _check(name: str, cases: Cases) -> CheckResult:
    """Build a check from ``(template, values, difference)`` cases; nonzero
    differences fail, and only a failing case's label is formatted."""
    count = 0
    failures = []
    for template, values, difference in cases:
        count += 1
        if not difference.is_zero:
            failures.append(Failure(_format_label(template, values), difference))
    return CheckResult(name, count, tuple(failures))


def _run(*rows: tuple[str, Cases]) -> list[CheckResult]:
    """A suite's ``(name, cases)`` rows, each built by :func:`_check` in order.

    The cases of a row are a lazy iterator, so every case, its inputs
    included, is produced while ``_check`` iterates it."""
    return [_check(name, cases) for name, cases in rows]


def _cases(template: str, inputs: Iterable[tuple], residual: Callable) -> Cases:
    """One case per input tuple ``args``: ``(template, args, residual(*args))``.
    A template may skip trailing values or read fields (``{0.symbol}``);
    ``zip(values)`` gives one-value tuples."""
    for args in inputs:
        yield template, args, residual(*args)


def _holds(ok: bool) -> FreePolynomial:
    """The residual of a recorded fact: zero when it holds, one when not."""
    return FreePolynomial.zero() if ok else FreePolynomial.one()


# -- random generators --------------------------------------------------------


def _random_coeff(rng: random.Random) -> HbarScalar:
    return HbarScalar.real(rng.choice(_COEFF_POOL))


def _random_word(rng: random.Random, max_degree: int) -> Word:
    length = rng.randint(0, max_degree)
    return Word.of(*(rng.choice((Letter.Q, Letter.P)) for _ in range(length)))


def _degrees(rng: random.Random, max_degree: int) -> tuple[int, int]:
    return rng.randint(0, max_degree), rng.randint(0, max_degree)


def _random_terms(cls, rng: random.Random, key: Callable[[], object]):
    return cls((key(), _random_coeff(rng)) for _ in range(rng.randint(1, 4)))


def _random_free(rng: random.Random, max_degree: int) -> FreePolynomial:
    return _random_terms(FreePolynomial, rng, lambda: _random_word(rng, max_degree))


def _random_weyl(rng: random.Random, max_degree: int) -> WeylPolynomial:
    return _random_terms(WeylPolynomial, rng, lambda: WeylMonomial(*_degrees(rng, max_degree)))


def _random_classical(rng: random.Random, max_degree: int) -> ClassicalPolynomial:
    return _random_terms(ClassicalPolynomial, rng, lambda: _degrees(rng, max_degree))


def _monomials(max_degree: int) -> list[WeylMonomial]:
    return [
        WeylMonomial(n, m)
        for total in range(max_degree + 1)
        for n in range(total + 1)
        for m in [total - n]
    ]


# -- suites --------------------------------------------------------------------


def _ordering_independence(
    monomials: list[WeylMonomial], derivs: tuple[Letter | None, ...]
) -> Cases:
    """Every arrangement of a letter multiset, listed as the words of its
    monomial's expansion, symmetrizes to the first one's image."""
    for mono in monomials:
        for deriv in derivs:
            reference = None
            for word, _ in expand(WeylMonomial(mono.n, mono.m, deriv)).items():
                image = symmetrize(FreePolynomial.from_word(word))
                if reference is None:
                    reference = image
                yield "{}", (word,), image - reference


def _random_cases(
    rng: random.Random, cases: int, arity: int, degree: int, identity: Callable
) -> Cases:
    """An identity's residual on ``cases`` tuples of random Weyl polynomials."""
    draws = ([_random_weyl(rng, degree) for _ in range(arity)] for _ in range(cases))
    return _cases(" , ".join(["{}"] * arity), draws, identity)


def _bilinearity(
    rng: random.Random, cases: int, degree: int, op: Callable[..., WeylPolynomial]
) -> Cases:
    """Linearity of ``op`` in its first argument on random inputs."""

    def residual(a: HbarScalar, x: WeylPolynomial, y: WeylPolynomial, z: WeylPolynomial):
        return op(x.scale(a) + y, z) - (op(x, z).scale(a) + op(y, z))

    draws = (
        [_random_coeff(rng)] + [_random_weyl(rng, degree) for _ in range(3)] for _ in range(cases)
    )
    return _cases("{1} , {2} , {3}", draws, residual)


def _pair_table(
    op: Callable[[WeylPolynomial, WeylPolynomial], WeylPolynomial], values: list[WeylPolynomial]
) -> Callable[[int, int], WeylPolynomial]:
    """``op`` on ordered pairs of ``values``, looked up by index; each pair is
    computed on first use and kept, so no one lookup carries the whole table.
    The cache is the table's own and lives only as long as the check that
    holds the table."""
    return cache(lambda i, j: op(values[i], values[j]))


def _monomial_triples(max_degree: int, residual: Callable[..., WeylPolynomial]) -> Cases:
    """An identity's residual on every triple of monomials up to ``max_degree``.

    ``residual(values, product, bracket, i, j, k)`` is the identity on the
    Weyl values at indices ``(i, j, k)``; it looks up each symmetric product
    and bracket of two of the three in the :func:`_pair_table` tables
    ``product`` and ``bracket``, which live as long as this run.  A table
    computes a pair only when it is first looked up, so a table that the
    residual never reads computes nothing.
    """
    monos = _monomials(max_degree)
    values = [WeylPolynomial.from_monomial(m) for m in monos]
    product = _pair_table(weyl_product, values)
    bracket = _pair_table(symmetrized_poisson_bracket, values)
    for i, j, k in itertools.product(range(len(monos)), repeat=3):
        difference = residual(values, product, bracket, i, j, k)
        yield "{} , {} , {}", (monos[i], monos[j], monos[k]), difference


def _on_monomials(identity: Callable[..., WeylPolynomial]) -> Callable[..., WeylPolynomial]:
    """``identity`` on the Weyl polynomials of the monomials it is given."""
    return lambda *monos: identity(*(WeylPolynomial.from_monomial(m) for m in monos))


def _suite_eq6(max_degree: int, cases: int, rng: random.Random) -> list[CheckResult]:
    return _run(
        ("ordering-independence", _ordering_independence(_monomials(max_degree), (None,))),
        (
            "ordering-independence-with-state-derivative",
            _ordering_independence(_monomials(max(max_degree - 1, 0)), _DERIVS),
        ),
    )


def _suite_eq8(max_degree: int, cases: int, rng: random.Random) -> list[CheckResult]:
    def witness() -> WeylPolynomial:
        q, p = FreePolynomial.from_letters(Letter.Q), FreePolynomial.from_letters(Letter.P)
        anticomm = (q * p + p * q).scale(Fraction(1, 2))
        rewritten = q * p - FreePolynomial.from_word(Word(), HbarScalar.of(0, Fraction(1, 2), 1))
        return symmetrize(anticomm) - symmetrize(rewritten)

    def annihilated(power: int, mono: WeylMonomial) -> WeylPolynomial:
        word = Word.of(*([Letter.Q] * mono.n + [Letter.P] * mono.m))
        return symmetrize(FreePolynomial.from_word(word, HbarScalar.of(1, 0, power)))

    def rewrite_invariance(x: FreePolynomial) -> WeylPolynomial:
        return symmetrize(x) - symmetrize(normal_order(x))

    def negative_grade() -> FreePolynomial:
        poly = FreePolynomial.from_word(Word.of(Letter.Q), HbarScalar.of(1, 0, -1))
        try:
            symmetrize(poly)
        except UnsupportedFragmentError:
            return FreePolynomial.zero()
        return poly

    powers = ((power, mono) for mono in _monomials(max_degree) for power in (1, 2, 3))
    draws = ((_random_free(rng, max_degree),) for _ in range(cases))
    return _run(
        ("ccr-witness", _cases("(q p + p q)/2 vs q p - i hbar/2", [()], witness)),
        ("hbar-annihilation", _cases("hbar^{} {}", powers, annihilated)),
        ("rewrite-invariance", _cases("{}", draws, rewrite_invariance)),
        ("negative-grade-rejected", _cases("hbar^-1 q rejected", [()], negative_grade)),
    )


def _suite_eq10(max_degree: int, cases: int, rng: random.Random) -> list[CheckResult]:
    def two_step(x: WeylPolynomial, y: WeylPolynomial) -> WeylPolynomial:
        return symmetrize(expand_polynomial(x) * expand_polynomial(y))

    def agreement(x: WeylPolynomial, y: WeylPolynomial) -> WeylPolynomial:
        return weyl_product(x, y) - two_step(x, y)

    def unit(x: WeylPolynomial) -> WeylPolynomial:
        return weyl_product(WeylPolynomial.one(), x) - x

    def commutator(x: WeylPolynomial, y: WeylPolynomial) -> WeylPolynomial:
        return _product_difference(x, y, y, x)

    def associator(x: WeylPolynomial, y: WeylPolynomial, z: WeylPolynomial) -> WeylPolynomial:
        return _product_difference(weyl_product(x, y), z, x, weyl_product(y, z))

    pairs = ((a, b) for a in _monomials(max_degree) for b in _monomials(max_degree - a.degree))
    # The agreement is bilinear, so the exhaustive monomial check
    # carries the degree load; random pairs exercise multi-term
    # coefficient handling at expansion-friendly exponents.
    bound = max(1, max_degree // 2)
    return _run(
        ("two-step-agreement-monomials", _cases("{} , {}", pairs, _on_monomials(agreement))),
        ("two-step-agreement-random", _random_cases(rng, cases, 2, bound, agreement)),
        ("unit", _random_cases(rng, cases, 1, max_degree, unit)),
        ("commutativity", _random_cases(rng, cases, 2, max_degree, commutator)),
        ("associativity", _random_cases(rng, cases, 3, max_degree, associator)),
        ("bilinearity", _bilinearity(rng, cases, max_degree, weyl_product)),
    )


def _suite_eq11(max_degree: int, cases: int, rng: random.Random) -> list[CheckResult]:
    def anticommutator(coeffs: list[Fraction]) -> FreePolynomial:
        return check_anticommutator_identity(coeffs).difference

    def monomial(n: int) -> FreePolynomial:
        return anticommutator([Fraction(0)] * n + [Fraction(1)])

    def potential() -> list[Fraction]:
        return [
            rng.choice(_COEFF_POOL) if rng.random() < 0.7 else Fraction(0)
            for _ in range(rng.randint(1, max_degree + 1))
        ]

    powers = ((n,) for n in range(max_degree + 1))
    draws = ((potential(),) for _ in range(cases))
    return _run(
        ("anticommutator-monomials", _cases("V = q^{}", powers, monomial)),
        ("anticommutator-random", _cases("V coeffs {}", draws, anticommutator)),
    )


def _suite_eq12(max_degree: int, cases: int, rng: random.Random) -> list[CheckResult]:
    def closure(wrt: Letter, mono: WeylMonomial) -> FreePolynomial:
        direct = partial_derivative(expand(mono), wrt)
        return direct - expand_polynomial(weyl_derivative(WeylPolynomial.from_monomial(mono), wrt))

    def monomials(wrts: tuple[Letter, ...], derivs: tuple[Letter | None, ...]) -> Cases:
        inputs = (
            (wrt, WeylMonomial(mono.n, mono.m, deriv))
            for deriv in derivs
            for wrt in wrts
            for mono in _monomials(max(max_degree - (1 if deriv else 0), 0))
        )
        return _cases("d/d{0.symbol} {1}", inputs, closure)

    return _run(
        ("derivative-closure-q", monomials((Letter.Q,), (None,))),
        ("derivative-closure-p", monomials((Letter.P,), (None,))),
        ("derivative-closure-with-state-derivative", monomials((Letter.Q, Letter.P), _DERIVS)),
    )


def _suite_eq14(max_degree: int, cases: int, rng: random.Random) -> list[CheckResult]:
    def leibniz(f: WeylPolynomial, g: WeylPolynomial, h: WeylPolynomial) -> WeylPolynomial:
        return check_leibniz(f, g, h).difference

    def monomial_leibniz(values, product, bracket, i: int, j: int, k: int) -> WeylPolynomial:
        f, g, h = values[i], values[j], values[k]
        return _leibniz(f, g, h, product(j, k), bracket(i, j), bracket(i, k))

    def ordinary_gap() -> FreePolynomial:
        f = WeylPolynomial.from_monomial(WeylMonomial(2, 0))
        g = WeylPolynomial.from_monomial(WeylMonomial(0, 2))
        h = WeylPolynomial.from_monomial(WeylMonomial(1, 1))
        # This check records that the rule *fails* for the ordinary product:
        # a zero gap would be the failure.
        return _holds(not leibniz_ordinary_product_gap(f, g, h).is_zero)

    def antisymmetry(f: WeylPolynomial, g: WeylPolynomial) -> WeylPolynomial:
        return _bracket_sum((f, g), (g, f))

    gap = "S(q^2) , S(p^2) , q o p (ordinary-product variant stays unequal)"
    return _run(
        ("leibniz-symmetric-product-monomials", _monomial_triples(max_degree, monomial_leibniz)),
        ("leibniz-symmetric-product-random", _random_cases(rng, cases, 3, max_degree, leibniz)),
        ("leibniz-ordinary-product-gap", _cases(gap, [()], ordinary_gap)),
        ("antisymmetry", _random_cases(rng, cases, 2, max_degree, antisymmetry)),
        ("bilinearity", _bilinearity(rng, cases, max_degree, symmetrized_poisson_bracket)),
    )


def _suite_eq18_19(max_degree: int, cases: int, rng: random.Random) -> list[CheckResult]:
    def momentum(deriv: Letter) -> FreePolynomial:
        half = HbarScalar.real(Fraction(1, 2))
        pair = (Word.of(Letter.P, deriv), half), (Word.of(deriv, Letter.P), half)
        return expand(WeylMonomial(0, 1, deriv)) - FreePolynomial(pair)

    def coordinate_power(n: int, deriv: Letter) -> FreePolynomial:
        coeff = HbarScalar.real(Fraction(1, n + 1))
        expected = FreePolynomial(
            (Word.of(*([Letter.Q] * k + [deriv] + [Letter.Q] * (n - k))), coeff)
            for k in range(n + 1)
        )
        return expand(WeylMonomial(n, 0, deriv)) - expected

    powers = ((n, deriv) for deriv in _DERIVS for n in range(max_degree + 1))
    return _run(
        ("momentum-with-state-derivative", _cases("p o {0.symbol}", zip(_DERIVS), momentum)),
        (
            "coordinate-powers-with-state-derivative",
            _cases("q^{0} o {1.symbol}", powers, coordinate_power),
        ),
    )


def _von_neumann(f: WeylPolynomial) -> FreePolynomial:
    return check_von_neumann_equivalence(f).difference


def _suite_eq20(max_degree: int, cases: int, rng: random.Random) -> list[CheckResult]:
    def random_potential() -> WeylPolynomial:
        return WeylPolynomial(
            (WeylMonomial(n, 0), _random_coeff(rng))
            for n in range(rng.randint(1, max_degree + 1))
            if rng.random() < 0.8
        )

    def equivalence(two_m: int, potential: WeylPolynomial) -> FreePolynomial:
        kinetic = WeylPolynomial.from_monomial(
            WeylMonomial(0, 2), HbarScalar.real(Fraction(1, two_m))
        )
        return _von_neumann(kinetic + potential)

    draws = ((2 * rng.choice((1, 2, 3, 4)), random_potential()) for _ in range(cases))
    return _run(("kinetic-plus-potential", _cases("H = p^2/{} + {}", draws, equivalence)))


def _suite_eq21(max_degree: int, cases: int, rng: random.Random) -> list[CheckResult]:
    monomials = zip(_monomials(max_degree))
    return _run(
        (
            "bracket-commutator-equivalence-monomials",
            _cases("{}", monomials, _on_monomials(_von_neumann)),
        ),
        (
            "bracket-commutator-equivalence-random",
            _random_cases(rng, cases, 1, max_degree // 2 or 1, _von_neumann),
        ),
    )


def _suite_jacobi(max_degree: int, cases: int, rng: random.Random) -> list[CheckResult]:
    def jacobiator(f: WeylPolynomial, g: WeylPolynomial, h: WeylPolynomial) -> WeylPolynomial:
        bracket = symmetrized_poisson_bracket
        return _bracket_sum((f, bracket(g, h)), (g, bracket(h, f)), (h, bracket(f, g)))

    def monomial_jacobiator(values, product, bracket, i: int, j: int, k: int) -> WeylPolynomial:
        f, g, h = values[i], values[j], values[k]
        return _bracket_sum((f, bracket(j, k)), (g, bracket(k, i)), (h, bracket(i, j)))

    return _run(
        ("jacobi-monomials", _monomial_triples(max_degree, monomial_jacobiator)),
        ("jacobi-random", _random_cases(rng, cases, 3, max_degree, jacobiator)),
    )


def _suite_hermiticity(max_degree: int, cases: int, rng: random.Random) -> list[CheckResult]:
    def self_adjoint(mono: WeylMonomial) -> FreePolynomial:
        expanded = expand(mono)
        return adjoint(expanded) - expanded

    monomials = zip(_monomials(max_degree))
    return _run(("self-adjoint-expansions", _cases("{}", monomials, self_adjoint)))


def _suite_obstruction(max_degree: int, cases: int, rng: random.Random) -> list[CheckResult]:
    def monomials(*exponents: tuple[int, int]) -> tuple[ClassicalPolynomial, ...]:
        return tuple(ClassicalPolynomial.from_monomial(n, m) for n, m in exponents)

    def groenewold() -> Cases:
        report = check_obstruction(monomials((3, 0), (0, 3)), monomials((2, 1), (1, 2)))
        agree = "symmetric brackets agree (q^3, p^3) vs scaled (q^2 p, q p^2)"
        yield agree, (), report.symmetrized_difference
        # The commutator discrepancy is the point: zero difference or a
        # difference reaching below grade 2 would falsify the demonstration.
        discrepancy_ok = (
            not report.commutator_difference.is_zero
            and (report.commutator_min_hbar_power or 0) >= 2
        )
        differ = "commutator brackets differ at grade >= 2 (scale {}, difference {})"
        yield differ, (report.scale, report.commutator_difference), _holds(discrepancy_ok)

    def trivial_pair() -> Cases:
        report = check_obstruction(monomials((1, 0), (0, 1)), monomials((1, 0), (0, 1)))
        yield "(q, p) vs (q, p): symmetric", (), report.symmetrized_difference
        yield "(q, p) vs (q, p): commutator", (), report.commutator_difference

    def draw() -> tuple:
        f, g = _random_classical(rng, max_degree), _random_classical(rng, max_degree)
        return quantize(f), quantize(g), f, g

    def correspondence(qf: WeylPolynomial, qg: WeylPolynomial, f, g) -> WeylPolynomial:
        return quantize(poisson_bracket_classical(f, g)) - symmetrized_poisson_bracket(qf, qg)

    draws = (draw() for _ in range(cases))
    return _run(
        ("groenewold-pair", groenewold()),
        ("trivial-pair", trivial_pair()),
        ("classical-correspondence", _cases("{} , {}", draws, correspondence)),
    )


def _suite_oracle(max_degree: int, cases: int, rng: random.Random) -> list[CheckResult]:
    def draws() -> Iterable[tuple[FreePolynomial, ...]]:
        for _ in range(cases):
            a = _random_free(rng, max_degree)
            normal_a = normal_order(a)
            if rng.random() < 0.5:
                yield a, normal_a, normal_a, normal_a  # the normal form is idempotent
            else:
                b = _random_free(rng, max_degree)
                yield a, b, normal_a, normal_order(b)

    def verdict(a, b, normal_a: FreePolynomial, normal_b: FreePolynomial) -> FreePolynomial:
        return _holds(oracle_equal(a, b) == (normal_a == normal_b))

    return _run(("normal-form-vs-representation", _cases("{} vs {}", draws(), verdict)))


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


def run_suite(suite: str, max_degree: int = 6, cases: int = 200, seed: int = 0) -> SuiteReport:
    """Run one named suite (or ``all``) and return its report."""
    if suite != "all" and suite not in _SUITES:
        raise ValueError(f"unknown suite {suite!r}; expected one of {SUITE_NAMES + ('all',)}")
    if max_degree < 1:
        raise ValueError("max_degree must be at least 1")
    if cases < 1:
        raise ValueError("cases must be at least 1")
    checks = []
    for name in SUITE_NAMES if suite == "all" else (suite,):
        for check in _SUITES[name](max_degree, cases, random.Random(f"{seed}:{name}")):
            if suite == "all":
                check = CheckResult(f"{name}/{check.name}", check.cases, check.failures)
            checks.append(check)
    return SuiteReport(suite, tuple(checks))
