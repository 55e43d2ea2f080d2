"""Results built on the trusted path are the values the public constructors
would build, in the same term order; the public constructors keep their checks."""

import copy
import pickle
from dataclasses import FrozenInstanceError
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import given, settings, strategies as st

from opalg.brackets import ClassicalPolynomial, _monomial_bracket, symmetrized_poisson_bracket
from opalg.core import FreePolynomial, Letter, Word, _word, adjoint, multiply, normal_order, partial_derivative
from opalg.errors import UnsupportedFragmentError
from opalg.parser import _one_basis, _times
from opalg.scalars import HBAR, HbarScalar, INV_I_HBAR, ONE
from opalg.terms import GradedTerms, bilinear, bilinear_sum, linear_map
from opalg.weyl import (
    WeylMonomial,
    WeylPolynomial,
    _add_exponents,
    _monomial,
    weyl_derivative,
    weyl_product,
)

Q, P, DQ, DP = Letter.Q, Letter.P, Letter.DRHO_Q, Letter.DRHO_P

parts = st.sampled_from([0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)])


class Degrees(GradedTerms):
    """The int-keyed value of these tests: a polynomial in x keyed by degree."""

    __slots__ = ()

    @classmethod
    def _validate_pair(cls, key: int, scalar: HbarScalar) -> None:
        if not isinstance(key, int) or key < 0:
            raise TypeError("degrees are non-negative integers")


def scalars(grades=(-1, 0, 1, 2)):
    return st.builds(HbarScalar, parts, parts, st.sampled_from(grades))


def values(cls, keys, grades=(-1, 0, 1, 2)):
    """Values with repeated keys, several grades per key and cancelling pairs."""

    def build(pairs, cancel):
        cancelled = [(key, -c) for (key, c), drop in zip(pairs, cancel) if drop]
        return cls(pairs + cancelled)

    pairs = st.lists(st.tuples(keys, scalars(grades)), max_size=6)
    return st.builds(build, pairs, st.lists(st.booleans(), max_size=6))


words = st.lists(st.sampled_from([Q, P, Letter.RHO, DQ, DP]), max_size=4).map(
    lambda letters: Word(tuple(letters))
)
small = st.integers(0, 3)
monomials = st.builds(WeylMonomial, small, small, st.sampled_from([None, None, DQ, DP]))
free = values(FreePolynomial, words)
weyl = values(WeylPolynomial, monomials)
classical = values(ClassicalPolynomial, st.tuples(small, small), grades=(0,))
functions = values(Degrees, st.integers(0, 5))


def assert_normalized(r):
    rebuilt = type(r)(list(r.items()))
    assert r == rebuilt
    assert list(r.items()) == list(rebuilt.items())
    for (key, grade), c in r._terms.items():
        assert c and grade == c.hbar_power
        if isinstance(key, Word):
            assert Word(key.letters) == key
        elif isinstance(key, WeylMonomial):
            assert WeylMonomial(key.n, key.m, key.deriv) == key


def assert_matches(r, reference):
    """``reference`` is the public-constructor route to the same result."""
    assert_normalized(r)
    assert r == reference
    assert list(r.items()) == list(reference.items())


# Zero, ints, a Fraction and scalars of grade 0, 1 and -1 (the bracket prefactor).
SCALE_FACTORS = [
    0, 2, -1, Fraction(-1, 3), HbarScalar.of(0, 2), HbarScalar.of(1, -1, 1), INV_I_HBAR
]


def check_linear(x, y):
    cls = type(x)
    assert_matches(x + y, cls(chain(x.items(), y.items())))
    assert_matches(x - y, cls(chain(x.items(), ((k, -c) for k, c in y.items()))))
    assert_matches(-x, cls((k, -c) for k, c in x.items()))
    for factor in SCALE_FACTORS:
        if not isinstance(factor, HbarScalar):
            factor = HbarScalar.real(factor)
        elif factor.hbar_power and cls is ClassicalPolynomial:
            continue
        assert_matches(x.scale(factor), cls((k, c * factor) for k, c in x.items()))


def pairs_of(x, y):
    return [(kx, cx, ky, cy) for kx, cx in x.items() for ky, cy in y.items()]


def raises_like(op, reference, *args):
    """Run ``op``; if the public route raises, ``op`` must raise the same."""
    try:
        expected = reference(*args)
    except UnsupportedFragmentError as exc:
        with pytest.raises(UnsupportedFragmentError, match=str(exc)):
            op(*args)
        return
    assert_matches(op(*args), expected)


def weyl_product_terms(x, y):
    """The per-pair ``(key, scalar)`` terms of the symmetric product, built
    through the public key constructor."""
    out = []
    for a, ca, b, cb in pairs_of(x, y):
        if a.deriv is not None and b.deriv is not None:
            raise UnsupportedFragmentError(
                "cannot multiply two terms that both carry a state-derivative letter"
            )
        out.append((WeylMonomial(a.n + b.n, a.m + b.m, a.deriv or b.deriv), ca * cb))
    return out


def bracket_terms(x, y):
    out = []
    for a, ca, b, cb in pairs_of(x, y):
        ad, bc = a.n * b.m, a.m * b.n
        if a.deriv is not None and b.deriv is not None and (ad or bc):
            raise UnsupportedFragmentError(
                "cannot multiply two terms that both carry a state-derivative letter"
            )
        if ad != bc:
            key = WeylMonomial(a.n + b.n - 1, a.m + b.m - 1, a.deriv or b.deriv)
            out.append((key, ca * cb * (ad - bc)))
    return out


def weyl_product_reference(x, y):
    return WeylPolynomial(weyl_product_terms(x, y))


def bracket_reference(x, y):
    return WeylPolynomial(bracket_terms(x, y))


@given(free, free)
def test_free_operations_match_the_public_route(x, y):
    check_linear(x, y)
    assert_matches(
        multiply(x, y),
        FreePolynomial((Word(a.letters + b.letters), ca * cb) for a, ca, b, cb in pairs_of(x, y)),
    )
    for wrt in (Q, P):
        assert_matches(
            partial_derivative(x, wrt),
            FreePolynomial(
                (Word(w.letters[:i] + w.letters[i + 1 :]), c)
                for w, c in x.items()
                for i, letter in enumerate(w.letters)
                if letter is wrt
            ),
        )
    assert_normalized(normal_order(x))
    assert normal_order(normal_order(x)) == normal_order(x)


@given(values(FreePolynomial, st.lists(st.sampled_from([Q, P]), max_size=4).map(lambda ls: Word(tuple(ls)))))
def test_adjoint_matches_the_public_route(x):
    assert_matches(
        adjoint(x), FreePolynomial((Word(w.letters[::-1]), c.conjugate()) for w, c in x.items())
    )


@settings(max_examples=120)
@given(weyl, weyl)
def test_weyl_operations_match_the_public_route(x, y):
    check_linear(x, y)
    raises_like(weyl_product, weyl_product_reference, x, y)
    raises_like(symmetrized_poisson_bracket, bracket_reference, x, y)
    for wrt, exponent in ((Q, "n"), (P, "m")):
        expected = []
        for w, c in x.items():
            n = getattr(w, exponent)
            if n:
                lowered = (w.n - 1, w.m) if wrt is Q else (w.n, w.m - 1)
                expected.append((WeylMonomial(*lowered, w.deriv), c * n))
        assert_matches(weyl_derivative(x, wrt), WeylPolynomial(expected))


# One coefficient object repeated over many keys, as along an expansion's
# words, interleaved with an equal-valued distinct copy and other objects.
SHARED = HbarScalar.of(Fraction(-1, 2), 1)
SHARED_POOL = [SHARED, SHARED, HbarScalar.of(Fraction(-1, 2), 1), -SHARED, HbarScalar.of(2, 0, 1)]


def shared_values(cls, keys):
    return st.lists(st.tuples(keys, st.sampled_from(SHARED_POOL)), max_size=8).map(cls)


@settings(max_examples=120)
@given(shared_values(WeylPolynomial, monomials), shared_values(WeylPolynomial, monomials))
def test_bilinear_reuses_shared_coefficients_like_the_per_pair_route(x, y):
    # ``_add_exponents`` gives factor 1 to every pair, ``_monomial_bracket``
    # an int factor that may be 0, 1 or another int along one run of ``y``.
    raises_like(weyl_product, weyl_product_reference, x, y)
    raises_like(symmetrized_poisson_bracket, bracket_reference, x, y)


@given(shared_values(FreePolynomial, words), shared_values(FreePolynomial, words))
def test_free_product_reuses_shared_coefficients_like_the_per_pair_route(x, y):
    assert_matches(
        multiply(x, y),
        FreePolynomial((Word(a.letters + b.letters), ca * cb) for a, ca, b, cb in pairs_of(x, y)),
    )


# -- signed sums of products in one slot map ---------------------------------------


def free_product_terms(x, y):
    return [(Word(a.letters + b.letters), ca * cb) for a, ca, b, cb in pairs_of(x, y)]


def classical_product_terms(x, y):
    return [((a[0] + b[0], a[1] + b[1]), ca * cb) for a, ca, b, cb in pairs_of(x, y)]


# Per value type: the operands, and each product as (key hook, per-pair
# reference).  The Weyl hooks are the package's own.
KERNEL_CASES = {
    WeylPolynomial: (
        st.one_of(weyl, shared_values(WeylPolynomial, monomials), st.just(WeylPolynomial())),
        [(_add_exponents, weyl_product_terms), (_monomial_bracket, bracket_terms)],
    ),
    FreePolynomial: (
        st.one_of(free, shared_values(FreePolynomial, words), st.just(FreePolynomial())),
        [(lambda a, b: (_word(a.letters + b.letters), 1), free_product_terms)],
    ),
    ClassicalPolynomial: (
        st.one_of(classical, st.just(ClassicalPolynomial())),
        [(lambda a, b: ((a[0] + b[0], a[1] + b[1]), 1), classical_product_terms)],
    ),
}


@st.composite
def signed_parts(draw):
    """A value type and parts ``(x, y, hook index, sign)``; a part may be
    followed by its opposite, so that parts cancel to zero."""
    cls = draw(st.sampled_from(list(KERNEL_CASES)))
    operands, hooks = KERNEL_CASES[cls]
    parts = []
    for _ in range(draw(st.integers(0, 4))):
        part = (draw(operands), draw(operands), draw(st.integers(0, len(hooks) - 1)))
        sign = draw(st.sampled_from([1, -1]))
        parts.append((*part, sign))
        if draw(st.booleans()):
            parts.append((*part, -sign))
    return cls, parts


def summed_reference(cls, parts):
    """The public constructor over every part's per-pair reference terms,
    signed, in part order."""
    hooks = KERNEL_CASES[cls][1]
    terms = []
    for x, y, hook, sign in parts:
        terms += [(key, c if sign > 0 else -c) for key, c in hooks[hook][1](x, y)]
    return cls(terms)


def summed(cls, parts):
    hooks = KERNEL_CASES[cls][1]
    return bilinear_sum(cls, [(x, y, hooks[hook][0], sign) for x, y, hook, sign in parts])


@settings(max_examples=200)
@given(signed_parts())
def test_bilinear_sum_matches_the_public_route(drawn):
    cls, parts = drawn
    raises_like(summed, summed_reference, cls, parts)


@pytest.mark.parametrize("hook", [0, 1], ids=["product", "bracket"])
@pytest.mark.parametrize("sign", [1, -1])
def test_bilinear_sum_of_two_derivative_letters_raises_like_the_public_route(hook, sign):
    x = WeylPolynomial([(WeylMonomial(1, 0, DQ), ONE)])
    y = WeylPolynomial([(WeylMonomial(0, 1, DP), HBAR)])
    parts = [(x, x.scale(0), hook, 1), (x, y, hook, sign)]
    with pytest.raises(UnsupportedFragmentError):
        summed_reference(WeylPolynomial, parts)
    raises_like(summed, summed_reference, WeylPolynomial, parts)


def test_bilinear_sum_of_opposite_parts_is_zero():
    x = WeylPolynomial([(WeylMonomial(2, 1), SHARED), (WeylMonomial(0, 3, DQ), -SHARED)])
    y = WeylPolynomial([(WeylMonomial(1, 1), HBAR), (WeylMonomial(0, 2), SHARED)])
    for hook in (_add_exponents, _monomial_bracket):
        parts = [(x, y, hook, 1), (x, y, hook, -1)]
        assert bilinear_sum(WeylPolynomial, parts) == WeylPolynomial()
        assert bilinear_sum(WeylPolynomial, parts[:1]) == bilinear(x, y, hook)
        assert bilinear_sum(WeylPolynomial, parts[1:]) == -bilinear(x, y, hook)
    assert bilinear_sum(WeylPolynomial, []) == WeylPolynomial()


def test_the_pair_loop_counts_then_scales(monkeypatch):
    """One ``cx * cy`` per term of ``x`` along a ``y`` of one coefficient
    object, one signed product per term of ``x`` in a negative part, with
    no negation, and no scalar at all for a pair whose factor is 0."""
    from opalg import terms

    made = {"mul": 0, "neg": 0, "scaled": 0}

    def counting(name, func):
        def counted(*args):
            made[name] += 1
            return func(*args)

        return counted

    monkeypatch.setattr(HbarScalar, "__mul__", counting("mul", HbarScalar.__mul__))
    monkeypatch.setattr(HbarScalar, "__neg__", counting("neg", HbarScalar.__neg__))
    monkeypatch.setattr(terms, "_scaled_product", counting("scaled", terms._scaled_product))

    def count(run):
        made.update(dict.fromkeys(made, 0))
        run()
        return made["mul"], made["neg"], made["scaled"]

    x = WeylPolynomial([(WeylMonomial(0, 1), HBAR), (WeylMonomial(0, 2), INV_I_HBAR)])
    y = WeylPolynomial([(WeylMonomial(k, 0), SHARED) for k in range(5)])
    assert (len(x), len(y)) == (2, 5)
    assert count(lambda: bilinear(x, y, _add_exponents)) == (2, 0, 0)
    assert count(lambda: bilinear_sum(WeylPolynomial, [(x, y, _add_exponents, -1)])) == (0, 0, 2)
    # Each run's slots hold one scalar object, which symmetrize groups by.
    negative = bilinear_sum(WeylPolynomial, [(x, y, _add_exponents, -1)])
    assert negative == -bilinear(x, y, _add_exponents)
    for m in (1, 2):
        assert len({id(c) for w, c in negative.items() if w.m == m}) == 1
    # q^2 p and q^4 p^2 commute: 2 * 2 == 1 * 4.
    a = WeylPolynomial([(WeylMonomial(2, 1), SHARED)])
    b = WeylPolynomial([(WeylMonomial(4, 2), HBAR)])
    assert _monomial_bracket(WeylMonomial(2, 1), WeylMonomial(4, 2))[1] == 0
    assert count(lambda: bilinear(a, b, _monomial_bracket)) == (0, 0, 0)


@given(classical, classical)
def test_classical_operations_match_the_public_route(x, y):
    check_linear(x, y)
    assert_matches(
        x * y,
        ClassicalPolynomial(
            ((a[0] + b[0], a[1] + b[1]), ca * cb) for a, ca, b, cb in pairs_of(x, y)
        ),
    )
    assert_matches(
        x.derivative(Q), ClassicalPolynomial(((n - 1, m), c * n) for (n, m), c in x.items() if n)
    )
    assert_matches(
        x.derivative(P), ClassicalPolynomial(((n, m - 1), c * m) for (n, m), c in x.items() if m)
    )


@given(functions, functions)
def test_test_function_maps_match_the_public_route(f, g):
    check_linear(f, g)
    times_x = linear_map(f, lambda d: [(d + 1, 1)])
    assert_matches(times_x, Degrees((d + 1, c) for d, c in f.items()))
    derivative = linear_map(f, lambda d: [(d - 1, d)] if d else ())
    assert_matches(derivative, Degrees((d - 1, c * d) for d, c in f.items() if d))


# Multiples of the identity with several grades, as the evaluator meets them.
free_scalars = values(FreePolynomial, st.just(Word()))
weyl_scalars = values(WeylPolynomial, st.just(WeylMonomial(0, 0)))


@given(free_scalars, weyl_scalars, free, weyl)
def test_evaluator_scaling_matches_the_public_route(s, t, x, y):
    for scalar in (s, t):
        for target in (x, y):
            assert_matches(
                _times(scalar, target),
                type(target)((k, c * f) for k, c in target.items() for _, f in scalar.items()),
            )
    # A free scalar beside a Weyl value in a sum becomes a Weyl scalar first.
    converted = WeylPolynomial((WeylMonomial(0, 0), c) for _, c in s.items())
    (first, kept), (kept_first, last) = _one_basis(s, y), _one_basis(y, s)
    assert kept is y and kept_first is y
    assert_matches(first, converted)
    assert_matches(last, converted)


# -- public checks -----------------------------------------------------------


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: WeylMonomial(-1, 0), ValueError),
        (lambda: WeylMonomial(0, 0, Letter.RHO), ValueError),
        (lambda: WeylMonomial(1.0, 0), TypeError),
        (lambda: Word((0,)), TypeError),
        (lambda: WeylPolynomial([((1, 1), ONE)]), TypeError),
        (lambda: FreePolynomial([(Word(), 1)]), TypeError),
        (lambda: ClassicalPolynomial([((1, -1), ONE)]), TypeError),
        (lambda: ClassicalPolynomial([(Word.of(Q, P), ONE)]), TypeError),
        (lambda: ClassicalPolynomial.from_monomial(1, 0).scale(HBAR), ValueError),
        (lambda: FreePolynomial.one().scale(0.5), TypeError),
        (lambda: Degrees([(-1, ONE)]), TypeError),
    ],
    ids=[
        "negative-exponent",
        "bare-state-deriv",
        "float-exponent",
        "int-letter",
        "tuple-weyl-key",
        "int-coefficient",
        "negative-classical-degree",
        "word-classical-key",
        "graded-classical-scale",
        "float-scale",
        "negative-test-degree",
    ],
)
def test_public_constructors_keep_their_checks(build, error):
    with pytest.raises(error):
        build()


@pytest.mark.parametrize(
    "build, error, message",
    [
        (
            lambda: FreePolynomial([(WeylMonomial(0, 0), ONE)]),
            TypeError,
            "FreePolynomial keys must be Word values",
        ),
        (
            lambda: WeylPolynomial([((1, 1), ONE)]),
            TypeError,
            "WeylPolynomial keys must be WeylMonomial values",
        ),
        (
            lambda: weyl_derivative(WeylPolynomial.one(), Letter.RHO),
            ValueError,
            "partial derivatives are taken with respect to Q or P",
        ),
        (
            lambda: ClassicalPolynomial.one().derivative(DQ),
            ValueError,
            "partial derivatives are taken with respect to Q or P",
        ),
    ],
    ids=["weyl-key-in-free", "tuple-key-in-weyl", "weyl-derivative-wrt", "classical-derivative-wrt"],
)
def test_shared_checks_keep_their_messages(build, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        build()


def test_one_of_each_basis_is_its_unit_key_weighted_by_one():
    olds = [
        FreePolynomial.from_word(Word()),
        WeylPolynomial.from_monomial(WeylMonomial(0, 0)),
        ClassicalPolynomial.from_monomial(0, 0),
    ]
    for old in olds:
        one = type(old).one()
        assert type(one) is type(old) and list(one._terms.items()) == list(old._terms.items())


# -- keys ----------------------------------------------------------------------


KEYS = [Word.of(Q), Word(), WeylMonomial(1, 1), WeylMonomial(0, 2, DP)]


@pytest.mark.parametrize("key", KEYS, ids=repr)
def test_keys_refuse_every_assignment(key):
    field = "letters" if isinstance(key, Word) else "n"
    for assign in (
        lambda: setattr(key, "extra", 1),
        lambda: setattr(key, field, ()),
        lambda: delattr(key, field),
    ):
        with pytest.raises(AttributeError):
            assign()
    # A frozen dataclass error is an AttributeError too.
    assert issubclass(FrozenInstanceError, AttributeError)


def test_keys_compare_by_type_and_value():
    assert WeylMonomial(1, 1) != (1, 1, None)
    assert Word.of(Q, P) != (Q, P)
    assert Word.of(Q, P) == Word((Q, P)) and hash(Word.of(Q, P)) == hash(Word((Q, P)))
    assert WeylMonomial(2, 1, DQ) == WeylMonomial(2, 1, DQ)
    assert hash(WeylMonomial(2, 1, DQ)) == hash(WeylMonomial(2, 1, DQ))
    assert WeylMonomial(2, 1) != WeylMonomial(2, 1, DQ)


def test_key_text_is_unchanged():
    assert repr(Word.of(Q, P)) == "Word(letters=(<Letter.Q: 0>, <Letter.P: 1>))"
    assert str(Word.of(Q, P)) == "q p"
    assert repr(WeylMonomial(1, 2, DQ)) == "WeylMonomial(n=1, m=2, deriv=<Letter.DRHO_Q: 3>)"
    assert str(WeylMonomial(1, 2, DQ)) == "q o p^2 o drho_q"


@pytest.mark.parametrize("key", KEYS, ids=repr)
def test_keys_copy_and_pickle(key):
    assert copy.copy(key) == key
    assert copy.deepcopy(key) == key
    assert pickle.loads(pickle.dumps(key)) == key


@pytest.mark.parametrize("key", KEYS, ids=repr)
def test_keys_round_trip_on_every_pickle_protocol(key):
    pickled = [pickle.loads(pickle.dumps(key, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in pickled + [copy.copy(key), copy.deepcopy(key)]:
        assert type(twin) is type(key) and twin == key and hash(twin) == hash(key)
        assert repr(twin) == repr(key)


@pytest.mark.parametrize("cls", [Word, WeylMonomial])
def test_key_hash_and_equality_are_tuples_own(cls):
    for name in ("__hash__", "__eq__", "__ne__"):
        assert getattr(cls, name) is getattr(tuple, name)


@pytest.mark.parametrize("letters", [(), (Q,), (P, Q, DP)])
def test_trusted_word_is_the_public_word(letters):
    trusted, public = _word(letters), Word(letters)
    assert type(trusted) is Word and trusted == public and hash(trusted) == hash(public)


@pytest.mark.parametrize("n, m, deriv", [(0, 0, None), (2, 1, DQ), (0, 3, DP)])
def test_trusted_monomial_is_the_public_monomial(n, m, deriv):
    trusted, public = _monomial(n, m, deriv), WeylMonomial(n, m, deriv)
    assert type(trusted) is WeylMonomial and trusted == public and hash(trusted) == hash(public)


def test_keys_of_the_two_types_never_meet():
    assert Word(()) != WeylMonomial(0, 0)
    assert WeylMonomial(0, 0) != Word(())
    assert len({Word(()), WeylMonomial(0, 0), (), (0, 0, None)}) == 4
    assert Q in Word.of(Q) and P not in Word.of(Q)


# -- records -------------------------------------------------------------------


def test_records_are_built_by_position_or_name():
    from opalg.brackets import EqualityReport
    from opalg.suites import CheckResult, Failure, SuiteReport

    report = EqualityReport(Word.of(Q), 2, difference=FreePolynomial())
    assert report == EqualityReport(lhs=Word.of(Q), rhs=2, difference=FreePolynomial())
    assert report != EqualityReport(Word.of(Q), 3, FreePolynomial())
    assert repr(report) == f"EqualityReport(lhs={Word.of(Q)!r}, rhs=2, difference=FreePolynomial(0))"
    assert report.equal and report.rhs == 2
    plain = EqualityReport("q", "p", 0)
    assert pickle.loads(pickle.dumps(plain)) == plain
    for build in (
        lambda: EqualityReport(1, 2),
        lambda: EqualityReport(1, 2, 3, 4),
        lambda: EqualityReport(1, 2, diff=3),
        lambda: EqualityReport(1, 2, 3, lhs=1),
    ):
        with pytest.raises(TypeError, match="^EqualityReport takes the fields lhs, rhs, difference$"):
            build()
    for assign in (lambda: setattr(report, "lhs", 0), lambda: setattr(report, "extra", 0)):
        with pytest.raises(AttributeError):
            assign()
    failure = Failure("q", FreePolynomial.one())
    suite = SuiteReport("eq6", (CheckResult("ordering", 1, (failure,)),))
    assert suite == SuiteReport(suite="eq6", checks=(CheckResult("ordering", 1, (failure,)),))
    assert not suite.passed and suite.checks[0].failures == (failure,)


# -- copy and pickle of values -----------------------------------------------------


def polynomials_of(value) -> list:
    if isinstance(value, GradedTerms):
        return [value]
    return [value.lhs, value.rhs, value.difference]


def test_values_copy_and_pickle_and_stay_immutable():
    from opalg.brackets import EqualityReport, check_von_neumann_equivalence
    from opalg.parser import evaluate, parse

    free = evaluate(parse("q p + 2 p"))
    weyl = evaluate(parse("S(q^2 p) + hbar (q o drho_p)"))
    classical = ClassicalPolynomial([((2, 1), HbarScalar.of(1, -1)), ((0, 3), ONE)])
    degrees = Degrees([(2, HbarScalar.of(0, 1)), (0, HBAR)])
    report = check_von_neumann_equivalence(evaluate(parse("S(q^2 p + 3 p)")))
    for value in (free, weyl, classical, degrees, report, EqualityReport(free, weyl, free)):
        protocols = range(pickle.HIGHEST_PROTOCOL + 1)
        twins = [pickle.loads(pickle.dumps(value, protocol)) for protocol in protocols]
        for twin in twins + [copy.copy(value), copy.deepcopy(value)]:
            assert type(twin) is type(value) and twin == value
            for part, original in zip(polynomials_of(twin), polynomials_of(value)):
                assert list(part.items()) == list(original.items())
                for change in (lambda: setattr(part, "_terms", {}), lambda: delattr(part, "_terms")):
                    with pytest.raises(AttributeError, match="is immutable"):
                        change()
    assert report.equal and pickle.loads(pickle.dumps(report)).equal
