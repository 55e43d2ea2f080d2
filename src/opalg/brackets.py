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

from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .core import FreePolynomial, Letter, Word, _P, _Q, _from_counts, _junction, normal_order
from .errors import UnsupportedFragmentError
from .scalars import HbarScalar, INV_I_HBAR, ONE, RationalLike
from .terms import GradedTerms, TaggedTuple, bilinear, bilinear_sum
from .weyl import (
    WeylMonomial,
    _add_exponents,
    _monomial,
    WeylPolynomial,
    _normal_form_counts,
    _product_difference,
    expand_polynomial,
    normal_form,
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
    _unit = (0, 0)

    @classmethod
    def _validate_pair(cls, key: tuple[int, int], scalar: HbarScalar) -> None:
        if (
            type(key) is not tuple  # a Word is a tuple subclass of any length
            or len(key) != 2
            or not all(isinstance(d, int) and d >= 0 for d in key)
        ):
            raise TypeError("ClassicalPolynomial keys are (q_degree, p_degree) pairs")
        if scalar.hbar_power != 0:
            raise ValueError("classical coefficients cannot carry an hbar grade")

    @classmethod
    def from_monomial(
        cls, n: int, m: int, coeff: HbarScalar | RationalLike = ONE
    ) -> ClassicalPolynomial:
        if isinstance(coeff, (int, Fraction)):
            coeff = HbarScalar.real(coeff)
        return cls([((n, m), coeff)])

    def __mul__(self, other):
        if isinstance(other, ClassicalPolynomial):
            return bilinear(self, other, lambda a, b: ((a[0] + b[0], a[1] + b[1]), 1))
        return self.scale(other)

    def scale(self, factor: HbarScalar | RationalLike) -> ClassicalPolynomial:
        if isinstance(factor, HbarScalar) and factor.hbar_power:
            raise ValueError("classical coefficients cannot carry an hbar grade")
        return super().scale(factor)

    def derivative(self, wrt: Letter) -> ClassicalPolynomial:
        """:func:`~opalg.weyl.weyl_derivative`'s exponent rule: a classical
        key holds its exponents where a Weyl key does."""
        return weyl_derivative(self, wrt)


def poisson_bracket_classical(
    f: ClassicalPolynomial, g: ClassicalPolynomial
) -> ClassicalPolynomial:
    """df/dq * dg/dp - dg/dq * df/dp with exact arithmetic."""
    return f.derivative(Letter.Q) * g.derivative(Letter.P) - g.derivative(
        Letter.Q
    ) * f.derivative(Letter.P)


def commutator_bracket(
    f: FreePolynomial | WeylPolynomial, g: FreePolynomial | WeylPolynomial
) -> FreePolynomial:
    """The normal form of ``(f*g - g*f) / (i*hbar)``, a Weyl operand standing
    for its expansion.

    Each operand's normal form is taken once, as the integer count maps
    ``(head, b, k) -> n`` per source coefficient that
    :func:`~opalg.weyl._normal_form_counts` gives (McCoy's closed form for
    a Weyl operand, without listing its words).  The product of two normal
    words ``H p^b`` and ``q^c T`` is out of order only at the junction
    ``p^b q^c``, whose normal form :func:`~opalg.core._junction` gives, the
    same kernel that :func:`~opalg.core.normal_order` steps a q-run with:
    it is ``sum_t t! C(b,t) C(c,t) (-i*hbar)^t H q^(c-t) p^(b-t) T``, every
    word of which is normal.  So no product is formed and nothing is
    normal-ordered.  Count, then scale: each pair of source coefficients
    ``cf``, ``cg`` makes one scalar ``cf * cg``, and under it both orders of
    each slot pair add ``+-n_f n_g`` times their junction counts to one int
    count map.

    The route is chosen once per call, from one scan of both count maps.
    When every head is all q's, every word is ``q^a p^b`` with ``a`` its
    head's length, and of two such words ``u = q^a p^b`` and ``v = q^c
    p^d`` term ``t`` of ``u v`` and of ``v u`` land on the same word
    ``q^(a+c-t) p^(b+d-t)``: one loop over ``t >= 1``
    (:func:`_add_pure_pair`) adds ``n_f n_g t! (C(b,t) C(c,t) - C(d,t)
    C(a,t))``, and the ``t = 0`` terms, equal and opposite, are never built.
    Otherwise every slot pair, a pure one too, takes the junction product
    :func:`_add_product` once per order.  That product never continues
    :func:`~opalg.core.normal_order`'s walk, so eq20 and eq21 of ``verify``,
    whose other side walks its state words, see a wrong state step of the
    walk.  The README's "Why normal ordering needs no rewriting" derives the
    junction formula.
    """
    sides = _normal_form_counts(f), _normal_form_counts(g)
    pure = all(h == _Q * len(h) for side in sides for slots in side.values() for h, _, _ in slots)
    counts_by_coeff: dict[HbarScalar, dict] = {}
    for cf, slots_f in sides[0].items():
        for cg, slots_g in sides[1].items():
            counts = counts_by_coeff.setdefault(cf * cg, {})
            for (head_f, b_f, k_f), n_f in slots_f.items():
                for (head_g, b_g, k_g), n_g in slots_g.items():
                    n, k = n_f * n_g, k_f + k_g
                    if pure:
                        _add_pure_pair(counts, len(head_f), b_f, len(head_g), b_g, n, k)
                    else:
                        _add_product(counts, head_f, b_f, head_g + _P * b_g, n, k)
                        _add_product(counts, head_g, b_g, head_f + _P * b_f, -n, k)
    return _from_counts({c * INV_I_HBAR: counts for c, counts in counts_by_coeff.items()})


def _add_product(counts: dict, head: tuple, b: int, word: tuple, n: int, k: int) -> None:
    """Add ``n (-i*hbar)^k`` times the normal form of ``head p^b word`` to the
    count map ``counts`` of full-word slots ``(letters, 0, k + t)``, for a
    normal ``word`` ``q^c T`` with ``c`` maximal: only ``p^b q^c`` is out of
    order.  This junction product is the commutator's own; the walk of
    :func:`~opalg.core.normal_order` never reaches it."""
    c = 0
    while c < len(word) and word[c] is Letter.Q:
        c += 1
    for t, m in enumerate(_junction(b, c, n)):
        slot = (head + _Q * (c - t) + _P * (b - t) + word[c:], 0, k + t)
        counts[slot] = counts.get(slot, 0) + m


def _add_pure_pair(counts: dict, a: int, b: int, c: int, d: int, n: int, k: int) -> None:
    """Add ``n (-i*hbar)^k`` times the normal form of ``u v - v u``, for
    ``u = q^a p^b`` and ``v = q^c p^d``, to ``counts`` at the slots
    ``(q^(a+c-t), b+d-t, k+t)`` of ``t >= 1`` whose two counts differ."""
    x = y = n
    for t in range(1, max(min(b, c), min(a, d)) + 1):
        x = x * (b - t + 1) * (c - t + 1) // t  # exact at every step
        y = y * (d - t + 1) * (a - t + 1) // t
        if x != y:
            slot = (_Q * (a + c - t), b + d - t, k + t)
            counts[slot] = counts.get(slot, 0) + x - y


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
    return bilinear(f, g, _monomial_bracket)


def _monomial_bracket(a: WeylMonomial, b: WeylMonomial) -> tuple[WeylMonomial | None, int]:
    (a_n, a_m, a_deriv, _), (b_n, b_m, b_deriv, _) = a, b  # read the layout: a hot path
    ad, bc = a_n * b_m, a_m * b_n
    if a_deriv is not None and b_deriv is not None and (ad or bc):
        raise UnsupportedFragmentError(
            "cannot multiply two terms that both carry a state-derivative letter"
        )
    if ad == bc:
        return None, 0
    deriv = a_deriv if a_deriv is not None else b_deriv
    return _monomial(a_n + b_n - 1, a_m + b_m - 1, deriv), ad - bc


def _bracket_sum(*pairs: tuple[WeylPolynomial, WeylPolynomial]) -> WeylPolynomial:
    """``{x, y}`` summed over the ``pairs`` ``(x, y)`` in one slot map
    (:func:`~opalg.terms.bilinear_sum`): the Jacobiator
    ``{f,{g,h}} + {g,{h,f}} + {h,{f,g}}`` of inner brackets in hand, or the
    antisymmetry residual ``{f,g} + {g,f}``."""
    return bilinear_sum(WeylPolynomial, [(x, y, _monomial_bracket, 1) for x, y in pairs])


def quantize(f: ClassicalPolynomial) -> WeylPolynomial:
    """The exponent-preserving map from classical monomials to the Weyl basis."""
    return WeylPolynomial((WeylMonomial(n, m), c) for (n, m), c in f.items())


def substitute_drho(x: FreePolynomial) -> FreePolynomial:
    """Replace state-derivative letters by their commutator expressions.

    ``drho_p`` becomes ``(q rho - rho q) / (i*hbar)`` and ``drho_q`` becomes
    ``-(p rho - rho p) / (i*hbar)``, distributed in place inside each word.
    Words without derivative letters pass through unchanged.

    A word's ``d`` derivative letters give all ``2**d`` replacement words
    at once (the word itself when ``d = 0``), from one scan of its letters
    (:func:`_replacements`), memoized per word: a process scans each
    distinct word once, unless its replacements are too large to keep.
    Each one's coefficient is ``c / (i*hbar)**d`` or its negative, negated
    once per ``rho q`` from a ``drho_p`` and once per ``p rho`` from a
    ``drho_q``.  Count, then scale: each replacement word adds ``+1`` or
    ``-1`` to its count under ``c / (i*hbar)**d``, made once per run of
    words that share ``c``'s object and ``d``, as an expansion's words do.
    So the telescoping cancellation between words happens in ints, and
    :func:`~opalg.core._from_counts` makes one scalar per surviving count.
    """
    counts_by_coeff: dict[HbarScalar, dict] = {}
    last = last_d = None
    for (word, _), coeff in x._terms.items():
        letters = word.letters
        d = letters.count(Letter.DRHO_Q) + letters.count(Letter.DRHO_P)
        if coeff is not last or d != last_d:
            last, last_d, c = coeff, d, coeff
            for _ in range(d):
                c = c * INV_I_HBAR
            counts = counts_by_coeff.setdefault(c, {})
        small = (len(letters) + d) << d <= _MEMO_REPLACED_LETTERS
        for slot, sign in (_replacements if small else _replacements.__wrapped__)(letters):
            counts[slot] = counts.get(slot, 0) + sign
    return _from_counts(counts_by_coeff)


# The substitution memo keeps a word whose replacement words hold at most
# _MEMO_REPLACED_LETTERS letters in all: 2**d words of its length plus d.  A
# bound on the word's length alone would not do, as d derivative letters
# make 2**d words.  Such an entry takes at most about 1 KB with its key, so
# the 2,048 entries hold at most about 2.5 MB.  A larger word is substituted
# at each call.
_MEMO_REPLACED_LETTERS = 64


@lru_cache(maxsize=2048)
def _replacements(letters: tuple[Letter, ...]) -> tuple[tuple[tuple, int], ...]:
    """The ``2**d`` signed replacement slots ``((letters, 0, 0), sign)`` of
    one word with ``d`` derivative letters, as :func:`substitute_drho` makes
    them; memoized for a word whose replacements hold at most
    ``_MEMO_REPLACED_LETTERS`` letters."""
    Q, P, RHO, DRHO_Q, DRHO_P = Letter
    heads, start = [((), 1)], 0  # (letters before start, sign)
    for i, letter in enumerate(letters):
        if letter is DRHO_P or letter is DRHO_Q:
            other, sign = (P, -1) if letter is DRHO_Q else (Q, 1)
            choices = (((other, RHO), sign), ((RHO, other), -sign))
            part, start = letters[start:i], i + 1
            heads = [(h + part + pair, s * flip) for h, s in heads for pair, flip in choices]
    tail = letters[start:]
    return tuple(((head + tail, 0, 0), sign) for head, sign in heads)


# -- checkers ------------------------------------------------------------


class EqualityReport(TaggedTuple):
    """Outcome of an identity check: both sides and their difference."""

    __slots__ = ()
    _fields = ("lhs", "rhs", "difference")

    @property
    def equal(self) -> bool:
        return self.difference.is_zero  # type: ignore[attr-defined]


class ObstructionReport(TaggedTuple):
    """Outcome of the obstruction comparison for two classical pairs.

    ``scale`` is the rational factor that makes the second classical bracket
    match the first.  The symmetric brackets of the quantized pairs must
    agree exactly; the commutator brackets are allowed to differ, and the
    difference (with its minimal hbar grade) is what exhibits the
    obstruction.
    """

    __slots__ = ()
    _fields = (
        "classical_bracket",  # ClassicalPolynomial
        "scale",  # HbarScalar
        "symmetrized_bracket",  # WeylPolynomial
        "symmetrized_difference",  # WeylPolynomial
        "commutator_difference",  # FreePolynomial
    )

    @property
    def commutator_min_hbar_power(self) -> int | None:
        powers = [c.hbar_power for _, c in self.commutator_difference.items()]
        return min(powers) if powers else None


def check_leibniz(
    f: WeylPolynomial, g: WeylPolynomial, h: WeylPolynomial
) -> EqualityReport:
    """Leibniz rule for the symmetric bracket over the symmetric product, with
    both sides built as values: the reference for :func:`_leibniz`."""
    lhs = symmetrized_poisson_bracket(f, weyl_product(g, h))
    fg, fh = symmetrized_poisson_bracket(f, g), symmetrized_poisson_bracket(f, h)
    rhs = weyl_product(fg, h) + weyl_product(g, fh)
    return EqualityReport(lhs, rhs, lhs - rhs)


def _leibniz(
    f: WeylPolynomial,
    g: WeylPolynomial,
    h: WeylPolynomial,
    gh: WeylPolynomial,
    fg: WeylPolynomial,
    fh: WeylPolynomial,
) -> WeylPolynomial:
    """The Leibniz residual ``{f, g o h} - {f,g} o h - g o {f,h}``, given the
    pair values ``gh = g o h``, ``fg = {f,g}`` and ``fh = {f,h}``, which a
    caller that meets the same pairs again can compute once.  Its three
    terms are summed in one slot map (:func:`~opalg.terms.bilinear_sum`)."""
    parts = (f, gh, _monomial_bracket, 1), (fg, h, _add_exponents, -1), (g, fh, _add_exponents, -1)
    return bilinear_sum(WeylPolynomial, parts)


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
    the symmetric product ``sum c_n q**n o p``, compared in normal form.

    ``V p`` and ``p V`` are normal-ordered apart and then added, so that the
    left side walks its words: normal-ordered as one value, ``(q p + p q)/2``
    is a whole arrangement set and would take McCoy's closed form, the route
    of the right side."""
    scalars = [c if isinstance(c, HbarScalar) else HbarScalar.real(c) for c in coeffs]
    v = FreePolynomial((Word.of(*([Letter.Q] * n)), c) for n, c in enumerate(scalars))
    p = FreePolynomial.from_letters(Letter.P)
    lhs = (normal_order(v * p) + normal_order(p * v)).scale(Fraction(1, 2))
    weyl = WeylPolynomial((WeylMonomial(n, 1), c) for n, c in enumerate(scalars))
    rhs = normal_form(weyl)
    return EqualityReport(lhs, rhs, lhs - rhs)


def check_von_neumann_equivalence(F: WeylPolynomial) -> EqualityReport:
    """Equivalence of the symmetric bracket with the scaled commutator on the
    state symbol.

    The left side pairs the Weyl-basis derivatives of ``F`` with the state
    derivative letters through the symmetric product, expands, substitutes
    the derivative letters by their commutator expressions, and normal
    orders; most cross terms cancel in the free normal form.  The right side
    is :func:`commutator_bracket` of ``F`` and ``rho``, the normal form of
    ``(F rho - rho F) / (i*hbar)``, which takes ``F``'s normal form from
    McCoy's closed form without expanding it.  So the two sides share no
    route: only the left side expands.  Both are compared exactly in the
    free algebra over q, p, rho.

    ``rho`` holds a state letter, so the commutator chooses its junction
    product for every slot pair, and it reaches the walk of
    :func:`~opalg.core.normal_order` only through ``normal(rho)``, whose
    state step moves ``p^0``.  The walk's state step with ``b > 0`` runs on
    the left side only, so this check sees a wrong one; a commutator that
    continued the walk for state words would run it on both sides.
    """
    for monomial, _ in F.items():
        if monomial.deriv is not None:
            raise UnsupportedFragmentError(
                "the equivalence check takes a pure observable (no derivative letters)"
            )
    dq, dp = weyl_derivative(F, Letter.Q), weyl_derivative(F, Letter.P)
    lhs_weyl = _product_difference(dq, _DRHO_P_MONO, _DRHO_Q_MONO, dp)
    lhs = normal_order(substitute_drho(expand_polynomial(lhs_weyl)))
    rhs = commutator_bracket(F, _RHO)
    return EqualityReport(lhs, rhs, lhs - rhs)


def check_obstruction(
    pair_a: tuple[ClassicalPolynomial, ClassicalPolynomial],
    pair_b: tuple[ClassicalPolynomial, ClassicalPolynomial],
) -> ObstructionReport:
    """Compare the two quantum brackets on two classically equivalent pairs.

    The second pair is normalized by the scale that makes the classical
    brackets match exactly: 1 when the second bracket is zero, otherwise
    the ratio of the two brackets' coefficients at the second bracket's
    first key.  A zero scale, or one under which the brackets still differ,
    is an error, so exactly one zero bracket is refused.
    The symmetric brackets of the quantized pairs must then agree exactly,
    while the commutator brackets of the quantizations may differ;
    the difference is reported in normal form.
    """
    f1, f2 = pair_a
    f3, f4 = pair_b
    bracket_a = poisson_bracket_classical(f1, f2)
    bracket_b = poisson_bracket_classical(f3, f4)
    scale = ONE
    if bracket_b:
        key, coeff_b = next(iter(bracket_b.items()))
        scale = bracket_a.coefficient(key) / coeff_b
    if not scale or bracket_a != bracket_b.scale(scale):
        raise ValueError("classical brackets are not related by a scale")

    q1, q2, q3, q4 = (quantize(f) for f in (f1, f2, f3, f4))
    sym_a = symmetrized_poisson_bracket(q1, q2)
    sym_b = symmetrized_poisson_bracket(q3, q4).scale(scale)
    comm_a = commutator_bracket(q1, q2)
    comm_b = commutator_bracket(q3, q4).scale(scale)
    return ObstructionReport(
        classical_bracket=bracket_a,
        scale=scale,
        symmetrized_bracket=sym_a,
        symmetrized_difference=sym_a - sym_b,
        commutator_difference=comm_a - comm_b,
    )
