"""The symmetrized (Weyl) basis and the ordering superoperator.

The symmetrizer is the linear map sending any word to the average of all
distinct arrangements of its letters.  Only the letter counts matter, so
its image is spanned by basis monomials indexed by a q-count, a p-count,
and an optional state-derivative letter.  Terms whose coefficient carries a
positive hbar grade are annihilated: hbar only ever enters through the
commutation relation, so annihilating it is exactly what makes the
symmetrizer well defined on rewriting-equivalent inputs.

The symmetric product on the basis adds exponents.  That fast path agrees
with the two-step definition (expand both factors, multiply freely, then
symmetrize); the test suite checks the agreement exhaustively rather than
assuming it.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .combinatorics import multiset_permutations
from .core import (
    DERIVATIVE_LETTERS,
    FreePolynomial,
    Letter,
    _arrangement_counts,
    _from_counts,
    _normal_counts,
    _set_sets,
    _word,
)
from .errors import UnsupportedFragmentError
from .scalars import HbarScalar, ONE, _make
from .terms import GradedTerms, TaggedTuple, _merge, _settle, bilinear, bilinear_sum, linear_map

# Bound once: reading a member off ``Letter`` costs about 0.1 us on a hot path.
_LETTER_Q, _LETTER_P, _LETTER_RHO, _LETTER_DRHO_Q, _LETTER_DRHO_P = Letter


class WeylMonomial(TaggedTuple):
    """The symmetrization of any word with ``n`` q's, ``m`` p's and at most
    one state-derivative letter.

    Stored as the tuple ``(n, m, deriv, WeylMonomial)``: the class tag keeps
    a key unequal to any plain tuple and to a :class:`~opalg.core.Word`,
    while hashing and ``==`` stay tuple's.  Read it through the fields; only
    the package's hot paths, the key hooks :func:`_add_exponents` and
    :func:`~opalg.brackets._monomial_bracket`, :func:`_word_count` and the
    printer's :func:`~opalg.printing._weyl`, unpack the tuple, and
    :func:`weyl_derivative` indexes it as it does a classical key."""

    __slots__ = ()
    _fields = ("n", "m", "deriv")

    def __new__(cls, n: int, m: int, deriv: Letter | None = None) -> WeylMonomial:
        if not (isinstance(n, int) and isinstance(m, int)):
            raise TypeError("exponents must be integers")
        if n < 0 or m < 0:
            raise ValueError("exponents must be non-negative")
        if deriv is not None and deriv not in DERIVATIVE_LETTERS:
            raise ValueError("deriv must be None, DRHO_Q or DRHO_P")
        return tuple.__new__(cls, (int(n), int(m), deriv, WeylMonomial))  # True prints as 1

    @property
    def degree(self) -> int:
        return self.n + self.m

    @property
    def sort_key(self) -> tuple[int, int, int]:
        """``(n, m, deriv)``, no derivative letter as 0: ``Letter`` orders
        ``drho_q`` before ``drho_p``, and both after 0."""
        return (self.n, self.m, self.deriv or 0)

    def __str__(self) -> str:
        parts = []
        if self.n:
            parts.append("q" if self.n == 1 else f"q^{self.n}")
        if self.m:
            parts.append("p" if self.m == 1 else f"p^{self.m}")
        if self.deriv is not None:
            parts.append(self.deriv.symbol)
        return " o ".join(parts) if parts else "1"


def _monomial(n: int, m: int, deriv: Letter | None) -> WeylMonomial:
    """Trusted key constructor for exponents derived from valid monomials."""
    return tuple.__new__(WeylMonomial, (n, m, deriv, WeylMonomial))


class WeylPolynomial(GradedTerms):
    """A finite sum of Weyl basis monomials with exact graded coefficients."""

    __slots__ = ()
    _key_type, _unit = WeylMonomial, WeylMonomial(0, 0)

    @classmethod
    def from_monomial(cls, monomial: WeylMonomial, coeff: HbarScalar = ONE) -> WeylPolynomial:
        return cls([(monomial, coeff)])

    def __mul__(self, other):
        if isinstance(other, WeylPolynomial):
            return weyl_product(self, other)
        return self.scale(other)


def _monomial_of_word(letters: tuple[Letter, ...], n_q: int, n_p: int) -> tuple:
    """The key ``(n, m, deriv)`` of a word with ``n_q`` q's, ``n_p`` p's and
    another letter, which must be its only state-derivative letter."""
    if _LETTER_RHO in letters:
        raise UnsupportedFragmentError(
            "the symmetrizer is not defined on words containing the bare state symbol"
        )
    if n_q + n_p + 1 < len(letters):
        raise UnsupportedFragmentError(
            "the symmetrizer supports at most one state-derivative letter per word"
        )
    return n_q, n_p, _LETTER_DRHO_Q if _LETTER_DRHO_Q in letters else _LETTER_DRHO_P


def symmetrize(x: FreePolynomial) -> WeylPolynomial:
    """Apply the ordering superoperator term by term.

    A term of hbar grade >= 1 maps to zero; a grade-0 term maps to the basis
    monomial of its letter counts, the source ordering being irrelevant.
    Negative grades never reach the symmetrizer in a well-formed pipeline
    (bracket prefactors stay outside it), so they are rejected loudly.

    Count, then scale: each grade-0 word's letter counts make a plain key
    ``(n, m, deriv)``, and a run of words that repeats both the key and the
    coefficient object, as the words of an expansion or of a product of
    expansions do, is counted in an int.  Each run builds its monomial once
    and adds its count times the coefficient into the monomial's slot
    through :func:`~opalg.terms._merge`, and :func:`~opalg.terms._settle`
    makes one scalar per merged slot that survives: a single expansion
    makes one scalar, and none if it has one word.
    """
    acc, merged, key, coeff, run = {}, [], None, None, 0
    for (word, grade), scalar in x._terms.items():
        if grade:
            if grade > 0:
                continue
            raise UnsupportedFragmentError("the symmetrizer is not defined on negative hbar grades")
        letters = word[0]  # ``word.letters``, read from the layout: a hot path
        n_q, n_p = letters.count(_LETTER_Q), letters.count(_LETTER_P)
        nm = (n_q, n_p, None) if n_q + n_p == len(letters) else _monomial_of_word(letters, n_q, n_p)
        if scalar is coeff and nm == key:
            run += 1
            continue
        if run:
            _add_run(acc, merged, key, coeff, run)
        key, coeff, run = nm, scalar, 1
    if run:
        _add_run(acc, merged, key, coeff, run)
    return WeylPolynomial._of(_settle(acc, merged) if merged else acc)


def _add_run(acc: dict, merged: list, key: tuple, coeff: HbarScalar, run: int) -> None:
    """Add ``run`` times ``coeff`` into the slot of ``key``'s monomial in
    ``acc``: a new slot stores ``coeff`` itself for the run's first word,
    and the rest of the run merges in integers (:func:`~opalg.terms._merge`)."""
    slot = (_monomial(*key), 0)
    current = acc.get(slot)
    if current is None:
        acc[slot] = current = coeff
        run -= 1
    if run:
        _merge(acc, merged, slot, current, coeff._re * run, coeff._im * run, coeff._den)


def _expansion(w: WeylMonomial) -> FreePolynomial:
    letters: list[Letter] = [Letter.Q] * w.n + [Letter.P] * w.m
    if w.deriv is not None:
        letters.append(w.deriv)
    coeff = _weight(w)
    return FreePolynomial._of(
        {(_word(arrangement), 0): coeff for arrangement in multiset_permutations(letters)}
    )


# The memo keeps expansions of at most _MEMO_WORDS words, so it holds at most
# 256 * 280 = 71,680 words.  280 is the largest key of the acceptance tests'
# degree 8: degree 7 and a derivative letter, C(7, 3) * 8 words.  In traced
# runs of seeds 1-3, verify_all's 72 keys hold at most 60 words and
# eval_stream's 15-16 at most 6, so nothing is evicted; ordering_large makes
# no key, as it only normal-orders and commutes expansions, which read their
# record.  A larger expansion is built at each call.
_MEMO_WORDS = 280
_expansion_memo = lru_cache(maxsize=256)(_expansion)


def expand(w: WeylMonomial) -> FreePolynomial:
    """The symmetric average as an explicit free polynomial.

    All distinct arrangements of ``n`` q's, ``m`` p's and the optional
    derivative letter, in lexicographic order, each weighted by
    ``n! * m! / (n + m + e)!`` where ``e`` counts the derivative letter.
    ``expand.cache_info()`` reports the memo of the small expansions.
    """
    return (_expansion_memo if _word_count(w) <= _MEMO_WORDS else _expansion)(w)


expand.cache_info = _expansion_memo.cache_info


def _word_count(w: WeylMonomial) -> int:
    """The number of words of ``expand(w)``, ``(n + m + e)! / (n! m!)``."""
    n, m, deriv, _ = w  # read the layout
    return comb(n + m, m) * (1 if deriv is None else n + m + 1)


def _weight(w: WeylMonomial, c: HbarScalar = ONE) -> HbarScalar:
    """``c`` times the coefficient of each word of ``expand(w)``,
    ``n! m! / (n + m + e)!``, made in ints: no ``Fraction``."""
    return _make(c._re, c._im, c._den * _word_count(w), c._power)


def expand_polynomial(x: WeylPolynomial) -> FreePolynomial:
    """Linear extension of :func:`expand` to whole Weyl polynomials.

    All arrangements of a monomial share one coefficient, so each Weyl term
    makes one scalar.  Nothing merges: two distinct monomials of one grade
    differ in their letter counts, so their expansions share no word.

    When no term has a derivative letter, the result holds only the record
    of the arrangement sets it stands for, one ``(n, m, c)`` per term in
    source order, ``c`` the per-word scalar.  Its words are listed
    (:func:`_listed`) the first time anything reads them;
    :func:`~opalg.core.normal_order` and ``comm`` of a value not yet listed
    read the record instead, and never list them.  A value with a
    derivative letter is listed here and has no record.
    """
    terms = [(monomial, _weight(monomial, coeff)) for (monomial, _), coeff in x._terms.items()]
    if any(monomial.deriv is not None for monomial, _ in terms):
        return FreePolynomial._of(_word_slots(terms))
    value = object.__new__(FreePolynomial)
    _set_sets(value, tuple((monomial.n, monomial.m, c) for monomial, c in terms))
    return value


def _listed(sets) -> dict:
    """The slot map of a value that :func:`expand_polynomial` recorded as
    ``(n, m, c)`` triples."""
    return _word_slots((_monomial(n, m, None), c) for n, m, c in sets)


def _word_slots(terms) -> dict:
    """The slots of ``c`` times every word of ``expand(w)``, over ``(w, c)``
    in order, words in lexicographic order, each at ``c``'s grade.  Grade 0
    keeps the memo's slots ``(word, 0)`` as they are, through
    ``dict.fromkeys``, which writes them about twice as fast as the
    generator that moves the words of a higher grade."""
    slots: dict = {}
    for monomial, scalar in terms:
        words = expand(monomial)._terms  # slots (word, 0)
        grade = scalar.hbar_power
        if grade:
            slots.update(((word, grade), scalar) for word, _ in words)
        else:
            slots.update(dict.fromkeys(words, scalar))
    return slots


def weyl_product(x: WeylPolynomial, y: WeylPolynomial) -> WeylPolynomial:
    """The symmetric product: bilinear, with exponents adding per term pair.

    At most one factor of each term pair may carry a state-derivative
    letter; two derivative letters would leave the supported fragment.
    """
    return bilinear(x, y, _add_exponents)


def _add_exponents(a: WeylMonomial, b: WeylMonomial) -> tuple[WeylMonomial, int]:
    (a_n, a_m, a_deriv, _), (b_n, b_m, b_deriv, _) = a, b  # read the layout: a hot path
    if a_deriv is not None and b_deriv is not None:
        raise UnsupportedFragmentError(
            "cannot multiply two terms that both carry a state-derivative letter"
        )
    return _monomial(a_n + b_n, a_m + b_m, a_deriv if a_deriv is not None else b_deriv), 1


def _product_difference(
    a: WeylPolynomial, b: WeylPolynomial, c: WeylPolynomial, d: WeylPolynomial
) -> WeylPolynomial:
    """``a o b - c o d``, summed in one slot map (:func:`~opalg.terms.bilinear_sum`)."""
    return bilinear_sum(WeylPolynomial, ((a, b, _add_exponents, 1), (c, d, _add_exponents, -1)))


def weyl_derivative(x: WeylPolynomial, wrt: Letter) -> WeylPolynomial:
    """Partial derivative in the Weyl basis: the symmetrization is preserved,
    so ``q**n o p**m`` maps to ``n * q**(n-1) o p**m`` and symmetrically.

    It reads the key layout: a key holds q's exponent at index ``Letter.Q``
    and p's at ``Letter.P``, a :class:`WeylMonomial` and a classical
    ``(n, m)`` key alike, so the classical mirror's derivative is this one
    (:meth:`~opalg.brackets.ClassicalPolynomial.derivative`)."""
    if wrt not in (Letter.Q, Letter.P):
        raise ValueError("partial derivatives are taken with respect to Q or P")

    def lowered(key):
        e = key[wrt]
        return [(tuple.__new__(type(key), key[:wrt] + (e - 1,) + key[wrt + 1 :]), e)] if e else ()

    return linear_map(x, lowered)


def normal_form(x: FreePolynomial | WeylPolynomial) -> FreePolynomial:
    """The normal form of ``x``, or of its expansion if ``x`` is a Weyl value,
    for ``normal``: :func:`~opalg.core._from_counts` of
    :func:`_normal_form_counts`, which for a free value is
    :func:`~opalg.core.normal_order`.  A Weyl value's words are never listed
    unless they hold a derivative letter."""
    return _from_counts(_normal_form_counts(x))


def _normal_form_counts(x: FreePolynomial | WeylPolynomial) -> dict[HbarScalar, dict]:
    """The per-coefficient count maps ``(head, b, k) -> n`` of ``x``'s normal
    form, as :func:`~opalg.core._normal_counts` makes them; a slot's head
    never ends in ``p``.  ``comm`` starts here, and so does ``normal_form``
    of a Weyl value.

    A Weyl value's terms without a derivative letter take McCoy's closed
    form straight from the exponents
    (:func:`~opalg.core._arrangement_counts`): the expansion of
    ``c S(q^n p^m)`` is ``c / C(n+m, m)`` times the sum of all
    arrangements, so no word is listed.  Only the terms with a derivative
    letter are expanded and walked; their words hold that letter, so the
    two maps of one coefficient share no slot and merge by ``update``.
    """
    if isinstance(x, FreePolynomial):
        return _normal_counts(x)
    pure, derived = [], {}
    for (w, grade), c in x._terms.items():
        if w.deriv is None:
            pure.append((w.n, w.m, _weight(w, c)))
        else:
            derived[w, grade] = c
    counts_by_coeff = _arrangement_counts(pure)
    if derived:
        for coeff, counts in _normal_counts(expand_polynomial(WeylPolynomial._of(derived))).items():
            counts_by_coeff.setdefault(coeff, {}).update(counts)
    return counts_by_coeff


def normal_form_of_weyl(w: WeylMonomial) -> FreePolynomial:
    """The normal form of one basis monomial's expansion; see :func:`normal_form`."""
    return normal_form(WeylPolynomial.from_monomial(w))
