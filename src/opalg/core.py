"""The free operator algebra over the canonical pair and its normal form.

Operators are finite sums of words over a five-letter alphabet: the
coordinate and momentum generators ``q`` and ``p``, an opaque state symbol
``rho``, and the two formal state derivatives ``drho_q`` and ``drho_p``.
The only relation is the canonical commutation relation ``q p - p q =
i*hbar``.  The state letters satisfy no relations and separate the word
into independent ``q``/``p`` segments.

Every element has a unique normal form with no ``p`` immediately followed
by ``q``: each segment becomes a sum of ``q^a p^b``.  Structural equality
of normal forms decides algebraic equality.  How :func:`normal_order`
reaches it without rewriting, and McCoy's closed form for the image of the
Weyl symmetrizer, are derived in the README ("Why normal ordering needs no
rewriting").  The walk of one word (:func:`_word_normal_form`) is memoized:
a process walks each distinct short word once, in a memo bounded by entries
and by word length.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from functools import lru_cache
from math import comb
from typing import Iterable

from .errors import UnsupportedFragmentError
from .scalars import HbarScalar, ONE, _leads_negative, times_minus_i_hbar_power
from .terms import GradedTerms, TaggedTuple, _set_terms, bilinear, linear_map, sum_into


class Letter(enum.IntEnum):
    """Generator symbols, in canonical sort order."""

    Q = 0
    P = 1
    RHO = 2
    DRHO_Q = 3
    DRHO_P = 4

    @property
    def symbol(self) -> str:
        """The letter as written in expressions: its name in lower case."""
        return self.name.lower()


LETTER_BY_SYMBOL = {letter.symbol: letter for letter in Letter}

STATE_LETTERS = frozenset({Letter.RHO, Letter.DRHO_Q, Letter.DRHO_P})
DERIVATIVE_LETTERS = frozenset({Letter.DRHO_Q, Letter.DRHO_P})


class Word(TaggedTuple):
    """An ordered finite product of letters; the empty word is the identity.

    Stored as the tuple ``(letters, Word)``: the class tag keeps a word
    unequal to any plain tuple and to a :class:`~opalg.weyl.WeylMonomial`,
    while hashing and ``==`` stay tuple's.  Read it through ``letters``; only
    the package's hot key hooks read ``word[0]``: the key hook of
    :func:`multiply` and :func:`~opalg.weyl._monomial_of_word`."""

    __slots__ = ()
    _fields = ("letters",)

    def __new__(cls, letters: tuple[Letter, ...] = ()) -> Word:
        if not all(isinstance(letter, Letter) for letter in letters):
            raise TypeError("a Word holds Letter values only")
        return tuple.__new__(cls, (letters, Word))

    @classmethod
    def of(cls, *letters: Letter) -> Word:
        return cls(tuple(letters))

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __contains__(self, letter: object) -> bool:
        return letter in self.letters

    def __add__(self, other: Word) -> Word:
        if not isinstance(other, Word):
            return NotImplemented
        return _word(self.letters + other.letters)

    def count(self, letter: Letter) -> int:
        return self.letters.count(letter)

    @property
    def sort_key(self) -> tuple[int, tuple[Letter, ...]]:
        return (len(self.letters), self.letters)

    @property
    def is_normal(self) -> bool:
        pairs = zip(self.letters, self.letters[1:])
        return not any(a is Letter.P and b is Letter.Q for a, b in pairs)

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        return " ".join(letter.symbol for letter in self.letters)


def _word(letters: tuple[Letter, ...]) -> Word:
    """Trusted key constructor for letters taken from valid words."""
    return tuple.__new__(Word, (letters, Word))


IDENTITY_WORD = Word()
_Q, _P = (Letter.Q,), (Letter.P,)  # one-letter tuples, to append to letters


class FreePolynomial(GradedTerms):
    """A finite sum of words with exact graded coefficients.

    The slot ``_sets`` is unset unless :func:`~opalg.weyl.expand_polynomial`
    made the value from pure Weyl terms.  It then holds one ``(n, m, c)``
    per term, in source order: the value is the sum of ``c`` times all
    arrangements of ``q^n p^m``.  Every other constructor (``_of``,
    arithmetic, ``scale``, copy, pickle) makes a value without it, and
    values are immutable, so the record cannot go stale.

    Such a value holds only its record at first: its slot map ``_terms``
    is listed from the record (:func:`~opalg.weyl._listed`) the first time
    anything reads it, and kept.  :func:`_normal_counts` reads the record
    of a value that holds nothing else, so the words of an expansion that
    normal forms and ``comm`` take are never listed; once listed, its words
    are counted like any other value's."""

    __slots__ = ("_sets",)
    _key_type, _unit = Word, IDENTITY_WORD

    def __getattr__(self, name: str):
        # Reached only when a slot is unset, so a listed value never calls
        # it.  Defining it still costs every FreePolynomial attribute read:
        # CPython 3.11 does not specialize attribute reads on a class that
        # has it, so a set slot reads through the generic lookup.
        if name != "_terms":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        from .weyl import _listed

        terms = _listed(self._sets)
        _set_terms(self, terms)
        return terms

    @classmethod
    def from_word(cls, word: Word, coeff: HbarScalar = ONE) -> FreePolynomial:
        return cls([(word, coeff)])

    @classmethod
    def from_letters(cls, *letters: Letter) -> FreePolynomial:
        return cls.from_word(Word.of(*letters))

    def __mul__(self, other):
        if isinstance(other, FreePolynomial):
            return multiply(self, other)
        return self.scale(other)

    @property
    def max_word_length(self) -> int:
        return max((len(word) for word, _ in self._terms), default=0)


_get_terms = GradedTerms._terms.__get__  # type: ignore[attr-defined]
_set_sets = FreePolynomial._sets.__set__  # type: ignore[attr-defined]


def multiply(a: FreePolynomial, b: FreePolynomial) -> FreePolynomial:
    """Ordinary (successive-application) product: bilinear word concatenation."""
    # ``w[0]`` is ``w.letters``, read from the layout: a hot path
    return bilinear(a, b, lambda wa, wb: (_word(wa[0] + wb[0]), 1))


def normal_order(x: FreePolynomial) -> FreePolynomial:
    """The unique normal form: no ``p`` immediately followed by ``q``;
    :func:`_from_counts` of :func:`_normal_counts`."""
    return _from_counts(_normal_counts(x))


def _normal_counts(x: FreePolynomial) -> dict[HbarScalar, dict]:
    """The per-coefficient count maps of ``x``'s normal form, before
    :func:`_from_counts` folds and scales them.

    A whole set of the ``C(n+m, m)`` arrangements of ``q^n p^m`` under one
    coefficient and grade, as :func:`~opalg.weyl.expand` produces it, takes
    McCoy's closed form (:func:`_arrangement_counts`).  A value that
    :func:`~opalg.weyl.expand_polynomial` made from pure Weyl terms is such
    sets and nothing else, and names them in its record ``_sets``; while it
    holds only that record, none of its words is read.  Any other value's
    sets, a listed expansion's too, are found by one pass that counts each
    word's letters (:func:`_split_arrangement_sets`).
    Every other word, in source order, is multiplied run by run onto a
    normal partial product that starts as the empty product: a map
    ``(head, b, k) -> n`` of integer counts standing for ``n (-i*hbar)^k
    head p^b``.  A run of ``r`` p's takes ``b`` to ``b + r``; every run of
    ``r`` q's, a single q or one after ``p^0`` too, meets ``p^b`` in one
    junction step (:func:`_junction`); a run of one state letter moves
    ``p^b`` into the head.  No state passes from one word to the next, so
    a word's slots are a function of its letters alone
    (:func:`_word_normal_form`), memoized for a word of at most
    ``_MEMO_LETTERS`` letters and walked afresh for a longer one.  Counts
    are summed per source coefficient; a slot's head never ends in ``p``.
    The README's "Why normal ordering needs no rewriting" derives each step.
    """
    # The slot map is read through its getter, which raises rather than
    # reaching ``__getattr__``, so a listed value raises nothing.
    try:
        terms = _get_terms(x)
    except AttributeError:  # the value holds only its record
        return _arrangement_counts(x._sets)
    sets, rest = _split_arrangement_sets(terms)
    counts_by_coeff = _arrangement_counts(sets)
    for (source, _), coeff in rest:
        letters = source.letters
        walk = _word_normal_form if len(letters) <= _MEMO_LETTERS else _word_normal_form.__wrapped__
        counts = counts_by_coeff.setdefault(coeff, {})
        for slot, n in walk(letters):
            counts[slot] = counts.get(slot, 0) + n
    return counts_by_coeff


# The walk memo keeps words of at most _MEMO_LETTERS letters.  Such a word's
# normal form has at most 18 slots, as p q p q rho p q p q rho p q has (3 * 3
# * 2), each head at most 12 letters: about 4 KB with its key, so the 2,048
# entries hold at most about 8.5 MB.  A longer word is walked at each call.
_MEMO_LETTERS = 12


@lru_cache(maxsize=2048)
def _word_normal_form(letters: tuple[Letter, ...]) -> tuple[tuple[tuple, int], ...]:
    """The count slots ``((head, b, k), n)`` of one word's normal form, as
    :func:`_normal_counts` walks it; memoized for words of at most
    ``_MEMO_LETTERS`` letters."""
    Q, P = Letter.Q, Letter.P
    partial = {((), 0, 0): 1}
    run, r = None, 0
    for letter in letters + (None,):  # None ends the last run
        if letter is run:
            r += 1
            continue
        if r:
            if run is P:
                step = {}
                for (head, b, k), n in partial.items():
                    step[head, b + r, k] = n
            elif run is Q:
                step = defaultdict(int)
                for (head, b, k), n in partial.items():
                    for t, m in enumerate(_junction(b, r, n)):
                        step[head + _Q * (r - t), b - t, k + t] += m
            else:
                step, tail = {}, (run,) * r
                for (head, b, k), n in partial.items():
                    step[head + _P * b + tail, 0, k] = n
            partial = step
        run, r = letter, 1
    return tuple(partial.items())


def _junction(b: int, c: int, n: int) -> list[int]:
    """``n`` times the normal form of ``p^b q^c`` (McCoy), ``sum_t n t! C(b,t)
    C(c,t) (-i*hbar)^t q^(c-t) p^(b-t)``, as its counts ``n t! C(b,t) C(c,t)``
    in order of ``t``; a caller takes ``t`` from ``enumerate``."""
    counts = [n]
    for t in range(min(b, c)):
        n = n * (b - t) * (c - t) // (t + 1)  # exact at every step
        counts.append(n)
    return counts


def _split_arrangement_sets(terms: dict) -> tuple[list, Iterable]:
    """The whole arrangement sets among the slots ``terms``, as ``(n, m, c)``
    triples in first-seen order, and every other term in source order.

    A whole set is all ``C(n+m, m)`` arrangements of ``n`` q's and ``m``
    p's (``n, m >= 1``) at one grade under one coefficient ``c``; the words
    of one grade are distinct, so a group of pure words of that size is
    whole.  Each word's letters are counted once.  Every listed value is
    split here, including an expansion of
    :func:`~opalg.weyl.expand_polynomial` whose words were already read.
    """
    if len(terms) < 2:
        return [], terms.items()
    Q, P = Letter.Q, Letter.P
    keys = []
    groups: dict[tuple[int, int, int], list[HbarScalar]] = {}
    for (word, grade), coeff in terms.items():
        letters = word.letters
        n, m = letters.count(Q), letters.count(P)
        key = (n, m, grade) if n + m == len(letters) else None  # None: a state letter
        keys.append(key)
        groups.setdefault(key, []).append(coeff)
    sets, whole = [], set()
    for key, coeffs in groups.items():
        if key and 1 < len(coeffs) == comb(key[0] + key[1], key[0]) == coeffs.count(coeffs[0]):
            sets.append((key[0], key[1], coeffs[0]))
            whole.add(key)
    if not whole:
        return sets, terms.items()
    return sets, [term for term, key in zip(terms.items(), keys) if key not in whole]


def _arrangement_counts(sets: Iterable[tuple[int, int, HbarScalar]]) -> dict[HbarScalar, dict]:
    """Per-coefficient count maps of the normal forms of ``sum c A(n, m)``
    over ``(n, m, c)``, where ``A(n, m)`` is the sum of all ``C(n+m, m)``
    arrangements of ``n`` q's and ``m`` p's, without listing them.

    McCoy (*PNAS* 18 (1932) 674): ``A(n, m)`` counts ``C(n+m, m) C(n,k)
    C(m,k) k! / 2^k`` at ``(q^(n-k), m-k, k)``.  That is the junction count
    of :func:`_junction` ``(n, m, C(n+m, m))`` at ``t = k`` shifted right by
    ``k``, so one ratio recurrence serves the walk, ``comm`` and McCoy.
    Each count is an integer, being the sum of the integer counts of
    ``A(n, m)``'s words, so the shift is exact."""
    counts_by_coeff: dict[HbarScalar, dict] = {}
    for n, m, coeff in sets:
        counts = counts_by_coeff.setdefault(coeff, {})
        for k, total in enumerate(_junction(n, m, comb(n + m, m))):
            slot = (_Q * (n - k), m - k, k)
            counts[slot] = counts.get(slot, 0) + (total >> k)
    return counts_by_coeff


def _from_counts(counts_by_coeff: dict[HbarScalar, dict]) -> FreePolynomial:
    """The free polynomial of per-coefficient count maps ``(head, b, k) -> n``,
    each count standing for ``n c (-i*hbar)^k head p^b``; a caller that
    counts whole words passes ``(letters, 0, k)``.

    Of ``c`` and ``-c``, the map of the one whose leading part is negative
    is folded into the map of its opposite with negated counts, always in
    that direction, so that their terms cancel as integers; a count that
    cancelled to zero makes no term.  Any other coefficients that share a
    slot add as scalars.  Each nonzero count makes one scalar, ``c n
    (-i*hbar)^k``, reduced once
    (:func:`~opalg.scalars.times_minus_i_hbar_power`).
    """
    if len(counts_by_coeff) > 1:
        for coeff in [c for c in counts_by_coeff if _leads_negative(c)]:
            opposite_counts = counts_by_coeff.get(-coeff)
            if opposite_counts is not None:
                for slot, n in counts_by_coeff.pop(coeff).items():
                    opposite_counts[slot] = opposite_counts.get(slot, 0) - n
    terms = []
    for coeff, counts in counts_by_coeff.items():
        grade = coeff.hbar_power
        for (head, b, k), n in counts.items():
            if not n:
                continue
            scalar = times_minus_i_hbar_power(coeff, n, k) if k or n != 1 else coeff
            terms.append(((_word(head + _P * b), grade + k), scalar))
    return FreePolynomial._of(sum_into({}, terms))


def partial_derivative(x: FreePolynomial, wrt: Letter) -> FreePolynomial:
    """Positional Leibniz derivative with respect to ``q`` or ``p``.

    Each word maps to the sum, over occurrences of the target letter, of the
    word with that occurrence deleted.  All other letters, including the
    state letters, are constants.
    """
    if wrt not in (Letter.Q, Letter.P):
        raise ValueError("partial derivatives are taken with respect to Q or P")

    def deletions(word: Word) -> list[tuple[Word, int]]:
        ls = word.letters
        return [(_word(ls[:i] + ls[i + 1 :]), 1) for i, letter in enumerate(ls) if letter is wrt]

    return linear_map(x, deletions)


def adjoint(x: FreePolynomial) -> FreePolynomial:
    """Hermitian adjoint on the pure q/p fragment.

    Reverses every word and conjugates every coefficient (q, p and hbar are
    self-adjoint).  Words containing the state symbol or its derivatives are
    outside the supported fragment.
    """
    terms = {}
    for (word, grade), coeff in x._terms.items():
        if any(letter in STATE_LETTERS for letter in word.letters):
            raise UnsupportedFragmentError(
                f"adjoint is defined on q/p words only, got '{word}'"
            )
        terms[_word(word.letters[::-1]), grade] = coeff.conjugate()
    return FreePolynomial._of(terms)
