"""The free operator algebra over the canonical pair and its normal form.

Operators are finite sums of words over a five-letter alphabet: the
coordinate and momentum generators ``q`` and ``p``, an opaque state symbol
``rho``, and the two formal state derivatives ``drho_q`` and ``drho_p``.
The only relation is the canonical commutation relation ``q p - p q =
i*hbar``, used as the rewrite rule ``p q -> q p - i*hbar`` on adjacent
letter pairs.  The state letters satisfy no relations and act as inert
barriers for the rewriter.

The rewrite system terminates (each step removes an adjacent ``p``-before-
``q`` inversion or shortens the word) and is confluent, so every element
has a unique normal form with no ``p`` immediately followed by ``q``;
structural equality of normal forms decides algebraic equality.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

from .errors import UnsupportedFragmentError
from .scalars import HbarScalar, I_HBAR, ONE
from .terms import GradedTerms


class Letter(enum.IntEnum):
    """Generator symbols, in canonical sort order."""

    Q = 0
    P = 1
    RHO = 2
    DRHO_Q = 3
    DRHO_P = 4

    @property
    def symbol(self) -> str:
        return _SYMBOLS[self]


_SYMBOLS = {
    Letter.Q: "q",
    Letter.P: "p",
    Letter.RHO: "rho",
    Letter.DRHO_Q: "drho_q",
    Letter.DRHO_P: "drho_p",
}

LETTER_BY_SYMBOL = {symbol: letter for letter, symbol in _SYMBOLS.items()}

STATE_LETTERS = frozenset({Letter.RHO, Letter.DRHO_Q, Letter.DRHO_P})
DERIVATIVE_LETTERS = frozenset({Letter.DRHO_Q, Letter.DRHO_P})


@dataclass(frozen=True, slots=True)
class Word:
    """An ordered finite product of letters; the empty word is the identity."""

    letters: tuple[Letter, ...] = ()

    def __post_init__(self) -> None:
        if not all(isinstance(letter, Letter) for letter in self.letters):
            raise TypeError("a Word holds Letter values only")

    @classmethod
    def of(cls, *letters: Letter) -> Word:
        return cls(tuple(letters))

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __add__(self, other: Word) -> Word:
        if not isinstance(other, Word):
            return NotImplemented
        return Word(self.letters + other.letters)

    def count(self, letter: Letter) -> int:
        return self.letters.count(letter)

    def counts(self) -> tuple[int, int, int, int, int]:
        """Occurrences of (q, p, rho, drho_q, drho_p); additive under concatenation."""
        totals = [0, 0, 0, 0, 0]
        for letter in self.letters:
            totals[letter] += 1
        return tuple(totals)  # type: ignore[return-value]

    @property
    def sort_key(self) -> tuple[int, tuple[Letter, ...]]:
        return (len(self.letters), self.letters)

    @property
    def is_normal(self) -> bool:
        return _first_inversion(self.letters) is None

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        return " ".join(letter.symbol for letter in self.letters)


IDENTITY_WORD = Word()


def _first_inversion(letters: tuple[Letter, ...]) -> int | None:
    for i in range(len(letters) - 1):
        if letters[i] is Letter.P and letters[i + 1] is Letter.Q:
            return i
    return None


class FreePolynomial(GradedTerms):
    """A finite sum of words with exact graded coefficients."""

    __slots__ = ()

    @classmethod
    def _key_sort(cls, key: Word):
        return key.sort_key

    @classmethod
    def _validate_pair(cls, key: Word, scalar: HbarScalar) -> None:
        if not isinstance(key, Word):
            raise TypeError("FreePolynomial keys must be Word values")

    @classmethod
    def zero(cls) -> FreePolynomial:
        return cls()

    @classmethod
    def one(cls) -> FreePolynomial:
        return cls.from_word(IDENTITY_WORD)

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

    def __rmul__(self, other):
        return self.scale(other)

    @property
    def max_word_length(self) -> int:
        return max((len(word) for word, _ in self.items()), default=0)


def multiply(a: FreePolynomial, b: FreePolynomial) -> FreePolynomial:
    """Ordinary (successive-application) product: bilinear word concatenation."""
    return FreePolynomial(
        (wa + wb, ca * cb) for wa, ca in a.items() for wb, cb in b.items()
    )


@lru_cache(maxsize=None)
def _word_normal_form(word: Word) -> FreePolynomial:
    i = _first_inversion(word.letters)
    if i is None:
        return FreePolynomial.from_word(word)
    swapped = Word(word.letters[:i] + (Letter.Q, Letter.P) + word.letters[i + 2 :])
    dropped = Word(word.letters[:i] + word.letters[i + 2 :])
    return _word_normal_form(swapped) - _word_normal_form(dropped).scale(I_HBAR)


def normal_order(x: FreePolynomial) -> FreePolynomial:
    """Rewrite to the unique normal form: no ``p`` immediately followed by ``q``.

    Applies ``p q -> q p - i*hbar`` at the leftmost adjacent pair until none
    remains.  Confluence makes the strategy irrelevant; word-level results
    are memoized.  State letters are untouched and block adjacency.
    """
    return FreePolynomial(
        (word, c * coeff)
        for source, coeff in x.items()
        for word, c in _word_normal_form(source).items()
    )


def partial_derivative(x: FreePolynomial, wrt: Letter) -> FreePolynomial:
    """Positional Leibniz derivative with respect to ``q`` or ``p``.

    Each word maps to the sum, over occurrences of the target letter, of the
    word with that occurrence deleted.  All other letters, including the
    state letters, are constants.
    """
    if wrt not in (Letter.Q, Letter.P):
        raise ValueError("partial derivatives are taken with respect to Q or P")
    pairs = []
    for word, coeff in x.items():
        for i, letter in enumerate(word.letters):
            if letter is wrt:
                pairs.append((Word(word.letters[:i] + word.letters[i + 1 :]), coeff))
    return FreePolynomial(pairs)


def adjoint(x: FreePolynomial) -> FreePolynomial:
    """Hermitian adjoint on the pure q/p fragment.

    Reverses every word and conjugates every coefficient (q, p and hbar are
    self-adjoint).  Words containing the state symbol or its derivatives are
    outside the supported fragment.
    """
    pairs = []
    for word, coeff in x.items():
        if any(letter in STATE_LETTERS for letter in word.letters):
            raise UnsupportedFragmentError(
                f"adjoint is defined on q/p words only, got '{word}'"
            )
        pairs.append((Word(tuple(reversed(word.letters))), coeff.conjugate()))
    return FreePolynomial(pairs)
