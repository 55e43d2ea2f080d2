"""Shared representation for exact linear combinations with graded coefficients.

Every algebraic value in this package (free polynomials, Weyl polynomials,
classical polynomials, oracle test functions) is a finite sum of hashable
basis keys weighted by :class:`~opalg.scalars.HbarScalar`.  Coefficients of
different hbar grade never merge, so terms are stored in one flat map from
``(key, grade)`` to a homogeneous scalar.  Construction normalizes eagerly:
terms in the same slot merge and zero coefficients are pruned, so equal
values have equal maps and structural equality coincides with algebraic
equality.  Terms are kept in insertion order, which is deterministic for
deterministic input; the canonical display order is the printer's.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from typing import Any, Iterable, Iterator

from .scalars import ZERO, HbarScalar, RationalLike

TermPairs = Iterable[tuple[Any, HbarScalar]]


class GradedTerms:
    """Base class: an immutable, normalized sum of weighted keys."""

    __slots__ = ("_terms",)

    def __init__(self, pairs: TermPairs = ()):
        object.__setattr__(self, "_terms", self._collect(pairs))

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    # Subclasses override to restrict admissible (key, scalar) pairs.
    @classmethod
    def _validate_pair(cls, key: Any, scalar: HbarScalar) -> None:
        pass

    @classmethod
    def _collect(cls, pairs: TermPairs) -> dict[tuple[Any, int], HbarScalar]:
        acc: dict[tuple[Any, int], HbarScalar] = {}
        for key, scalar in pairs:
            if not isinstance(scalar, HbarScalar):
                raise TypeError("coefficients must be HbarScalar values")
            cls._validate_pair(key, scalar)
            if scalar.is_zero:
                continue
            slot = (key, scalar.hbar_power)
            current = acc.get(slot)
            total = scalar if current is None else current + scalar
            if total.is_zero:
                del acc[slot]
            else:
                acc[slot] = total
        return acc

    # -- inspection ------------------------------------------------------

    def items(self) -> Iterator[tuple[Any, HbarScalar]]:
        """``(key, scalar)`` terms in insertion order, which is deterministic
        for deterministic input.  The display order is the printer's."""
        for (key, _), scalar in self._terms.items():
            yield key, scalar

    def coefficient(self, key: Any, hbar_power: int = 0) -> HbarScalar:
        return self._terms.get((key, hbar_power), ZERO)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._terms == other._terms

    __hash__ = None  # type: ignore[assignment]

    # -- linear structure ------------------------------------------------

    @classmethod
    def zero(cls):
        return cls()

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return type(self)(chain(self.items(), other.items()))

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return type(self)((key, -c) for key, c in self.items())

    def scale(self, factor: HbarScalar | RationalLike):
        if isinstance(factor, (int, Fraction)):
            factor = HbarScalar.real(factor)
        return type(self)((key, c * factor) for key, c in self.items())

    def __rmul__(self, other):
        return self.scale(other)

    def __repr__(self) -> str:
        if self.is_zero:
            return f"{type(self).__name__}(0)"
        parts = " + ".join(f"{c}*{key}" for key, c in self.items())
        return f"{type(self).__name__}({parts})"
