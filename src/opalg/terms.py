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

The public constructor validates every pair.  Operations whose result keys
derive from valid keys (exponent sums, concatenations, deletions) sum their
terms straight into a slot map and wrap it with the private, unchecked
:meth:`GradedTerms._of`: :func:`bilinear` for products and brackets,
:func:`linear_map` for derivatives, :func:`sum_into` for sums.  A
checker's reference route may share a loop with its fast path, never a hook.

Count, then scale: where many terms share one coefficient object, as the
words of an expansion do, an operation pays one scalar operation per
coefficient rather than per term.  :func:`bilinear` reuses ``cx * cy`` along
a run of one ``cy``; the symmetrizer and the state-derivative substitution
count integer multiplicities per coefficient and scale once per surviving
slot, as :func:`~opalg.core.normal_order` does.  The commutator takes both
operands' normal forms as those integer count maps and pairs them: one
``cf * cg`` per pair of source coefficients, int products per pair of slots.
A value may also name what it is made of: a free value that
:func:`~opalg.weyl.expand_polynomial` made records its arrangement sets, so
its normal form is read off per set rather than per word.  Such a value
holds only that record until something reads its slot map, which is then
listed from the record once and set through ``_set_terms``; normal forms
and commutators never read it.
"""

from __future__ import annotations

from fractions import Fraction
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator

from .scalars import ZERO, HbarScalar, RationalLike, _scaled_product

TermPairs = Iterable[tuple[Any, HbarScalar]]
Slots = dict[tuple[Any, int], HbarScalar]


def sum_into(acc: Slots, terms: Iterable[tuple[tuple[Any, int], HbarScalar]]) -> Slots:
    """Add nonzero ``(slot, scalar)`` terms into ``acc`` in order, in place,
    deleting every slot whose sum cancels to zero."""
    for slot, scalar in terms:
        current = acc.get(slot)
        if current is None:
            acc[slot] = scalar
        else:
            total = current + scalar
            if total:
                acc[slot] = total
            else:
                del acc[slot]
    return acc


def read_only(self: object, name: str, *value: object) -> None:
    """``__setattr__`` and ``__delattr__`` of immutable classes."""
    raise AttributeError(f"{type(self).__name__} is immutable")


class TaggedTuple(tuple):
    """A value stored as the tuple of its fields followed by a class tag.

    The tag keeps values of different classes unequal to each other and to
    plain tuples, while hashing and ``==`` stay tuple's and run in C.  A
    subclass names its fields in ``_fields`` and gets one read-only property
    per field.  It is built from its fields by position or by name, as a
    record is; a key class that checks its fields builds the stored tuple
    in its own ``__new__``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __new__(cls, *values, **named):
        fields = cls._fields
        if named:
            values += tuple(named.pop(name) for name in fields[len(values) :] if name in named)
        if named or len(values) != len(fields):
            raise TypeError(f"{cls.__name__} takes the fields {', '.join(fields)}")
        return tuple.__new__(cls, (*values, cls))

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        for index, name in enumerate(cls._fields):
            setattr(cls, name, property(itemgetter(index)))

    def __reduce__(self):
        return type(self), self[:-1]

    def __repr__(self) -> str:
        # Index the fields: a subclass may iterate as something else.
        fields = ", ".join(f"{name}={self[i]!r}" for i, name in enumerate(self._fields))
        return f"{type(self).__name__}({fields})"


class GradedTerms:
    """Base class: an immutable, normalized sum of weighted keys."""

    __slots__ = ("_terms",)

    def __init__(self, pairs: TermPairs = ()):
        _set_terms(self, sum_into({}, self._checked_slots(pairs)))

    @classmethod
    def _of(cls, terms: Slots):
        """Trusted constructor over a normalized slot map (valid keys, nonzero
        scalars, each slot's grade its scalar's), which it does not copy."""
        value = object.__new__(cls)
        _set_terms(value, terms)
        return value

    __setattr__ = __delattr__ = read_only

    def __reduce__(self):
        # Copy and pickle through ``_of``: the default restore sets the slot.
        return self._of, (self._terms,)

    # Subclasses override to restrict admissible (key, scalar) pairs.
    @classmethod
    def _validate_pair(cls, key: Any, scalar: HbarScalar) -> None:
        pass

    @classmethod
    def _checked_slots(cls, pairs: TermPairs):
        for key, scalar in pairs:
            if not isinstance(scalar, HbarScalar):
                raise TypeError("coefficients must be HbarScalar values")
            cls._validate_pair(key, scalar)
            if scalar:
                yield (key, scalar.hbar_power), scalar

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
        return self._of(sum_into(dict(self._terms), other._terms.items()))

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        negated = ((slot, -c) for slot, c in other._terms.items())
        return self._of(sum_into(dict(self._terms), negated))

    def __neg__(self):
        return self._of({slot: -c for slot, c in self._terms.items()})

    def scale(self, factor: HbarScalar | RationalLike):
        """Every coefficient times ``factor``, every grade shifted by its
        grade; keys stay valid, and a nonzero product of nonzero scalars
        is nonzero, so the slots need no check."""
        if isinstance(factor, (int, Fraction)):
            factor = HbarScalar.real(factor)
        elif not isinstance(factor, HbarScalar):
            raise TypeError("a scale factor is an int, Fraction or HbarScalar")
        if not factor:
            return self._of({})
        shift = factor.hbar_power
        return self._of({(key, g + shift): c * factor for (key, g), c in self._terms.items()})

    def __rmul__(self, other):
        return self.scale(other)

    def __repr__(self) -> str:
        if self.is_zero:
            return f"{type(self).__name__}(0)"
        parts = " + ".join(f"{c}*{key}" for key, c in self.items())
        return f"{type(self).__name__}({parts})"


_set_terms = GradedTerms._terms.__set__  # type: ignore[attr-defined]


def bilinear(x: GradedTerms, y: GradedTerms, product: Callable[[Any, Any], tuple[Any, int]]):
    """The bilinear extension of ``product``, which maps a key pair to the
    result key and an integer factor (zero drops the pair).  Term pairs are
    summed in the order ``x``'s terms then ``y``'s; the result has ``x``'s type."""
    return x._of(sum_into({}, _pair_terms(x._terms.items(), y._terms.items(), product)))


def _pair_terms(x_terms, y_terms, product):
    """Each pair's ``cx * cy`` is reused while ``cy`` is the same object as
    the previous ``y`` term's, as along the words of one expansion."""
    for (kx, gx), cx in x_terms:
        last = None
        for (ky, gy), cy in y_terms:
            key, factor = product(kx, ky)
            if factor == 1:
                if cy is not last:
                    last, cxy = cy, cx * cy
                yield (key, gx + gy), cxy
            elif factor:
                yield (key, gx + gy), _scaled_product(cx, cy, factor)


def linear_map(x: GradedTerms, image: Callable[[Any], Iterable[tuple[Any, int]]]):
    """The linear extension of ``image``, which maps a key to ``(key, factor)``
    terms with nonzero integer factors; grades are kept."""
    terms = x._terms.items()
    images = (((k, g), c if f == 1 else c * f) for (s, g), c in terms for k, f in image(s))
    return x._of(sum_into({}, images))
