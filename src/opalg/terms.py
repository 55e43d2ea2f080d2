"""Shared representation for exact linear combinations with graded coefficients.

Every algebraic value in this package (free, Weyl and classical
polynomials) is a finite sum of hashable basis keys weighted by
:class:`~opalg.scalars.HbarScalar`.  Coefficients of different hbar grade
never merge, so terms are stored in one flat map from ``(key, grade)`` to
a homogeneous scalar.  Construction normalizes eagerly:
terms in the same slot merge and zero coefficients are pruned, so equal
values have equal maps and structural equality coincides with algebraic
equality.  Terms are kept in insertion order, which is deterministic for
deterministic input; the canonical display order is the printer's.

Terms merge in integers.  A slot's first term is stored as the scalar it
is.  The first later term turns the slot's value, in place, into an
accumulator ``[re, im, den]`` (:func:`_merge`), and every later term adds
into it over the lcm of the two denominators, so no scalar is made per
term.  Before the map is wrapped or returned, one settle step
(:func:`_settle`) runs over the merged slots only: it makes one reduced
scalar of the slot's grade for each slot that survives and deletes each
slot that summed to zero.  No accumulator leaves the call, and a slot whose
sum cancels on the way and is added to again keeps its first place.  A
difference merges its right operand's terms with sign -1 through
:func:`sum_into`; unary negation and the evaluator's ``-`` link still
negate each term.

The public constructor validates every pair.  Operations whose result keys
derive from valid keys (exponent sums, concatenations, deletions) sum their
terms straight into a slot map and wrap it with the private, unchecked
:meth:`GradedTerms._of`: :func:`bilinear` for products and brackets,
:func:`linear_map` for derivatives, :func:`sum_into` for sums.  A
checker's reference route may share a loop with its fast path, never a hook.
A product or bracket is the one-part case of :func:`bilinear_sum`, the one
pair loop, which merges each pair into the slot map itself, with the merge
and settle steps of :func:`sum_into`.  A residual that is a signed sum of
products and brackets of values already in hand, such as the Jacobiator or
the Leibniz residual, runs all its parts through that loop into one slot
map, each part's sign riding in its pairs' factors, so no product is made
as a value, no operand is negated and no map is copied to add it.

Count, then scale: where many terms share one coefficient object, as the
words of an expansion do, an operation pays one scalar operation per
coefficient rather than per term.  The pair loop reuses ``cx * cy``, or
``-(cx * cy)`` in a negative part, along a run of one ``cy``; the
symmetrizer and the state-derivative substitution count integer
multiplicities per coefficient and scale once per surviving slot, as
:func:`~opalg.core.normal_order` does.  The commutator takes both operands'
normal forms as those integer count maps and pairs them: one
``cf * cg`` per pair of source coefficients, int products per pair of slots.
Both orders of two pure slots ``q^a p^b``, ``q^c p^d`` land on the same
words, so one count per ``t >= 1``, ``t! (C(b,t) C(c,t) - C(d,t) C(a,t))``,
stands for both, and the cancelling ``t = 0`` pair is never counted.
A value may also name what it is made of: a free value that
:func:`~opalg.weyl.expand_polynomial` made records its arrangement sets, so
its normal form is read off per set rather than per word.  Such a value
holds only that record until something reads its slot map, which is then
listed from the record once and set through ``_set_terms``; normal forms
and commutators of a value that holds only its record never list it.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator

from .scalars import ONE, ZERO, HbarScalar, RationalLike, _make, _scaled_product

TermPairs = Iterable[tuple[Any, HbarScalar]]
Slots = dict[tuple[Any, int], HbarScalar]


def sum_into(
    acc: Slots, terms: Iterable[tuple[tuple[Any, int], HbarScalar]], sign: int = 1
) -> Slots:
    """Add ``sign`` times each nonzero ``(slot, scalar)`` term into ``acc``
    in order, in place, and delete every slot whose sum cancels to zero.

    A slot's first term is stored as it is, negated once if ``sign`` is -1.
    Later terms add into the slot in integers (:func:`_merge`), and
    :func:`_settle` makes one scalar per merged slot that survives before
    ``acc`` is returned, so a slot keeps the place of its first term even
    if its sum cancels and is added to again."""
    merged: list = []
    for slot, scalar in terms:
        current = acc.get(slot)
        if current is not None:
            _merge(acc, merged, slot, current, scalar._re * sign, scalar._im * sign, scalar._den)
        elif sign > 0:
            acc[slot] = scalar
        else:
            acc[slot] = _make(-scalar._re, -scalar._im, scalar._den, scalar._power)
    return _settle(acc, merged)


def _merge(acc: dict, merged: list, slot: tuple, current, re: int, im: int, den: int) -> None:
    """Add ``(re + im*i)/den`` into ``slot``'s value ``current``.  The first
    merge turns the value, in place, into an integer accumulator ``[re, im,
    den]`` and lists the slot in ``merged``; a merge adds over the lcm of the
    two denominators, so no scalar is made."""
    if current.__class__ is not list:
        current = acc[slot] = [current._re, current._im, current._den]
        merged.append(slot)
    known = current[2]
    if known == den:
        current[0] += re
        current[1] += im
    else:
        common = lcm(known, den)
        up, scale = common // known, common // den
        current[:] = current[0] * up + re * scale, current[1] * up + im * scale, common


def _settle(acc: dict, merged: list) -> dict:
    """Turn each ``merged`` slot's accumulator back into one reduced scalar
    of the slot's grade, or delete the slot if its sum is zero."""
    for slot in merged:
        re, im, den = acc[slot]
        if re or im:
            acc[slot] = _make(re, im, den, slot[1])
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
    """Base class: an immutable, normalized sum of weighted keys.

    A basis names its key class in ``_key_type``, which the public
    constructor checks every key against, and its identity key in
    ``_unit``, which :meth:`one` weights by one."""

    __slots__ = ("_terms",)
    _key_type: type = object

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

    # A subclass overrides this to restrict (key, scalar) pairs further.
    @classmethod
    def _validate_pair(cls, key: Any, scalar: HbarScalar) -> None:
        if not isinstance(key, cls._key_type):
            raise TypeError(f"{cls.__name__} keys must be {cls._key_type.__name__} values")

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

    @classmethod
    def one(cls):
        """The unit key ``_unit`` with coefficient one."""
        return cls([(cls._unit, ONE)])

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._of(sum_into(dict(self._terms), other._terms.items()))

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._of(sum_into(dict(self._terms), other._terms.items(), -1))

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
    return bilinear_sum(type(x), ((x, y, product, 1),))


def bilinear_sum(cls, parts: Iterable[tuple[GradedTerms, GradedTerms, Callable, int]]):
    """``sum sign * bilinear(x, y, product)`` over ``parts`` of
    ``(x, y, product, sign)``, ``sign`` 1 or -1, as a ``cls`` value: every
    part's term pairs are summed, in part order, straight into one slot map,
    and a slot whose sum cancels is deleted, as :func:`sum_into` does.  The
    sign rides in each pair's factor, so ``x`` is never negated.  A slot's
    first pair stores its scalar: ``cx * cy``, or ``-(cx * cy)`` in a
    negative part, which is reused while ``cy`` is the same object as the
    previous ``y`` term's, as along the words of one expansion.  A later
    pair adds its product's integer parts into the slot (:func:`_merge`),
    and :func:`_settle` makes one scalar per merged slot that survives: the
    parts of a residual that land on one slot make the first pair's scalar
    and, only if their sum is not zero, one more."""
    acc: Slots = {}
    merged: list = []
    for x, y, product, sign in parts:
        y_terms = y._terms.items()
        for (kx, gx), cx in x._terms.items():
            last = None
            for (ky, gy), cy in y_terms:
                key, factor = product(kx, ky)
                if not factor:
                    continue
                slot = (key, gx + gy)
                current = acc.get(slot)
                if current is not None:
                    a, b, c, d, n = cx._re, cx._im, cy._re, cy._im, factor * sign
                    re, im = (a * c - b * d) * n, (a * d + b * c) * n
                    _merge(acc, merged, slot, current, re, im, cx._den * cy._den)
                elif factor != 1:
                    acc[slot] = _scaled_product(cx, cy, factor * sign)
                else:
                    if cy is not last:
                        last, cxy = cy, cx * cy if sign > 0 else _scaled_product(cx, cy, -1)
                    acc[slot] = cxy
    return cls._of(_settle(acc, merged))


def linear_map(x: GradedTerms, image: Callable[[Any], Iterable[tuple[Any, int]]]):
    """The linear extension of ``image``, which maps a key to ``(key, factor)``
    terms with nonzero integer factors; grades are kept."""
    terms = x._terms.items()
    images = (((k, g), c if f == 1 else c * f) for (s, g), c in terms for k, f in image(s))
    return x._of(sum_into({}, images))
