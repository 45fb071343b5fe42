"""Signed-index combinatorics.

Basis vectors are labelled by nonzero integers.  A window (n, p) selects the
labels {-n, ..., -1, 1, ..., p}; the linear order on labels is plain integer
order, which lists the negative labels before the positive ones.  Everything
downstream (wedge signs, Pfaffian-style partition sums, coordinate orderings)
reduces to the handful of primitives in this module: sorting with a
permutation sign, shuffle signs of block concatenations, enumeration of
unordered partitions into equal blocks, the goodness predicate on co-finite
index sets, and the Young-diagram indexing of window coordinates.

The package's argument checks live here too, one per kind of argument: the
label rule, exact coefficients, plain-integer and even-width parameters, and
the coordinate-key rule with its table builder.  The key rule is also the one
window rule: every label, label set and key that must fit a window, or have a
given size, is checked by ascending_key, so a misfit reads the same wherever
it is given.  Nothing is coerced: True, 1.0 and "1" are rejected, never read
as 1, are in no window, and a key is never sorted.
"""
from __future__ import annotations

import itertools
from collections import namedtuple
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

IndexSet = tuple[int, ...]
Diagram = tuple[int, ...]


class DimensionMismatch(ValueError):
    """A window, grade, or index-set size does not fit the operation."""


def _as_signed(value) -> int:
    """The one label rule: a plain int, not a bool, not zero; never coerced."""
    if type(value) is not int or not value:
        raise ValueError(f"index labels must be nonzero integers, got {value!r}")
    return value


def exact(value) -> Fraction:
    """The one coefficient rule: an int (not a bool) or a Fraction, as a Fraction.

    Anything else raises TypeError: a float, a Decimal, or a string like "1/2".
    """
    if type(value) is not int and not isinstance(value, Fraction):
        raise TypeError(f"coefficients must be int or Fraction, got {value!r}")
    return Fraction(value)


def plain_int(name: str, value, low: int = 1) -> int:
    """The one integer-argument rule: a plain int, not a bool, at least low (0 or 1)."""
    if type(value) is not int or value < low:
        kind = "positive" if low else "nonnegative"
        raise ValueError(f"{name} must be a {kind} integer, got {value!r}")
    return value


def even_width(name: str, value) -> int:
    """A plain positive even int, as the width of a hyper-Pfaffian locus."""
    if type(value) is not int or value < 2 or value % 2:
        raise ValueError(f"{name} must be a positive even integer, got {value!r}")
    return value


def ascending_key(
    indices: Iterable[int], window: Window | None = None, size: int | None = None
) -> IndexSet:
    """The one coordinate-key and window rule: labels strictly ascending, as a tuple.

    A key is never sorted, so x_(2,1) is refused rather than read as x_(1,2).
    A given window must hold every label and a given size must be the key's
    length; either misfit raises DimensionMismatch.  A single label is
    checked as the one-label key (label,).
    """
    key = tuple(indices)
    prev = None
    for i in key:
        _as_signed(i)
        if prev is not None and prev >= i:
            raise ValueError(f"index set {key} is not strictly ascending")
        prev = i
    if size is not None and len(key) != size:
        raise DimensionMismatch(f"indices {key} have size {len(key)}, expected {size}")
    if window is not None and not window.contains_set(key):
        raise DimensionMismatch(f"indices {key} outside window {window}")
    return key


def key_table(window: Window, size: int, terms) -> dict[IndexSet, Fraction]:
    """A mapping or (key, value) pairs as {key: Fraction}, zeros kept.

    Each key passes ascending_key for the window and size and is given once;
    each value passes exact.
    """
    table = {}
    for raw_key, value in terms.items() if isinstance(terms, Mapping) else terms:
        key = ascending_key(raw_key, window, size)
        if key in table:
            raise ValueError(f"term {key} is given twice")
        table[key] = exact(value)
    return table


def checked_record(name: str, fields: str):
    """A namedtuple base whose _make, and so _replace, builds through __new__.

    A record subclasses it with __slots__ = () and a __new__ that checks its
    fields, so every route to an instance but an explicit tuple.__new__ is
    checked.
    """
    base = namedtuple(name, fields)
    base._make = classmethod(lambda cls, values: cls(*values))
    return base


class Frozen:
    """Base of the immutable __slots__ classes: value equality, pickle and copy.

    A subclass names its fields in __slots__ and ends its checking __init__
    with one self._fill(...); _trusted builds an instance unchecked, from
    values that already hold the class's invariants.  Pickling and copying
    rebuild through _trusted, so they do not re-run the checks.
    """

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def _fill(self, *values):
        """Set the fields in __slots__ order; returns self."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)
        return self

    @classmethod
    def _trusted(cls, *values):
        return object.__new__(cls)._fill(*values)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None

    def __reduce__(self):
        return type(self)._trusted, self._values()


class Window(checked_record("Window", "n p")):
    """Label range {-n, ..., -1, 1, ..., p} for a coefficient space."""

    __slots__ = ()

    def __new__(cls, n: int, p: int):
        plain_int("window side n", n, 0)
        plain_int("window side p", p, 0)
        return tuple.__new__(cls, (n, p))

    @property
    def size(self) -> int:
        return self.n + self.p

    def elements(self) -> IndexSet:
        return tuple(range(-self.n, 0)) + tuple(range(1, self.p + 1))

    def __contains__(self, label) -> bool:
        """True only for a plain nonzero int in range; never coerces, never raises."""
        return type(label) is int and label != 0 and -self.n <= label <= self.p

    def contains_set(self, indices: Iterable[int]) -> bool:
        return all(i in self for i in indices)

    def __str__(self) -> str:
        return f"({self.n},{self.p})"


def index_set(elems: Iterable[int], window: Window | None = None) -> IndexSet:
    """Canonical ascending tuple of distinct nonzero labels, fit to window by ascending_key.

    >>> index_set([3, -1, 1])
    (-1, 1, 3)
    """
    out = tuple(sorted(_as_signed(i) for i in elems))
    for a, b in zip(out, out[1:]):
        if a == b:
            raise ValueError(f"duplicate index {a}")
    return ascending_key(out, window)


def sort_with_sign(seq: Iterable[int]) -> tuple[IndexSet, int]:
    """Sort labels ascending and report the permutation sign.

    The sign is +1 or -1 for an even or odd number of inversions, and 0 when
    the input has a repeated label (so callers can drop annihilated wedge
    terms without a separate check).
    """
    elems = [_as_signed(i) for i in seq]
    inversions = 0
    for a in range(len(elems)):
        x = elems[a]
        for b in range(a + 1, len(elems)):
            if x == elems[b]:
                return tuple(sorted(elems)), 0
            if x > elems[b]:
                inversions += 1
    return tuple(sorted(elems)), (1 if inversions % 2 == 0 else -1)


def shuffle_sign(blocks: Iterable[Iterable[int]]) -> int:
    """Sign of the permutation taking the sorted union to the concatenation.

    Every block must pass ascending_key and the blocks be pairwise disjoint;
    violations raise ValueError.  The empty family has sign +1.
    """
    sign = sort_with_sign(i for block in blocks for i in ascending_key(block))[1]
    if sign == 0:
        raise ValueError("blocks overlap")
    return sign


def enumerate_partitions(
    elems: Iterable[int], m: int
) -> Iterator[tuple[tuple[IndexSet, ...], int]]:
    """Unordered partitions of a label set into blocks of size m.

    Yields (blocks, sign) pairs.  Blocks are listed in the canonical order
    (ascending by smallest member, each block ascending) and the sign is the
    shuffle sign of that ordering.  Each unordered partition appears exactly
    once; the total count is (ml)! / ((m!)^l l!) for l = |set|/m.
    """
    plain_int("block size", m)
    base = index_set(elems)
    if len(base) % m:
        raise ValueError(f"cannot split {len(base)} labels into blocks of {m}")

    def rec(rest: IndexSet) -> Iterator[tuple[IndexSet, ...]]:
        if not rest:
            yield ()
            return
        head, pool = rest[0], rest[1:]
        for combo in itertools.combinations(pool, m - 1):
            block = (head,) + combo
            taken = set(combo)
            remaining = tuple(x for x in pool if x not in taken)
            for tail in rec(remaining):
                yield (block,) + tail

    for blocks in rec(base):
        yield blocks, shuffle_sign(blocks)


class GoodParams(checked_record("GoodParams", "m l r s")):
    """Width/degree parameters (m, l) and their dual pair (r, s), each a plain positive int.

    They fix the two depth thresholds of the goodness predicate: an index is
    deep-negative when it is at most m - 1 - m*l, and a positive gap is deep
    when it is at least r*s - r.
    """

    __slots__ = ()

    def __new__(cls, m: int, l: int, r: int, s: int):
        for name, value in zip(cls._fields, (m, l, r, s)):
            plain_int(name, value)
        return tuple.__new__(cls, (m, l, r, s))

    @property
    def deep_negative(self) -> int:
        return self.m - 1 - self.m * self.l

    @property
    def deep_positive(self) -> int:
        return self.r * self.s - self.r


def is_good(
    negative_members: Iterable[int],
    positive_missing: Iterable[int],
    params: GoodParams,
) -> bool:
    """Goodness of a co-finite label set.

    The set is described by its finitely many negative members together with
    the finitely many positive labels it omits.  It is good when the two
    finite parts have equal cardinality, at most one member is deep-negative,
    and at most one omitted positive is deep.
    """
    neg = [_as_signed(i) for i in negative_members]
    pos = [_as_signed(j) for j in positive_missing]
    if any(i > 0 for i in neg):
        raise ValueError("negative part contains a positive label")
    if any(j < 0 for j in pos):
        raise ValueError("positive complement contains a negative label")
    if len(set(neg)) != len(neg) or len(set(pos)) != len(pos):
        raise ValueError("parts must not repeat labels")
    if len(neg) != len(pos):
        return False
    if sum(1 for i in neg if i <= params.deep_negative) > 1:
        return False
    if sum(1 for j in pos if j >= params.deep_positive) > 1:
        return False
    return True


def _diagram(iset: IndexSet) -> Diagram:
    """young_diagram of an ascending size-p window key, unchecked.

    The steps k - shifted(i_k) are weakly decreasing; row j of their conjugate
    counts the steps at least j, so it is built from the bottom row up.
    """
    steps = [k - (i if i > 0 else i + 1) for k, i in enumerate(iset, start=1)]
    diagram: list[int] = []
    for count in range(len(steps), 0, -1):
        if steps[count - 1] > len(diagram):
            diagram += [count] * (steps[count - 1] - len(diagram))
    return tuple(diagram)


def young_diagram(indices: Iterable[int], window: Window) -> Diagram:
    """Diagram measuring how far a size-p window coordinate sits from {1..p}.

    Position k of the sorted coordinate contributes the number of label steps
    it moved below k.  That step vector is weakly decreasing with nonnegative
    entries for any size-p subset of the window, and its conjugate is
    returned, so {1,...,p} maps to the empty diagram,
    {-1,1,3,4} in window (2,4) to (2), and {-2,1,3,4} there to (2,1).
    """
    return _diagram(ascending_key(index_set(indices), window, window.p))
