"""Sparse exact multivectors over a signed index window.

A multivector of grade g in window (n, p) is a finite rational combination of
basis wedges e_I, where I runs over ascending g-subsets of the window labels.
Coefficients are exact rationals; input is an int or a Fraction, and output
is a Fraction.  The module also provides covectors (finite functionals used
for contraction), dense rational matrices with exact determinant and rank,
the four window-transition maps, the Hodge star, and the induced GL action.

Conventions that fix every sign in the package:

* wedge signs come from sorting concatenated index lists, counting inversions
  in plain integer order;
* contraction is the right interior product: contracting e^k removes k from
  e_I with sign (-1)^(number of indices after k), so removing the last index
  is free of signs and contracting by e^(p+1) exactly undoes multiplication
  by e_(p+1);
* the star of e_I is sgn(I, I_complement) times the basis wedge on the
  negated complement, taken in the mirrored window (p, n), with no further
  normalization.

A coordinate table, a multivector's terms or a covector's entries (a
grade-1 table), has one stored form, the bitmap representation of basis
blades (Dorst, Fontijne and Mann, Geometric Algebra for Computer Science,
ch. 19): label i of window.elements() is bit N-1-i, and the table is
{mask: int} over one positive denominator.  It is canonical: the gcd of the
denominator and every numerator is 1, and zero is {} over 1, so equal values
have equal fields and Frozen equality, pickling and copying compare values.
Among keys of one grade, lexicographic order of label tuples is descending
int order of masks, so max(table) is the lowest key.  Products, contraction,
the star, the transitions and the locus entry points (_lowest_power_term,
_plucker_violation) read the stored tables; label tuples and Fractions are
decoded only at the public boundary: terms, coeff, items, support, str, the
file formats and certificates.  This module alone maps labels to bits and
back: _mask encodes a key, _encode and _decode a table, _coordinates reads
a table at label keys for the form and polynomial evaluators, and _star_key
gives hodge_star's sign and image key for one key.  A matrix is stored the
same way, as int rows over one denominator, and every rank and determinant,
a two-form's included, is one fraction-free Bareiss pass in ints: _rank_det.
"""
from __future__ import annotations

import math
import re
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Callable, Iterable, Mapping

from .indices import (
    DimensionMismatch,
    Frozen,
    IndexSet,
    Window,
    ascending_key,
    exact,
    plain_int,
    sort_with_sign,
)


class FormatError(ValueError):
    """Serialized data violates the on-disk contract."""


class Multivector(Frozen):
    """Immutable sparse element of one exterior power of a window space.

    Its terms are stored as the canonical pair (_table, _den) of the module
    docstring; _trusted(window, grade, table, den) adopts such a pair
    unchecked.
    """

    __slots__ = ("window", "grade", "_table", "_den")

    def __init__(
        self,
        window: Window,
        grade: int,
        terms: Mapping[IndexSet, Fraction] | Iterable[tuple[IndexSet, Fraction]] = (),
    ):
        plain_int("grade", grade, 0)
        table, den = _encode(window, grade, terms)
        self._fill(window, grade, {key: c for key, c in table.items() if c}, den)

    # -------------------------------------------------------- constructors

    @classmethod
    def zero(cls, window: Window, grade: int) -> "Multivector":
        return cls(window, grade)

    @classmethod
    def basis(cls, window: Window, indices: Iterable[int], coeff=1) -> "Multivector":
        """Basis wedge for the given labels in any order.

        Sorting contributes the permutation sign; a repeated label yields the
        zero multivector of the matching grade.
        """
        c = exact(coeff)
        iset, sign = sort_with_sign(indices)
        ascending_key(dict.fromkeys(iset), window)
        table = {_mask(window, iset): sign * c.numerator} if sign and c else {}
        return cls._trusted(window, len(iset), table, c.denominator if table else 1)

    # -------------------------------------------------------- inspection

    @property
    def terms(self) -> Mapping[IndexSet, Fraction]:
        """The nonzero terms in lexicographic key order."""
        return MappingProxyType(_decode(self.window, self._table, self._den))

    def coeff(self, indices: Iterable[int]) -> Fraction:
        key = ascending_key(indices, self.window, self.grade)
        return Fraction(self._table.get(_mask(self.window, key), 0), self._den)

    def support(self) -> tuple[IndexSet, ...]:
        return tuple(_labels(self.window, mask) for mask in sorted(self._table, reverse=True))

    def is_zero(self) -> bool:
        return not self._table

    # -------------------------------------------------------- algebra

    def _require_compatible(self, other: "Multivector"):
        if self.window != other.window or self.grade != other.grade:
            raise DimensionMismatch(
                f"cannot combine grade {self.grade} in {self.window} "
                f"with grade {other.grade} in {other.window}"
            )

    def __add__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        self._require_compatible(other)
        den = math.lcm(self._den, other._den)
        acc = {key: c * (den // self._den) for key, c in self._table.items()}
        scale = den // other._den
        for key, c in other._table.items():
            acc[key] = acc.get(key, 0) + c * scale
        return _make(self.window, self.grade, {key: c for key, c in acc.items() if c}, den)

    def __sub__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        table = {key: -c for key, c in self._table.items()}
        return Multivector._trusted(self.window, self.grade, table, self._den)

    def __mul__(self, scalar):
        if isinstance(scalar, Multivector):
            return NotImplemented
        s = exact(scalar)
        table = {key: c * s.numerator for key, c in self._table.items()} if s else {}
        return _make(self.window, self.grade, table, self._den * s.denominator)

    __rmul__ = __mul__

    def __str__(self):
        """The bare term sum, such as "2*e(-1,3) + 1/2*e(1,2)", or "0"."""
        parts = []
        for key, c in self.terms.items():
            label = "e(" + ",".join(str(i) for i in key) + ")"
            parts.append(f"{c}*{label}" if key else str(c))
        return " + ".join(parts) or "0"

    def __repr__(self):
        return f"<{self} | grade {self.grade} in {self.window}>"


class Covector(Frozen):
    """Finite functional f = sum of f_i e^i over the window labels.

    It is stored as the canonical grade-1 table (_table, _den) of the module
    docstring, one bit per label, which contract reads as it is.
    """

    __slots__ = ("window", "_table", "_den")

    def __init__(self, window: Window, coeffs: Mapping[int, Fraction]):
        table, den = _encode(window, 1, {(label,): c for label, c in coeffs.items()})
        self._fill(window, {bit: c for bit, c in table.items() if c}, den)

    @classmethod
    def dual_basis(cls, window: Window, label: int) -> "Covector":
        return cls(window, {label: Fraction(1)})

    def coeff(self, label: int) -> Fraction:
        ascending_key((label,), self.window)
        return Fraction(self._table.get(_frame(self.window)[label], 0), self._den)

    def items(self):
        bits, table = _frame(self.window), self._table
        return tuple((x, Fraction(table[b], self._den)) for x, b in bits.items() if b in table)

    def __repr__(self):
        body = " + ".join(f"{c}*e^({i})" for i, c in self.items()) or "0"
        return f"<{body} | covector on {self.window}>"


def _rank_det(rows: Iterable[Iterable[int]]) -> tuple[int, int]:
    """Rank and determinant of a square int matrix by one Bareiss echelon pass.

    Each update divides exactly, with //, by the previous pivot, and a column
    with no pivot left is skipped.  The determinant is the swap sign times
    the last pivot at full rank, and 0 below it.
    """
    a = [list(row) for row in rows]
    size = len(a)
    sign, prev, rank = 1, 1, 0
    for col in range(size):
        pivot = next((i for i in range(rank, size) if a[i][col]), None)
        if pivot is None:
            continue
        if pivot != rank:
            a[rank], a[pivot] = a[pivot], a[rank]
            sign = -sign
        top = a[rank]
        for row in a[rank + 1:]:
            for j in range(col + 1, size):
                row[j] = (row[j] * top[col] - row[col] * top[j]) // prev
        prev = top[col]
        rank += 1
    return rank, sign * prev if rank == size else 0


class RationalMatrix(Frozen):
    """Dense square matrix over the window labels: int rows over one canonical denominator."""

    __slots__ = ("window", "_rows", "_den")

    def __init__(self, window: Window, rows: Iterable[Iterable]):
        size = window.size
        data = [[exact(x) for x in row] for row in rows]
        if len(data) != size or any(len(row) != size for row in data):
            raise DimensionMismatch(f"matrix must be {size}x{size} for {window}")
        den = math.lcm(*(x.denominator for row in data for x in row))
        ints = tuple(tuple(x.numerator * (den // x.denominator) for x in row) for row in data)
        self._fill(window, ints, den)

    @classmethod
    def identity(cls, window: Window) -> "RationalMatrix":
        return cls.from_function(window, lambda r, c: int(r == c))

    @classmethod
    def from_function(
        cls, window: Window, fn: Callable[[int, int], Fraction]
    ) -> "RationalMatrix":
        labels = window.elements()
        return cls(window, [[fn(r, c) for c in labels] for r in labels])

    def _pos(self, label: int) -> int:
        w = self.window
        ascending_key((label,), w)
        return label + w.n if label < 0 else label + w.n - 1

    def entry(self, row_label: int, col_label: int) -> Fraction:
        return Fraction(self._rows[self._pos(row_label)][self._pos(col_label)], self._den)

    def column(self, col_label: int) -> dict[int, Fraction]:
        j = self._pos(col_label)
        return {
            label: Fraction(row[j], self._den)
            for label, row in zip(self.window.elements(), self._rows)
            if row[j]
        }

    def det(self) -> Fraction:
        return Fraction(_rank_det(self._rows)[1], self._den**self.window.size)

    def rank(self) -> int:
        return _rank_det(self._rows)[0]


# ------------------------------------------------------------------ tables

@lru_cache(maxsize=64)
def _frame(window: Window) -> dict[int, int]:
    """Each label's bit, in label order; shared, read-only."""
    return {x: 1 << (window.size - 1 - i) for i, x in enumerate(window.elements())}


def _mask(window: Window, key: Iterable[int]) -> int:
    return sum(map(_frame(window).__getitem__, key))


@lru_cache(maxsize=64)
def _bit_labels(window: Window) -> tuple[int, ...]:
    """Each bit position's label, the inverse of _frame; shared, read-only."""
    return tuple(_frame(window))[::-1]


def _labels(window: Window, mask: int) -> IndexSet:
    """The mask's labels, ascending: its set bits, highest first."""
    by_bit, labels = _bit_labels(window), []
    while mask:
        top = mask.bit_length() - 1
        labels.append(by_bit[top])
        mask ^= 1 << top
    return tuple(labels)


def _encode(window: Window, size: int, terms) -> tuple[dict[int, int], int]:
    """A mapping or (key, value) pairs as a canonical table, zeros kept.

    Each key passes ascending_key for the window and size and is given once;
    each value passes exact.  The table is over the lcm of the denominators.
    """
    bit, values = _frame(window), {}
    for raw_key, value in terms.items() if isinstance(terms, Mapping) else terms:
        key = ascending_key(raw_key, window, size)
        mask = sum(map(bit.__getitem__, key))
        if mask in values:
            raise ValueError(f"term {key} is given twice")
        values[mask] = exact(value)
    den = math.lcm(*(c.denominator for c in values.values()))
    return {mask: c.numerator * (den // c.denominator) for mask, c in values.items()}, den


def _decode(window: Window, table: dict, den: int) -> dict[IndexSet, Fraction]:
    """A table of one grade as {key: Fraction}, keys in lexicographic order."""
    masks = sorted(table, reverse=True)
    return {_labels(window, mask): Fraction(table[mask], den) for mask in masks}


def _reduced(table: dict, den: int) -> tuple[dict[int, int], int]:
    """The pair divided by the gcd of den and every value: canonical, {} over 1 for zero."""
    g = math.gcd(den, *table.values())
    if g == 1:
        return table, den
    return {key: c // g for key, c in table.items()}, den // g


def _make(window: Window, grade: int, table: dict, den: int) -> Multivector:
    """A Multivector from a table of nonzero ints over a positive den."""
    return Multivector._trusted(window, grade, *_reduced(table, den))


def _coordinates(v: Multivector) -> tuple[Callable[[IndexSet], int], int]:
    """v's coordinate reader, from an in-window key to its int over den, and den."""
    bit, table = _frame(v.window), v._table
    return (lambda key: table.get(sum(map(bit.__getitem__, key)), 0)), v._den


def _lowest(window: Window, table: dict, den: int) -> tuple[IndexSet, Fraction]:
    """Lowest key of a nonzero table, and its coefficient over den: max(table) by the order fact."""
    mask = max(table)
    return _labels(window, mask), Fraction(table[mask], den)


# ------------------------------------------------------------------ products

def _below(a: int) -> int:
    """Bit j is the parity of a's bits below j."""
    below, rest = 0, a
    while rest:
        low = rest & -rest
        below, rest = below ^ -(low << 1), rest ^ low
    return below


def _wedge_masks(left: dict, right: dict) -> dict[int, int]:
    """Exterior product of two mask tables, zeros dropped.

    e_a ^ e_b is (-1)^k e_(a|b), where k counts the pairs of a bit of a below
    a bit of b: a label of a after one of b.  So k's parity is the popcount
    of _below(a) & b.
    """
    acc: dict[int, int] = {}
    pairs = list(right.items())
    for a, ca in left.items():
        below = _below(a)
        for b, cb in pairs:
            if not a & b:
                c = ca * cb
                acc[a | b] = acc.get(a | b, 0) + (-c if (below & b).bit_count() & 1 else c)
    return {k: c for k, c in acc.items() if c}


def _power_masks(table: dict, l: int) -> dict[int, int]:
    out = {0: 1}
    for _ in range(l):
        out = _wedge_masks(out, table)
    return out


def _contract_masks(weights: dict, table: dict) -> dict[int, int]:
    """Interior product by {bit: weight}; removing bit t costs the parity of the bits below t."""
    acc: dict[int, int] = {}
    for key, c in table.items():
        for t, w in weights.items():
            if key & t:
                x = c * w
                acc[key ^ t] = acc.get(key ^ t, 0) + (-x if (key & (t - 1)).bit_count() & 1 else x)
    return {k: c for k, c in acc.items() if c}


def wedge(u: Multivector, v: Multivector) -> Multivector:
    """Exterior product; terms sharing an index annihilate."""
    if u.window != v.window:
        raise DimensionMismatch(f"windows differ: {u.window} vs {v.window}")
    return _make(u.window, u.grade + v.grade, _wedge_masks(u._table, v._table), u._den * v._den)


def wedge_power(v: Multivector, l: int) -> Multivector:
    plain_int("power", l, 0)
    return _make(v.window, v.grade * l, _power_masks(v._table, l), v._den**l)


def contract(f: Covector, v: Multivector) -> Multivector:
    """Right interior product by the covector f."""
    if f.window != v.window:
        raise DimensionMismatch("covector and multivector windows differ")
    if v.grade == 0:
        raise DimensionMismatch("cannot contract a grade-0 element")
    return _make(v.window, v.grade - 1, _contract_masks(f._table, v._table), f._den * v._den)


# ------------------------------------------------------------------ locus entry points

def _lowest_power_term(v: Multivector, l: int, draws: Iterable = ((),)):
    """Yield each draw whose contracted l-th power of v survives, in draw order.

    A draw is a sequence of {label: int} covectors applied to v in turn; each
    yield is (index, draw, lowest surviving key of the power, its Fraction).
    """
    bit = _frame(v.window)
    den = v._den**l
    for index, draw in enumerate(draws):
        current = v._table
        for f in draw:
            current = _contract_masks({bit[x]: c for x, c in f.items() if c}, current)
        power = _power_masks(current, l)
        if power:
            yield (index, draw, *_lowest(v.window, power, den))


def _plucker_violation(v: Multivector):
    """(S, T, value) of the lowest S with (iota_S v) ^ v nonzero, or None.

    T is the product's lowest key and value its coefficient; the sets S share
    one size, so label order is descending mask order.
    """
    w, table = v.window, v._table
    contracted: dict = {}
    for t in _frame(w).values():  # u_S's e_t entry is the e_S coefficient of v contracted by e^t
        for small, c in _contract_masks({t: 1}, table).items():
            contracted.setdefault(small, {})[t] = c
    for small in sorted(contracted, reverse=True):
        product = _wedge_masks(contracted[small], table)
        if product:
            return (_labels(w, small), *_lowest(w, product, v._den**2))
    return None


# ------------------------------------------------------------------ transitions

TRANSITION_KINDS = ("i", "j", "i_dagger", "j_dagger")


def transition(kind: str, v: Multivector) -> Multivector:
    """Window-change maps.

    "i" widens the negative side by one row without touching coefficients,
    "j" appends the next positive label as a new top wedge factor,
    "i_dagger" removes the deepest negative row (terms using it die), and
    "j_dagger" contracts away the current top label.  The dagger maps undo
    their partners exactly: i_dagger(i(v)) = v and j_dagger(j(v)) = v.
    The deepest label is the top bit and the top label bit 0.
    """
    w, table, den = v.window, v._table, v._den
    if kind == "i":
        return Multivector._trusted(Window(w.n + 1, w.p), v.grade, table, den)
    if kind == "j":
        wider = {mask << 1 | 1: c for mask, c in table.items()}
        return Multivector._trusted(Window(w.n, w.p + 1), v.grade + 1, wider, den)
    if kind == "i_dagger":
        if w.n < 1:
            raise DimensionMismatch("no negative row to drop")
        deepest = 1 << (w.size - 1)
        kept = {mask: c for mask, c in table.items() if not mask & deepest}
        return _make(Window(w.n - 1, w.p), v.grade, kept, den)
    if kind == "j_dagger":
        if w.p < 1 or v.grade < 1:
            raise DimensionMismatch("need a positive column and positive grade")
        kept = {mask >> 1: c for mask, c in table.items() if mask & 1}
        return _make(Window(w.n, w.p - 1), v.grade - 1, kept, den)
    raise ValueError(f"unknown transition kind {kind!r}; expected one of {TRANSITION_KINDS}")


def _star(mask: int, size: int) -> tuple[int, int]:
    """The star's sign on a key of a size-label window, and the image key's mask.

    The negated complement is the complement with its bits reversed, as
    negation reverses label order; sgn(I, I^c) counts the pairs of a member
    after a non-member, so it is the wedge sign of e_I ^ e_(I^c).
    """
    rest = mask ^ ((1 << size) - 1)
    image = int(format(rest, f"0{size}b")[::-1], 2)
    return -1 if (_below(mask) & rest).bit_count() & 1 else 1, image


def _star_key(window: Window, key: IndexSet) -> tuple[int, IndexSet]:
    """The star's sign on an in-window key I, and the image key in (p, n)."""
    sign, image = _star(_mask(window, key), window.size)
    return sign, _labels(Window(window.p, window.n), image)


def hodge_star(v: Multivector) -> Multivector:
    """Grade-complementing duality into the mirrored window (p, n).

    e_I maps to sgn(I, complement) e_(negated complement); the pairing that
    motivates the negation matches e_i with e_(-i).
    """
    w = v.window
    acc: dict[int, int] = {}
    for mask, c in v._table.items():
        sign, image = _star(mask, w.size)
        acc[image] = sign * c
    return Multivector._trusted(Window(w.p, w.n), w.size - v.grade, acc, v._den)


def gl_apply(m: RationalMatrix, v: Multivector) -> Multivector:
    """Apply the grade-wise extension of a linear map (invertible or not).

    Each term's image, the wedge of its labels' columns, adds into one table.
    """
    if m.window != v.window:
        raise DimensionMismatch("matrix and multivector windows differ")
    bits = list(_frame(v.window).values())
    columns = {  # in label order, the order of each key's factors
        b: {rb: row[j] for rb, row in zip(bits, m._rows) if row[j]}
        for j, b in enumerate(bits)
    }
    total: dict[int, int] = {}
    for key, coeff in v._table.items():
        part = {0: coeff}
        for b, column in columns.items():
            if key & b:
                part = _wedge_masks(part, column)
                if not part:
                    break
        for image, c in part.items():
            total[image] = total.get(image, 0) + c
    return _make(v.window, v.grade, {k: c for k, c in total.items() if c}, v._den * m._den**v.grade)


def rank_two_form(v: Multivector) -> int:
    """Largest r with the r-th wedge power nonzero: half the rank of v's skew matrix."""
    if v.grade != 2:
        raise DimensionMismatch("rank is defined for grade-2 elements")
    rows = [[0] * v.window.size for _ in range(v.window.size)]
    for mask, c in v._table.items():
        i, j = (mask & -mask).bit_length() - 1, mask.bit_length() - 1
        rows[i][j], rows[j][i] = c, -c
    return _rank_det(rows)[0] // 2


# ------------------------------------------------------------------ files

_INTEGER = r"-?(?:0|[1-9][0-9]*)"
_INTEGER_RE = re.compile(_INTEGER)
_FRACTION_RE = re.compile(_INTEGER + r"(?:/[1-9][0-9]*)?")


def parse_integer(text) -> int:
    """Strict decimal integer string: an optional minus, no leading zero.

    A plus sign, surrounding space, an underscore or a non-ASCII digit is
    rejected, never read past.
    """
    if not isinstance(text, str) or not _INTEGER_RE.fullmatch(text):
        raise FormatError(f"bad integer literal {text!r}")
    return int(text)


def parse_fraction(text) -> Fraction:
    """Strict "p" or "p/q" decimal string, q positive."""
    if not isinstance(text, str) or not _FRACTION_RE.fullmatch(text):
        raise FormatError(f"bad rational literal {text!r}")
    return Fraction(text)


@contextmanager
def format_errors():
    """Report a ValueError from the block, DimensionMismatch included, as FormatError."""
    try:
        yield
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def read_header(obj, kind: str, null_window: bool = False) -> tuple[Window | None, int]:
    """Window and grade of a serialized document; any defect raises FormatError.

    The window is a pair of nonnegative integers, or null where null_window
    allows it; the grade is a nonnegative integer.
    """
    if not isinstance(obj, dict):
        raise FormatError(f"{kind} document must be an object")
    raw = obj.get("window")
    if not (raw is None and null_window or isinstance(raw, (list, tuple)) and len(raw) == 2):
        raise FormatError(f"window must be a pair of nonnegative integers, got {raw!r}")
    with format_errors():
        window = None if raw is None else Window(*raw)
        return window, plain_int("grade", obj.get("grade"), 0)


def multivector_to_obj(v: Multivector) -> dict:
    return {
        "window": [v.window.n, v.window.p],
        "grade": v.grade,
        "terms": [{"indices": list(key), "coeff": str(c)} for key, c in v.terms.items()],
    }


def _index_key(item) -> tuple[IndexSet, IndexSet]:
    """A multivector term's indices, as its key and its place in the order."""
    indices = item.get("indices")
    if not isinstance(indices, list):
        raise FormatError("indices must be a list of integers")
    key = ascending_key(indices)
    return key, key


def read_terms(obj, read_key=_index_key) -> dict:
    """The terms list of a document as {key: coefficient}.

    read_key turns one term object into its key and the key's place in the
    document order; each term's place lies strictly above the previous one,
    so the terms are sorted and duplicate-free.
    """
    terms = obj.get("terms")
    if not isinstance(terms, list):
        raise FormatError("terms must be a list")
    out = {}
    prev = prev_key = None
    with format_errors():
        for item in terms:
            if not isinstance(item, dict):
                raise FormatError("each term must be an object")
            key, place = read_key(item)
            if prev is not None and place <= prev:
                raise FormatError(f"term {key} does not follow {prev_key}: terms must be sorted")
            out[key] = parse_fraction(item.get("coeff"))
            prev, prev_key = place, key
    return out


def multivector_from_obj(obj) -> Multivector:
    window, grade = read_header(obj, "multivector")
    terms = read_terms(obj)
    if 0 in terms.values():
        raise FormatError("explicit zero coefficients are not canonical")
    with format_errors():
        return Multivector(window, grade, terms)
