"""Sparse exact multivectors over a signed index window.

A multivector of grade g in window (n, p) is a finite rational combination of
basis wedges e_I, where I runs over ascending g-subsets of the window labels.
Coefficients are `fractions.Fraction` throughout; input is an int or a
Fraction.  The module also provides covectors (finite functionals used for
contraction), dense rational matrices with exact determinant and rank, the
four window-transition maps, the Hodge star, and the induced GL action.

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

Products run on one integer core, the bitmap representation of basis blades
(Dorst, Fontijne and Mann, Geometric Algebra for Computer Science, ch. 19):
label i of window.elements() is bit N-1-i, and a term table is {mask: int}
over one common denominator D, the lcm of the coefficients' denominators.
Among keys of one grade, lexicographic order of label tuples is descending
int order of masks, so max(table) is the lowest key.  Locus code reads the
mask domain only through two entry points that take a Multivector and return
labels and Fractions: _lowest_power_term (every power test, contracted or not)
and _plucker_violation (the (iota_S v) ^ v walk).
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
    key_table,
    plain_int,
    sort_with_sign,
)


class FormatError(ValueError):
    """Serialized data violates the on-disk contract."""


class Multivector(Frozen):
    """Immutable sparse element of one exterior power of a window space.

    _trusted(window, grade, terms) adopts a dict of ascending in-window keys
    and nonzero Fractions unchecked.
    """

    __slots__ = ("window", "grade", "_terms")

    def __init__(
        self,
        window: Window,
        grade: int,
        terms: Mapping[IndexSet, Fraction] | Iterable[tuple[IndexSet, Fraction]] = (),
    ):
        plain_int("grade", grade, 0)
        table = key_table(window, grade, terms)
        self._fill(window, grade, {key: coeff for key, coeff in table.items() if coeff})

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
        return cls._trusted(window, len(iset), {iset: sign * c} if sign and c else {})

    # -------------------------------------------------------- inspection

    @property
    def terms(self) -> Mapping[IndexSet, Fraction]:
        return MappingProxyType(self._terms)

    def coeff(self, indices: Iterable[int]) -> Fraction:
        return self._terms.get(ascending_key(indices, self.window, self.grade), Fraction(0))

    def support(self) -> tuple[IndexSet, ...]:
        return tuple(sorted(self._terms))

    def is_zero(self) -> bool:
        return not self._terms

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
        acc = dict(self._terms)
        for key, coeff in other._terms.items():
            acc[key] = acc.get(key, Fraction(0)) + coeff
        return Multivector(self.window, self.grade, acc)

    def __sub__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return Multivector(
            self.window, self.grade, {k: -c for k, c in self._terms.items()}
        )

    def __mul__(self, scalar):
        if isinstance(scalar, Multivector):
            return NotImplemented
        s = exact(scalar)
        return Multivector(
            self.window, self.grade, {k: s * c for k, c in self._terms.items()}
        )

    __rmul__ = __mul__

    def __str__(self):
        """The bare term sum, such as "2*e(-1,3) + 1/2*e(1,2)", or "0"."""
        parts = []
        for key in self.support():
            c = self._terms[key]
            label = "e(" + ",".join(str(i) for i in key) + ")"
            parts.append(f"{c}*{label}" if key else str(c))
        return " + ".join(parts) or "0"

    def __repr__(self):
        return f"<{self} | grade {self.grade} in {self.window}>"


class Covector(Frozen):
    """Finite functional f = sum of f_i e^i over the window labels."""

    __slots__ = ("window", "_coeffs")

    def __init__(self, window: Window, coeffs: Mapping[int, Fraction]):
        store = {}
        for label, value in coeffs.items():
            ascending_key((label,), window)
            c = exact(value)
            if c:
                store[label] = c
        self._fill(window, store)

    @classmethod
    def dual_basis(cls, window: Window, label: int) -> "Covector":
        return cls(window, {label: Fraction(1)})

    def coeff(self, label: int) -> Fraction:
        ascending_key((label,), self.window)
        return self._coeffs.get(label, Fraction(0))

    def items(self):
        return tuple(sorted(self._coeffs.items()))

    def __repr__(self):
        body = " + ".join(f"{c}*e^({i})" for i, c in self.items()) or "0"
        return f"<{body} | covector on {self.window}>"


def _rank_det(rows: Iterable[Iterable[Fraction]]) -> tuple[int, Fraction]:
    """Rank and determinant of a square matrix by one Bareiss echelon pass.

    Each update divides exactly by the previous pivot, and a column with no
    pivot left is skipped.  The determinant is the swap sign times the last
    pivot at full rank, and 0 below it.
    """
    a = [list(row) for row in rows]
    size = len(a)
    sign, prev, rank = 1, Fraction(1), 0
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
                row[j] = (row[j] * top[col] - row[col] * top[j]) / prev
        prev = top[col]
        rank += 1
    return rank, sign * prev if rank == size else Fraction(0)


class RationalMatrix(Frozen):
    """Dense square matrix over the window labels, exact rational entries."""

    __slots__ = ("window", "_rows")

    def __init__(self, window: Window, rows: Iterable[Iterable]):
        size = window.size
        data = tuple(tuple(exact(x) for x in row) for row in rows)
        if len(data) != size or any(len(row) != size for row in data):
            raise DimensionMismatch(f"matrix must be {size}x{size} for {window}")
        self._fill(window, data)

    @classmethod
    def identity(cls, window: Window) -> "RationalMatrix":
        return cls.from_function(
            window, lambda r, c: Fraction(1) if r == c else Fraction(0)
        )

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
        return self._rows[self._pos(row_label)][self._pos(col_label)]

    def column(self, col_label: int) -> dict[int, Fraction]:
        j = self._pos(col_label)
        return {
            label: row[j]
            for label, row in zip(self.window.elements(), self._rows)
            if row[j]
        }

    def det(self) -> Fraction:
        return _rank_det(self._rows)[1]

    def rank(self) -> int:
        return _rank_det(self._rows)[0]


# ------------------------------------------------------------------ products

@lru_cache(maxsize=64)
def _frame(window: Window) -> dict[int, int]:
    """Each label's bit, in label order; shared, read-only."""
    return {x: 1 << (window.size - 1 - i) for i, x in enumerate(window.elements())}


def _masked(terms: Mapping, mask_of: Callable) -> tuple[dict, int]:
    """terms as {mask_of(key): int} over the lcm D of their denominators, and D."""
    den = math.lcm(*(c.denominator for c in terms.values()))
    return {mask_of(key): c.numerator * (den // c.denominator) for key, c in terms.items()}, den


def _to_masks(v: Multivector) -> tuple[dict[int, int], int]:
    bit = _frame(v.window)
    return _masked(v._terms, lambda key: sum(map(bit.__getitem__, key)))


def _labels(window: Window, mask: int) -> IndexSet:
    return tuple(x for x, b in _frame(window).items() if mask & b)


def _from_masks(window: Window, grade: int, table: dict, den: int) -> Multivector:
    terms = {_labels(window, mask): Fraction(c, den) for mask, c in table.items()}
    return Multivector._trusted(window, grade, terms)


def _lowest(window: Window, table: dict, den: int) -> tuple[IndexSet, Fraction]:
    """Lowest key of a nonzero table, and its coefficient over den: max(table) by the order fact."""
    mask = max(table)
    return _labels(window, mask), Fraction(table[mask], den)


def _wedge_masks(left: dict, right: dict) -> dict[int, int]:
    """Exterior product of two mask tables, zeros dropped.

    e_a ^ e_b is (-1)^k e_(a|b), where k counts the pairs of a bit of a below
    a bit of b: a label of a after one of b.  Bit j of `below` is the parity
    of a's bits below j, so k's parity is the popcount of below & b.
    """
    acc: dict[int, int] = {}
    pairs = list(right.items())
    for a, ca in left.items():
        below, rest = 0, a
        while rest:
            low = rest & -rest
            below, rest = below ^ -(low << 1), rest ^ low
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
    (left, du), (right, dv) = _to_masks(u), _to_masks(v)
    return _from_masks(u.window, u.grade + v.grade, _wedge_masks(left, right), du * dv)


def wedge_power(v: Multivector, l: int) -> Multivector:
    plain_int("power", l, 0)
    table, den = _to_masks(v)
    return _from_masks(v.window, v.grade * l, _power_masks(table, l), den**l)


def contract(f: Covector, v: Multivector) -> Multivector:
    """Right interior product by the covector f."""
    if f.window != v.window:
        raise DimensionMismatch("covector and multivector windows differ")
    if v.grade == 0:
        raise DimensionMismatch("cannot contract a grade-0 element")
    weights, df = _masked(f._coeffs, _frame(v.window).__getitem__)
    table, dv = _to_masks(v)
    return _from_masks(v.window, v.grade - 1, _contract_masks(weights, table), df * dv)


# ------------------------------------------------------------------ locus entry points

def _lowest_power_term(v: Multivector, l: int, draws: Iterable = ((),)):
    """Yield each draw whose contracted l-th power of v survives, in draw order.

    A draw is a sequence of {label: int} covectors applied to v in turn; each
    yield is (index, draw, lowest surviving key of the power, its Fraction).
    """
    bit = _frame(v.window)
    table, den = _to_masks(v)
    for index, draw in enumerate(draws):
        current = table
        for f in draw:
            current = _contract_masks({bit[x]: c for x, c in f.items() if c}, current)
        power = _power_masks(current, l)
        if power:
            yield (index, draw, *_lowest(v.window, power, den**l))


def _plucker_violation(v: Multivector):
    """(S, T, value) of the lowest S with (iota_S v) ^ v nonzero, or None.

    T is the product's lowest key and value its coefficient; S runs in label
    order, not mask order.
    """
    w = v.window
    table, den = _to_masks(v)
    contracted: dict = {}
    for t in _frame(w).values():  # u_S's e_t entry is the e_S coefficient of v contracted by e^t
        for small, c in _contract_masks({t: 1}, table).items():
            contracted.setdefault(small, {})[t] = c
    for small in sorted(contracted, key=lambda s: _labels(w, s)):
        product = _wedge_masks(contracted[small], table)
        if product:
            return (_labels(w, small), *_lowest(w, product, den * den))
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
    """
    w = v.window
    if kind == "i":
        return Multivector._trusted(Window(w.n + 1, w.p), v.grade, dict(v._terms))
    if kind == "j":
        label = w.p + 1
        wider = Window(w.n, w.p + 1)
        return Multivector._trusted(
            wider, v.grade + 1, {key + (label,): c for key, c in v._terms.items()}
        )
    if kind == "i_dagger":
        if w.n < 1:
            raise DimensionMismatch("no negative row to drop")
        deepest = -w.n
        kept = {key: c for key, c in v._terms.items() if deepest not in key}
        return Multivector._trusted(Window(w.n - 1, w.p), v.grade, kept)
    if kind == "j_dagger":
        if w.p < 1 or v.grade < 1:
            raise DimensionMismatch("need a positive column and positive grade")
        top = w.p
        kept = {key[:-1]: c for key, c in v._terms.items() if key[-1] == top}
        return Multivector._trusted(Window(w.n, w.p - 1), v.grade - 1, kept)
    raise ValueError(f"unknown transition kind {kind!r}; expected one of {TRANSITION_KINDS}")


def _star_key(universe: IndexSet, key: IndexSet) -> tuple[int, IndexSet]:
    """Where the star sends e_key: sgn(I, I^c), read from I's places, and -I^c."""
    members = set(key)
    moves = sum(map(universe.index, key)) - math.comb(len(key), 2)
    return -1 if moves & 1 else 1, tuple(-x for x in reversed(universe) if x not in members)


def hodge_star(v: Multivector) -> Multivector:
    """Grade-complementing duality into the mirrored window (p, n).

    e_I maps to sgn(I, complement) e_(negated complement); the pairing that
    motivates the negation matches e_i with e_(-i).
    """
    w = v.window
    universe = w.elements()
    acc: dict[IndexSet, Fraction] = {}
    for key, coeff in v._terms.items():
        sign, image = _star_key(universe, key)
        acc[image] = coeff * sign
    return Multivector._trusted(Window(w.p, w.n), w.size - v.grade, acc)


def gl_apply(m: RationalMatrix, v: Multivector) -> Multivector:
    """Apply the grade-wise extension of a linear map (invertible or not).

    Each term's image, the wedge of its labels' columns, adds into one table.
    """
    if m.window != v.window:
        raise DimensionMismatch("matrix and multivector windows differ")
    bit = _frame(v.window)
    dm = math.lcm(*(x.denominator for row in m._rows for x in row))
    columns = {  # in label order, the order of each key's factors
        b: {bit[r]: x.numerator * (dm // x.denominator) for r, x in m.column(label).items()}
        for label, b in bit.items()
    }
    table, dv = _to_masks(v)
    total: dict[int, int] = {}
    for key, coeff in table.items():
        part = {0: coeff}
        for b, column in columns.items():
            if key & b:
                part = _wedge_masks(part, column)
                if not part:
                    break
        for image, c in part.items():
            total[image] = total.get(image, 0) + c
    return _from_masks(v.window, v.grade, {k: c for k, c in total.items() if c}, dv * dm**v.grade)


def nilpotency_degree(v: Multivector) -> int:
    """Least l with the l-th power zero; 1 when v itself vanishes."""
    if v.grade == 0:
        if v.is_zero():
            return 1
        raise ValueError("nonzero scalars have no vanishing power")
    table = _to_masks(v)[0]
    power, degree = table, 1
    while power:
        degree += 1
        power = _wedge_masks(power, table)
    return degree


def rank_two_form(v: Multivector) -> int:
    """Largest r with the r-th wedge power nonzero (grade-2 input)."""
    if v.grade != 2:
        raise DimensionMismatch("rank is defined for grade-2 elements")
    return nilpotency_degree(v) - 1


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
        "terms": [
            {"indices": list(key), "coeff": str(v._terms[key])}
            for key in v.support()
        ],
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
