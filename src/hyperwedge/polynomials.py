"""Polynomials in window coordinates x_I.

Variables are indexed by ascending size-g subsets I of a window, one variable
per coordinate of a grade-g multivector.  A monomial is a multiset of such
index sets, kept as a sorted tuple, so x_{12}x_{34} and x_{34}x_{12} collapse
to one key.  Coefficients are exact rationals; zero coefficients are never
stored.

A polynomial may carry an ambient window.  When it does, evaluation insists
the argument lives in exactly that window; when it does not (window None),
evaluation still checks that every variable fits inside the argument's
window, so a stray index can never be silently read as zero.
"""
from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping, Optional

from .indices import DimensionMismatch, Frozen, IndexSet, Window, ascending_key, exact, plain_int
from .multivector import (
    FormatError,
    Multivector,
    format_errors,
    read_header,
    read_terms,
)

Monomial = tuple[IndexSet, ...]


def monomial(factors: Iterable[Iterable[int]]) -> Monomial:
    """Canonical product key: validated factors in sorted multiset order."""
    return _monomial(factors, None, None)


def _monomial(
    factors: Iterable[Iterable[int]], window: Optional[Window], grade: Optional[int]
) -> Monomial:
    """monomial, each factor also held to the window and grade by ascending_key."""
    return tuple(sorted(ascending_key(f, window, grade) for f in factors))


class WedgePolynomial(Frozen):
    """Sparse polynomial over the coordinates of one exterior power.

    _trusted(grade, terms, window, label) adopts a dict of canonical
    monomials and nonzero Fractions unchecked.
    """

    __slots__ = ("grade", "_terms", "window", "label")

    def __init__(
        self,
        grade: int,
        terms: Mapping[Monomial, Fraction] | Iterable[tuple[Monomial, Fraction]] = (),
        window: Optional[Window] = None,
        label: Optional[str] = None,
    ):
        plain_int("grade", grade, 0)
        store: dict[Monomial, Fraction] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for raw_mono, raw_coeff in items:
            mono = _monomial(raw_mono, window, grade)
            coeff = store.get(mono, Fraction(0)) + exact(raw_coeff)
            if coeff:
                store[mono] = coeff
            else:
                store.pop(mono, None)
        self._fill(grade, store, window, label)

    @classmethod
    def zero(cls, grade: int, window: Optional[Window] = None) -> "WedgePolynomial":
        return cls(grade, (), window)

    @classmethod
    def variable(
        cls, indices: Iterable[int], window: Optional[Window] = None
    ) -> "WedgePolynomial":
        key = ascending_key(indices)
        return cls(len(key), {(key,): Fraction(1)}, window)

    # ---------------------------------------------------------- inspection

    @property
    def terms(self) -> Mapping[Monomial, Fraction]:
        return MappingProxyType(self._terms)

    def coeff(self, factors: Iterable[Iterable[int]]) -> Fraction:
        return self._terms.get(_monomial(factors, self.window, self.grade), Fraction(0))

    def is_zero(self) -> bool:
        return not self._terms

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        """Terms by total degree, then lexicographically on the monomial."""
        return sorted(self._terms.items(), key=lambda kv: (len(kv[0]), kv[0]))

    def with_window(self, window: Optional[Window]) -> "WedgePolynomial":
        """The same canonical terms, checked only against the new window."""
        for mono in self._terms:
            _monomial(mono, window, self.grade)
        return WedgePolynomial._trusted(self.grade, self._terms, window, self.label)

    # ---------------------------------------------------------- arithmetic

    def __add__(self, other):
        if not isinstance(other, WedgePolynomial):
            return NotImplemented
        return poly_add(self, other)

    def __sub__(self, other):
        if not isinstance(other, WedgePolynomial):
            return NotImplemented
        return poly_add(self, poly_scale(other, -1))

    def __neg__(self):
        return poly_scale(self, -1)

    def __mul__(self, other):
        if isinstance(other, WedgePolynomial):
            return poly_mul(self, other)
        return poly_scale(self, other)

    def __rmul__(self, scalar):
        return poly_scale(self, scalar)

    def __eq__(self, other):
        if not isinstance(other, WedgePolynomial):
            return NotImplemented
        return (
            self.grade == other.grade
            and self.window == other.window
            and self._terms == other._terms
        )

    def __str__(self):
        """The bare term sum, such as "1*x(1,2)x(3,4) + -1*x(1,3)x(2,4)", or "0"."""
        parts = []
        for mono, coeff in self.sorted_terms():
            factors = "".join("x(" + ",".join(map(str, f)) + ")" for f in mono)
            parts.append(f"{coeff}*{factors}" if factors else str(coeff))
        return " + ".join(parts) or "0"

    def __repr__(self):
        home = self.window if self.window is not None else "any window"
        return f"<{self} | grade {self.grade}, {home}>"


def _require_same_frame(a: WedgePolynomial, b: WedgePolynomial):
    if a.grade != b.grade:
        raise DimensionMismatch(f"grades differ: {a.grade} vs {b.grade}")
    if a.window != b.window:
        raise DimensionMismatch(f"windows differ: {a.window} vs {b.window}")


def poly_add(a: WedgePolynomial, b: WedgePolynomial) -> WedgePolynomial:
    _require_same_frame(a, b)
    acc = dict(a._terms)
    for mono, coeff in b._terms.items():
        acc[mono] = acc.get(mono, Fraction(0)) + coeff
    return WedgePolynomial(a.grade, acc, a.window)


def poly_mul(a: WedgePolynomial, b: WedgePolynomial) -> WedgePolynomial:
    _require_same_frame(a, b)
    acc: dict[Monomial, Fraction] = {}
    for mono_a, coeff_a in a._terms.items():
        for mono_b, coeff_b in b._terms.items():
            mono = tuple(sorted(mono_a + mono_b))
            acc[mono] = acc.get(mono, Fraction(0)) + coeff_a * coeff_b
    return WedgePolynomial(a.grade, acc, a.window)


def poly_scale(a: WedgePolynomial, scalar) -> WedgePolynomial:
    s = exact(scalar)
    return WedgePolynomial(
        a.grade, {m: s * c for m, c in a._terms.items()}, a.window, a.label
    )


def poly_eval(p: WedgePolynomial, v: Multivector) -> Fraction:
    """Substitute x_I := coefficient of e_I in v."""
    if v.grade != p.grade:
        raise DimensionMismatch(
            f"polynomial over grade {p.grade} evaluated at grade {v.grade}"
        )
    if p.window is None:
        p.with_window(v.window)  # every variable must fit the argument's window
    elif v.window != p.window:
        raise DimensionMismatch(f"polynomial lives in {p.window}, argument in {v.window}")
    total = Fraction(0)
    for mono, coeff in p._terms.items():
        value = coeff
        for factor in mono:
            value *= v._terms.get(factor, 0)
            if not value:
                break
        total += value
    return total


def poly_equal(a: WedgePolynomial, b: WedgePolynomial) -> bool:
    """Symbolic equality of canonical forms; ambient window is ignored."""
    return a.grade == b.grade and a._terms == b._terms


# ------------------------------------------------------------------- files

def poly_to_obj(p: WedgePolynomial) -> dict:
    return {
        "window": None if p.window is None else [p.window.n, p.window.p],
        "grade": p.grade,
        "label": p.label,
        "terms": [
            {"coeff": str(coeff), "factors": [list(f) for f in mono]}
            for mono, coeff in p.sorted_terms()
        ],
    }


def _monomial_key(item) -> tuple[Monomial, tuple[int, Monomial]]:
    """A term's monomial, factors ascending with repeats, and its place (degree, monomial)."""
    factors = item.get("factors")
    if not isinstance(factors, list) or not all(isinstance(f, list) for f in factors):
        raise FormatError("factors must be a list of integer lists")
    mono = tuple(ascending_key(f) for f in factors)
    if any(a > b for a, b in zip(mono, mono[1:])):
        raise FormatError(f"factors {list(mono)} must be listed in ascending order")
    return mono, (len(mono), mono)


def poly_from_obj(obj) -> WedgePolynomial:
    """Strict inverse of poly_to_obj; any defect, disorder included, raises FormatError."""
    window, grade = read_header(obj, "polynomial", null_window=True)
    label = obj.get("label")
    if label is not None and not isinstance(label, str):
        raise FormatError("label must be null or a string")
    terms = read_terms(obj, _monomial_key)
    if 0 in terms.values():
        raise FormatError("explicit zero coefficients are not canonical")
    with format_errors():
        return WedgePolynomial(grade, terms, window, label)
