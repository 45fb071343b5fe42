"""Partition-sum coordinate forms and the identities built on them.

The basic object is the width-m, degree-l form attached to a label set A of
size m*l: the signed sum, over all unordered partitions of A into m-blocks,
of the products of the block coordinates.  For even m the block order does
not matter and the sum is a nonzero polynomial; for odd m and degree at
least two the symmetrized sum collapses to zero, and only the multilinear
version survives (a signed sum over block orders, each order weighted by
its sign to the m-th power).  A relative variant glues a fixed disjoint
tail J into every block coordinate.

These forms carry the structure constants of the wedge product (for even m
the coefficient of e_K in v^l is l! * hpf(m, l)@K(v)), satisfy a pivot
expansion that lowers the degree by one, and cut out the coordinate
varieties tested in the varieties module.  Every sign here is a shuffle
sign: a term's sign is that of its blocks concatenated, and in the pivot
expansion the block through the pivot moves to the front at the cost of
shuffle_sign([block, rest]), since even-width blocks commute.  The test
suite assembles both identities symbolically against the full forms.

Every partition-row sum reads one cached per-shape row plan, _row_plan:
hpf_eval, hpf_polynomial, and each form in recovery (a denominator or a
sub-form of a numerator), whose block keys the elimination module compiles
to key ids once per window shape.  The pivot expansion reads one cached
per-shape template, _pivot_plan: filtration_expansion, and recovery's
numerators, each expanded along its target's lowest label; only
hpf_multilinear, which survives odd widths, reads the full partition table.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cache
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Sequence

from .indices import (
    DimensionMismatch,
    IndexSet,
    Window,
    ascending_key,
    checked_record,
    enumerate_partitions,
    even_width,
    index_set,
    plain_int,
    shuffle_sign,
    sort_with_sign,
)
from .multivector import Multivector, _coordinates, _star_key
from .polynomials import WedgePolynomial


class FormSpec(checked_record("FormSpec", "m l indices tail")):
    """Shape of one form: width m, degree l, member set, optional tail."""

    __slots__ = ()

    def __new__(cls, m: int, l: int, indices: IndexSet, tail: IndexSet = ()):
        plain_int("width m", m)
        plain_int("degree l", l)
        members = ascending_key(index_set(indices), None, m * l)
        extra = index_set(tail) if tail else ()
        if set(members) & set(extra):
            raise ValueError("tail overlaps the member set")
        return tuple.__new__(cls, (m, l, members, extra))

    @classmethod
    def _trusted(cls, m: int, l: int, indices: IndexSet, tail: IndexSet) -> "FormSpec":
        """Adopt ascending, disjoint, correctly sized labels unchecked."""
        return tuple.__new__(cls, (m, l, indices, tail))

    @property
    def grade(self) -> int:
        return self.m + len(self.tail)

    @property
    def label(self) -> str:
        body = ",".join(map(str, self.indices))
        if self.tail:
            return f"hpf({self.m},{self.l})@{body}|" + ",".join(map(str, self.tail))
        return f"hpf({self.m},{self.l})@{body}"


@cache
def _partition_table(count: int, m: int):
    """All m-block partitions of 1..count with their shuffle signs.

    Enumeration runs on the positions 1..count once per shape; relabelling to
    an actual ascending member set preserves relative order and hence every
    sign, so callers map positions to labels without re-enumerating.
    """
    return tuple(enumerate_partitions(range(1, count + 1), m))


def _getter(indices: Sequence[int]):
    """itemgetter that returns a sequence, also for one index or none."""
    if len(indices) > 1:
        return itemgetter(*indices)
    return itemgetter(slice(indices[0], indices[0] + 1) if indices else slice(0))


def _splice(block, split: int, gap: int):
    """Getter of a block's key from head + tail + extra: head labels, the tail, extra labels."""
    return _getter(
        [q - 1 for q in block if q <= split]
        + list(range(split, split + gap))
        + [q - 1 + gap for q in block if q > split]
    )


@cache
def _row_plan(count: int, m: int, gap: int):
    """The form's signed rows on member positions 1..count, read through blocks.

    A tail of length gap joins every block.  Returns, per distinct block,
    the getter of its key from tail + members, and the rows as (factor
    getter, bitmask of the row's block ids, sign).  So an evaluation builds
    one key and does one lookup per block, not per row.  No members make
    one empty row, worth 1.  At odd width and degree two or more the
    symmetrized sum collapses to zero, so the plan has no rows.  Only shapes
    are cached, so memory does not grow with the member sets and tails
    evaluated.
    """
    if m % 2 and count >= 2 * m:
        return (), ()
    ids = {}
    rows = []
    for blocks, sign in _partition_table(count, m):
        row = [ids.setdefault(b, len(ids)) for b in blocks]
        rows.append((_getter(row), sum(1 << b for b in row), sign))
    return tuple(_splice(block, 0, gap) for block in ids), tuple(rows)


@cache
def _pivot_plan(count: int, m: int, pivot: int):
    """The pivot expansion of the form on positions 1..count along position pivot.

    Per m-block through pivot, in lexicographic order: (block, the positions
    it leaves, the shuffle sign of the block followed by them).  Each term
    of the degree-(count/m) form is one block's coordinate times a term of
    the form on the positions it leaves (Knuth, "Overlapping Pfaffians").
    At odd width the form has no rows, as in _row_plan, and neither has this.
    """
    if m % 2 and count >= 2 * m:
        return ()
    positions = range(1, count + 1)
    plan = []
    for block in itertools.combinations(positions, m):
        if pivot in block:
            rest = tuple(q for q in positions if q not in block)
            plan.append((block, rest, shuffle_sign([block, rest])))
    return tuple(plan)


def _row_sum(rows, values: Sequence):
    """Signed sum of the rows' products of values, one value per block.

    A row with a zero value adds nothing and is never multiplied out.  None
    marks an unknown value: if a row with no zero needs one, the sum is None.
    """
    unknown = sum(1 << b for b, value in enumerate(values) if value is None)
    zero = sum(1 << b for b, value in enumerate(values) if not value) ^ unknown
    live = [row for row in rows if not row[1] & zero]
    if unknown and any(mask & unknown for _, mask, _ in live):
        return None
    return sum(math.prod(factors(values), start=sign) for factors, _, sign in live)


def _spec_plan(spec: FormSpec):
    """The form's row plan with each block's key, sorted: a tail may sit among the members."""
    keys, rows = _row_plan(len(spec.indices), spec.m, len(spec.tail))
    labels = spec.tail + spec.indices
    return [tuple(sorted(key(labels))) for key in keys], rows


def hpf_polynomial(spec: FormSpec) -> WedgePolynomial:
    """The form as a polynomial in size-(m + |tail|) coordinates."""
    keys, rows = _spec_plan(spec)
    terms = {tuple(sorted(factors(keys))): Fraction(sign) for factors, _, sign in rows}
    return WedgePolynomial._trusted(spec.grade, terms, None, spec.label)


def hpf_eval(spec: FormSpec, v: Multivector) -> Fraction:
    """Value of the form at v; exact shortcut around building the polynomial."""
    if v.grade != spec.grade:
        raise DimensionMismatch(
            f"form wants grade {spec.grade}, argument has grade {v.grade}"
        )
    ascending_key(spec.indices, v.window)
    ascending_key(spec.tail, v.window)
    keys, rows = _spec_plan(spec)
    x, den = _coordinates(v)
    return Fraction(_row_sum(rows, [x(key) for key in keys]), den**spec.l)


def hpf_multilinear(spec: FormSpec, vs: Iterable[Multivector]) -> Fraction:
    """Fully polarized form on l separate grade-m arguments.

    The sum runs over ordered block assignments: each partition's blocks,
    taken in every order pi, give the term sign * sgn(pi)^m * prod_i
    v_i(B_pi(i)), since moving m-blocks past each other costs sgn(pi)^m.
    So feeding the same vector into every slot returns l! times hpf_eval.
    Odd widths are fine here: only the symmetrized sum vanishes for them.
    """
    if spec.tail:
        raise ValueError("relative forms do not polarize")
    vec = list(vs)
    if len(vec) != spec.l:
        raise DimensionMismatch(f"form wants {spec.l} arguments, got {len(vec)}")
    window = vec[0].window
    for v in vec:
        if v.window != window:
            raise DimensionMismatch("arguments live in different windows")
        if v.grade != spec.m:
            raise DimensionMismatch(
                f"arguments must have grade {spec.m}, got {v.grade}"
            )
    ascending_key(spec.indices, window)
    orders = [
        (order, (-1) ** (spec.m * sum(a > b for a, b in itertools.combinations(order, 2))))
        for order in itertools.permutations(range(spec.l))
    ]
    readers = [_coordinates(v) for v in vec]
    total = 0
    for blocks, sign in _partition_table(len(spec.indices), spec.m):
        keys = [tuple(spec.indices[q - 1] for q in block) for block in blocks]
        values = [[x(key) for key in keys] for x, _ in readers]
        if not all(map(any, zip(*values))):
            continue  # some block is zero in every argument
        for order, order_sign in orders:
            total += math.prod((row[j] for row, j in zip(values, order)), start=sign * order_sign)
    return Fraction(total, math.prod(den for _, den in readers))


def wedge_via_hpf(vs: Iterable[Multivector]) -> Multivector:
    """Rebuild an iterated wedge from form values, coordinate by coordinate."""
    vec = list(vs)
    if not vec:
        raise ValueError("need at least one factor")
    window = vec[0].window
    m = vec[0].grade
    if m < 1:
        raise DimensionMismatch("factors must have positive grade")
    for v in vec:
        if v.window != window or v.grade != m:
            raise DimensionMismatch("factors must share window and grade")
    support = sorted({i for v in vec for key in v.support() for i in key})
    out_grade = m * len(vec)
    terms = {}
    for chosen in itertools.combinations(support, out_grade):
        value = hpf_multilinear(FormSpec._trusted(m, len(vec), chosen, ()), vec)
        if value:
            terms[chosen] = value
    return Multivector(window, out_grade, terms)


def plucker_relation(body: Iterable[int], extension: Iterable[int], window: Window) -> WedgePolynomial:
    """Quadratic exchange relation between coordinates around |body| + 1.

    One index at a time moves from the larger set to the smaller one; signs
    track its position and the re-sorting of the enlarged set.  Moves that
    would repeat an index contribute nothing.
    """
    small = index_set(body, window=window)
    large = ascending_key(index_set(extension), window, len(small) + 2)
    grade = len(small) + 1
    pairs = []
    blocked = set(small)
    for position, mover in enumerate(large):
        if mover in blocked:
            continue
        enlarged, sort_sign = sort_with_sign(small + (mover,))
        rest = tuple(x for x in large if x != mover)
        sign = sort_sign * (-1 if position % 2 else 1)
        pairs.append(((enlarged, rest), Fraction(sign)))
    return WedgePolynomial(grade, pairs, window, _plucker_label(small, large))


def _plucker_label(small: IndexSet, large: IndexSet) -> str:
    """The label of plucker_relation(small, large, ...), for ascending labels."""
    return "plucker@" + ",".join(map(str, small)) + "|" + ",".join(map(str, large))


def filtration_expansion(
    m: int, l: int, members: Iterable[int], pivot: int
) -> list[tuple[int, IndexSet, FormSpec]]:
    """Expand the degree-(l+1) form on members along blocks through pivot.

    Returns (sign, block, residual spec) rows whose assembled combination
    sign * x_block * hpf(residual) sums to the full degree-(l+1) form.  Each
    sign is the shuffle sign of the block followed by the residual labels:
    even-width blocks commute, so any term of the full form factors that way.
    """
    even_width("m", m)
    plain_int("l", l)
    base = ascending_key(index_set(members), None, m * (l + 1))
    if pivot not in base:
        raise ValueError(f"pivot {pivot} is not among the labels")
    out = []
    for block, rest, sign in _pivot_plan(len(base), m, base.index(pivot) + 1):
        rest = tuple(base[q - 1] for q in rest)
        out.append((sign, tuple(base[q - 1] for q in block), FormSpec._trusted(m, l, rest, ())))
    return out


def component_form_specs(m: int, l: int, window: Window) -> Iterator[FormSpec]:
    """All relative forms cutting the (m, l) component out of the window.

    Member sets run over size-(m*l) subsets, tails over size-(p - m) subsets
    of the rest.  In windows too small for both choices the iterator is
    empty, matching the fact that the component fills the whole space there.
    """
    plain_int("m", m)
    plain_int("l", l)
    tail_size = window.p - m
    if tail_size < 0:
        return
    labels = window.elements()
    for chosen in itertools.combinations(labels, m * l):
        taken = set(chosen)
        pool = tuple(x for x in labels if x not in taken)
        for extra in itertools.combinations(pool, tail_size):
            yield FormSpec._trusted(m, l, chosen, extra)


def trivial_region(m: int, l: int, window: Window, dual: bool = False) -> Optional[str]:
    """Why the (m, l) component fills the whole window, or None if it does not.
    With dual=True window mirrors a given (n, p): the reason names r, s, n, p."""
    p, n, width, depth = ("n", "p", "r", "s") if dual else ("p", "n", "m", "l")
    if window.p < m:
        return f"{p} = {window.p} < {width} = {m}"
    if window.n < m * (l - 1):
        return f"{n} = {window.n} < {width}*({depth}-1) = {m * (l - 1)}"
    return None


def pullback_dual(spec: FormSpec, window: Window) -> WedgePolynomial:
    """Star-side equation rewritten in the coordinates of this window.

    The star is an involution, so if star(e_K) = s e_J, the mirror coordinate
    x'_K of star(v) is s x_J(v).  Substituting factor by factor turns a form
    on the mirror window (p, n) into one of full grade here.  The substitution
    is one-to-one on coordinates, so no two monomials merge.
    """
    mirror = Window(window.p, window.n)
    terms = {}
    for mono, coeff in hpf_polynomial(spec).terms.items():
        signs, images = zip(*(_star_key(mirror, key) for key in mono))
        terms[tuple(sorted(images))] = coeff * math.prod(signs)
    return WedgePolynomial._trusted(window.p, terms, window, "dual(" + spec.label[4:])


def component_equations(
    m: int, l: int, window: Window, dual: bool = False
) -> tuple[Optional[str], Iterator[WedgePolynomial]]:
    """Defining equations of one component in window, or why there are none.

    Returns the trivial-region reason (None outside such a region) and an
    iterator over the equations, which is empty inside one; the arguments
    are checked before this returns.  With dual=True the component is the
    (m, l) one of the mirrored window (p, n), and each of its forms is pulled
    back to full-grade coordinates of window.
    """
    width, depth = ("r", "s") if dual else ("m", "l")
    even_width(width, m)
    plain_int(depth, l)
    side = Window(window.p, window.n) if dual else window
    reason = trivial_region(m, l, side, dual)
    if reason is not None:
        return reason, iter(())
    specs = component_form_specs(m, l, side)
    if dual:
        return None, (pullback_dual(spec, window) for spec in specs)
    # every form's labels come from window, so its monomials fit it unchecked
    return None, (WedgePolynomial._trusted(p.grade, p._terms, window, p.label)
                  for p in map(hpf_polynomial, specs))
