"""Projection onto good coordinates and rational recovery of the rest.

A size-p window coordinate I is judged through its co-finite extension
I + {p+1, p+2, ...}: the negative members and the omitted positive labels
must each hold at most one deep element.  The surviving coordinates keep
their exact values, zeros included, so "known to vanish" and "never
projected" stay distinguishable.

Recovery of a dropped coordinate x_I uses a carrier: a superset of I whose
extra m*l indices all exceed max(I).  Writing the width-m degree-(l+1)
form on the carrier as x_I * D + Q with D the degree-l form on the extra
indices, the unique value forcing the carrier form to vanish is -Q/D.
Since I sits at the bottom of the carrier, the collected sign on x_I * D
is +1; the splitting is verified symbolically in the test suite.

Q is read by the head expansion of the forms module: its rows, grouped by
their blocks through the head (the first m labels of I), sum to those
blocks' product times the form on the extra labels R they leave, with the
tail (the rest of I) in every block: a form of D's kind.  Keys are spliced,
not sorted (head labels, tail, extra labels), as the extras lie above I.
A known-zero factor silences its monomial even beside an unknown one, so
an unknown head block blocks its group only if a row of the remainder has
no known zero; a carrier whose forms need an unknown forces nothing (None).

A pass reads each form on extra labels once: settled keeps its value by
(tail, extra), zero included.  That is sound because known values are
never overwritten: an evaluated form has no monomial with an unknown
factor that a known zero does not silence, so no later value changes it.
A form that needed unknown keys keeps them in blocked and fails again at
once, still counting an attempt, while none of them is known.  The table
starts as plain ints, the known values' denominators cleared once, and a
quotient that divides exactly joins it as an int, so the products stay in
int arithmetic; every result is exact.

A full recovery decides each missing coordinate once, in diagram order.
One pass is enough: every denominator key is tail + (an m-block of extra
labels) and every numerator key is I with some head labels swapped for
extra labels, so each prerequisite is elementwise at least I, differs from
it, and has a strictly smaller Young diagram.  When the pass reaches I,
every prerequisite is final, either known or a target already stuck, and a
second pass could change no outcome.  Carriers are enumerated lazily,
shallowest first: the combinations of the labels above max(I), taken in
descending order and each reversed, come out ordered by their largest
extra label, then the next largest, and so on.
"""

import bisect
import itertools
import math
from fractions import Fraction
from types import MappingProxyType
from typing import NamedTuple, Optional

from .forms import _head_plan, _row_plan, _row_sum
from .indices import (
    DimensionMismatch,
    Frozen,
    GoodParams,
    Window,
    _diagram,
    key_table,
    plain_int,
)
from .multivector import Multivector


class CoordinateAssignment(Frozen):
    """Partially known top-grade coordinates over a window.

    known maps size-p window keys, strictly ascending and never sorted, to
    exact rationals, as a mapping or pairs; every other size-p subset counts
    as missing.  params fixes the goodness thresholds the assignment was
    produced under.  _trusted(window, grade, known, params) adopts ascending
    size-p window keys and Fraction values unchecked.
    """

    __slots__ = ("window", "grade", "_known", "params")

    def __init__(self, window: Window, grade: int, known, params: GoodParams):
        if grade != window.p:
            raise DimensionMismatch(
                f"assignment grade must equal the window grade {window.p}, got {grade}"
            )
        params = GoodParams(*params)
        self._fill(window, grade, key_table(window, grade, known), params)

    @property
    def known(self):
        return MappingProxyType(self._known)

    def missing(self) -> tuple:
        labels = self.window.elements()
        return tuple(
            key
            for key in itertools.combinations(labels, self.grade)
            if key not in self._known
        )

    def __repr__(self):
        missing = math.comb(self.window.size, self.grade) - len(self._known)
        return (
            f"CoordinateAssignment({self.window}, known={len(self._known)},"
            f" missing={missing})"
        )


def good_projection(v: Multivector, params: GoodParams) -> CoordinateAssignment:
    """Keep exactly the good size-p coordinates of v, zeros included.

    Inputs of grade other than the window grade have no good coordinates
    at all (the co-finite extension is unbalanced), so they project to the
    empty assignment.  A size-p key always omits as many positive labels as
    it has negative members, so only the two depth counts decide: the keys
    ascend, so a second deep negative is key[1], and the positive members
    at or above the deep gap threshold form a tail of the key.
    """
    params = GoodParams(*params)
    window = v.window
    p = window.p
    known = {}
    if v.grade == p:
        deep_negative = params.deep_negative
        low = max(params.deep_positive, 1)
        deep_gaps = max(p + 1 - low, 0)
        terms = v._terms
        zero = Fraction(0)
        for key in itertools.combinations(window.elements(), p):
            if p > 1 and key[1] <= deep_negative:
                continue
            if deep_gaps - (p - bisect.bisect_left(key, low)) > 1:
                continue
            known[key] = terms.get(key, zero)
    return CoordinateAssignment._trusted(window, p, known, params)


def _block_values(m: int, known, tail, extra):
    """Rows, block keys and known values of the width-m form on extra, tail in every block."""
    getters, rows = _row_plan(len(extra), m, len(tail))
    labels = tail + extra
    keys = [key(labels) for key in getters]
    return rows, keys, [known.get(key) for key in keys]


def _form_value(m: int, known, tail, extra, settled: dict, blocked: dict):
    """The width-m form on extra, tail in every block, or None; memoized by (tail, extra)."""
    value = settled.get((tail, extra))
    if value is not None:
        return value
    blockers = blocked.get((tail, extra))
    if blockers and not any(key in known for key in blockers):
        return None
    rows, keys, values = _block_values(m, known, tail, extra)
    value = _row_sum(rows, values)
    if value is None:
        blocked[tail, extra] = [key for key, have in zip(keys, values) if have is None]
    else:
        settled[tail, extra] = value
    return value


def _forced_value(m: int, known, target, extra, settled: dict, blocked: dict):
    """x_target = -Q/D on the carrier target + extra, an int when D divides -Q.

    None when a form needs an unknown coordinate or D vanishes; settled and
    blocked are only sound while known grows without overwrites.
    """
    head, tail = target[:m], target[m:]
    denominator = _form_value(m, known, tail, extra, settled, blocked)
    if not denominator:
        return None
    keys, groups = _head_plan(m + len(extra), m, len(tail))
    labels = head + tail + extra
    values = [known.get(key(labels)) for key in keys]
    numerator = 0
    for factors, rest, sign in groups:
        factors = factors(values)
        if 0 in factors:
            continue
        remainder = _form_value(m, known, tail, rest(extra), settled, blocked)
        if None in factors:
            # each monomial needs the unknown head block unless a known zero silences it
            rows, _, seen = _block_values(m, known, tail, rest(extra))
            if remainder != 0 or _row_sum(rows, [0 if v == 0 else None for v in seen]) is None:
                return None
        elif remainder is None:
            return None
        else:
            numerator += math.prod(factors, start=sign * remainder)
    quotient, residue = divmod(-numerator, denominator)
    return Fraction(-numerator, denominator) if residue else quotient


class ReconstructionResult(NamedTuple):
    """Outcome of a full recovery pass; failure lives in `stuck`."""

    completed: Optional[Multivector]
    stuck: tuple
    attempts: int


def _diagram_order(iset):
    """(size, young_diagram, iset) for an ascending size-p window key, unchecked."""
    diagram = _diagram(iset)
    return sum(diagram), diagram, iset


def _carriers(larger, room: int):
    """The room-subsets of the ascending labels larger, shallowest first.

    Combinations of the labels in descending order come out ordered by
    their largest member, then the next largest, and so on, descending;
    each is reversed into an ascending extra.
    """
    for extra in itertools.combinations(larger[::-1], room):
        yield extra[::-1]


def reconstruct_all(
    m: int, l: int, projected: CoordinateAssignment, budget: Optional[int] = None
) -> ReconstructionResult:
    """Recover missing coordinates in one pass, in diagram order.

    Carriers for each target are tried shallowest complement first; they
    are enumerated lazily by _carriers, never sorted or stored.  A carrier
    that forces no value, for a zero denominator or missing prerequisites,
    is skipped, and a target none of whose carriers succeeds is stuck.
    budget caps the total number of single-coordinate attempts, a reused
    or blocked denominator included; the pass stops when it is spent, and
    every target not yet recovered is stuck.
    """
    plain_int("m", m)
    plain_int("l", l)
    if budget is not None:
        plain_int("budget", budget, 0)
    window = projected.window
    p = projected.grade
    if p < m:
        raise DimensionMismatch(f"window grade {p} is below the form width {m}")
    room = m * l
    labels = window.elements()
    above = {x: labels[k + 1:] for k, x in enumerate(labels)}
    # the forms are homogeneous: recover c * x_I from the table times c
    scale = math.lcm(*(value.denominator for value in projected._known.values()))
    known = {
        key: value.numerator * (scale // value.denominator)
        for key, value in projected._known.items()
    }
    targets = sorted(projected.missing(), key=_diagram_order)
    settled, blocked = {}, {}
    attempts = 0
    for tgt in targets:
        for extra in _carriers(above[tgt[-1]], room):
            if attempts == budget:
                break
            attempts += 1
            found = _forced_value(m, known, tgt, extra, settled, blocked)
            if found is not None:
                known[tgt] = found
                break
        if attempts == budget:
            break
    stuck = tuple(sorted(key for key in targets if key not in known))
    if stuck:
        return ReconstructionResult(None, stuck, attempts)
    values = {key: Fraction(value, scale) for key, value in known.items() if value}
    return ReconstructionResult(Multivector._trusted(window, p, values), (), attempts)
