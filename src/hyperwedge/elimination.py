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

Both forms are read through the per-shape row plan of the forms module,
without building polynomials: one coordinate key and one lookup per
distinct block, not per row.  Each block key is spliced, not sorted: the
block's labels from the head of I, then the rest of I, then its extra
labels, which is ascending because the extras lie above I.  A full
recovery pass clears the denominators of the known values once, so its
table starts as plain ints; each recovered value joins it as a Fraction,
and every result is exact.  A carrier forces nothing, and yields None,
when a form needs a coordinate that is not known or the denominator
vanishes; the pass then tries the next one, and no failed carrier raises.

A full recovery decides each missing coordinate once, in diagram order.
One pass is enough: every denominator key is tail + (an m-block of extra
labels) and every numerator key is I with some head labels swapped for
extra labels, so each prerequisite is elementwise at least I, differs from
it, and has a strictly smaller Young diagram.  When the pass reaches I,
every prerequisite is final, either known or a target already stuck, and a
second pass could change no outcome.

Carriers are enumerated lazily, shallowest first: the combinations of the
labels above max(I), taken in descending order and each reversed, come out
ordered by their largest extra label, then the next largest, and so on.
The pass keeps every denominator that evaluated to a value, zero included,
until it returns.  Known values are never overwritten, and such a
denominator has no monomial with an unknown factor that a known zero does
not silence, so no later value can change it.
"""

import bisect
import itertools
import math
from fractions import Fraction
from types import MappingProxyType
from typing import NamedTuple, Optional

from .forms import _row_plan, _row_sum
from .indices import (
    DimensionMismatch,
    Frozen,
    GoodParams,
    Window,
    _diagram,
    key_table,
    plain_int,
)
from .multivector import (
    FormatError,
    Multivector,
    format_errors,
    read_header,
    read_terms,
)


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


def _form_on_known(m: int, known, head, tail, extra):
    """The width-m form on head + extra, tail in every block, read off known.

    Rows whose first block is the whole head hold x_(head + tail) and are
    skipped.  A known-zero factor silences its monomial even beside an
    unknown one; an unknown factor of any other monomial makes the value None.
    """
    positions, rows = _row_plan(len(head) + len(extra), m, len(head), len(tail))
    label = (head + tail + extra).__getitem__
    return _row_sum(rows, [known.get(tuple(map(label, block))) for block in positions])


def _forced_value(m: int, known, target, extra, settled: dict) -> Optional[Fraction]:
    """x_target = -Q/D on the carrier target + extra, from a partial table.

    None when a form needs an unknown coordinate or D vanishes.  settled
    keeps denominators that evaluated to a value, keyed by (tail, extra); it
    is only sound while known grows without overwrites.
    """
    head, tail = target[:m], target[m:]
    denominator = settled.get((tail, extra))
    if denominator is None:
        denominator = _form_on_known(m, known, (), tail, extra)
        if denominator is not None:
            settled[tail, extra] = denominator
    if not denominator:
        return None
    numerator = _form_on_known(m, known, head, tail, extra)
    return None if numerator is None else Fraction(-numerator) / denominator


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
    budget caps the total number of single-coordinate attempts; the pass
    stops when it is spent, and every target not yet recovered is stuck.

    The forms are read through cached per-shape row plans.  A denominator
    that evaluated to a value, zero included, is kept for the rest of the
    call and still counts an attempt when reused.
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
    settled = {}
    attempts = 0
    for tgt in targets:
        for extra in _carriers(above[tgt[-1]], room):
            if attempts == budget:
                break
            attempts += 1
            found = _forced_value(m, known, tgt, extra, settled)
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


def assignment_to_obj(assignment: CoordinateAssignment) -> dict:
    """Plain-data form: window, grade, thresholds, known terms, missing list."""
    params = assignment.params
    return {
        "window": [assignment.window.n, assignment.window.p],
        "grade": assignment.grade,
        "good_params": {"m": params.m, "l": params.l, "r": params.r, "s": params.s},
        "terms": [
            {"indices": list(key), "coeff": str(value)}
            for key, value in sorted(assignment.known.items())
        ],
        "missing": [list(key) for key in assignment.missing()],
    }


def assignment_from_obj(obj) -> CoordinateAssignment:
    """Strict inverse of assignment_to_obj; any defect raises FormatError."""
    window, grade = read_header(obj, "assignment")
    params_obj = obj.get("good_params")
    if not isinstance(params_obj, dict) or set(params_obj) != {"m", "l", "r", "s"}:
        raise FormatError(f"bad good_params {params_obj!r}")
    known = read_terms(obj)
    with format_errors():
        assignment = CoordinateAssignment(window, grade, known, GoodParams(**params_obj))
    declared = obj.get("missing")
    expected = math.comb(window.size, grade) - len(known)
    if not isinstance(declared, list) or len(declared) != expected:
        raise FormatError(f"missing list must hold the {expected} unknown coordinates")
    actual = [list(key) for key in assignment.missing()]
    if declared != actual:
        raise FormatError(f"missing list {declared!r} does not match coordinates")
    return assignment
