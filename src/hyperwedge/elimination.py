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

Both forms are evaluated straight from the cached partition rows of their
shape, without building polynomials.  Each block key is spliced, not
sorted: the block's labels from the head of I, then the rest of I, then its
extra labels, which is ascending because the extras lie above I.  A full
recovery pass clears the denominators of the known values once and reads a
plain table of ints; every result is still an exact Fraction.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Optional

from .forms import _partition_table
from .indices import (
    DimensionMismatch,
    GoodParams,
    Window,
    ascending_key,
    exact,
    index_set,
    is_good,
    plain_int,
    young_diagram,
)
from .multivector import (
    FormatError,
    Multivector,
    format_errors,
    parse_fraction,
    read_header,
)


class ReconstructionError(Exception):
    """A single-coordinate recovery that cannot proceed."""


class ZeroDenominator(ReconstructionError):
    """The carrier's denominator form vanishes on the known coordinates."""


class MissingCoordinates(ReconstructionError):
    """Prerequisite coordinates are absent from the assignment."""

    def __init__(self, coordinates):
        self.coordinates = tuple(coordinates)
        super().__init__(
            "prerequisite coordinates unknown: "
            + ", ".join(map(str, self.coordinates))
        )


class CoordinateAssignment:
    """Partially known top-grade coordinates over a window.

    known maps size-p index sets to exact rationals; every other size-p
    subset counts as missing.  params fixes the goodness thresholds the
    assignment was produced under.
    """

    __slots__ = ("window", "grade", "_known", "params")

    def __init__(self, window: Window, grade: int, known, params: GoodParams):
        if grade != window.p:
            raise DimensionMismatch(
                f"assignment grade must equal the window grade {window.p}, got {grade}"
            )
        params = GoodParams(*params)
        for name, value in zip(("m", "l", "r", "s"), params):
            plain_int(name, value)
        store = {}
        for key, value in known.items():
            iset = index_set(key, window=window)
            if len(iset) != grade:
                raise DimensionMismatch(
                    f"coordinate {iset} has size {len(iset)}, expected {grade}"
                )
            store[iset] = exact(value)
        object.__setattr__(self, "window", window)
        object.__setattr__(self, "grade", grade)
        object.__setattr__(self, "_known", store)
        object.__setattr__(self, "params", params)

    def __setattr__(self, name, value):
        raise AttributeError("CoordinateAssignment is immutable")

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
        return (
            f"CoordinateAssignment({self.window}, known={len(self._known)},"
            f" missing={len(self.missing())})"
        )


def good_projection(v: Multivector, params: GoodParams) -> CoordinateAssignment:
    """Keep exactly the good size-p coordinates of v, zeros included.

    Inputs of grade other than the window grade have no good coordinates
    at all (the co-finite extension is unbalanced), so they project to the
    empty assignment.
    """
    window = v.window
    known = {}
    if v.grade == window.p:
        positives = tuple(range(1, window.p + 1))
        for key in itertools.combinations(window.elements(), window.p):
            negatives = [i for i in key if i < 0]
            absent = [j for j in positives if j not in key]
            if is_good(negatives, absent, params):
                known[key] = v.coeff(key)
    return CoordinateAssignment(window, window.p, known, params)


def _form_on_known(m: int, degree: int, known, head, tail, extra):
    """The width-m form on head + extra, tail in every block, read off known.

    Rows whose first block is the whole head hold x_(head + tail) and are
    skipped.  A known-zero factor silences its monomial even beside an
    unknown one; unknown factors of the other monomials are reported together.
    """
    if m % 2 and degree >= 2:  # the symmetrized sum cancels, as in forms
        return 0
    members = head + extra
    split = len(head)
    skip = tuple(range(1, split + 1))
    keys = {}
    total = 0
    needed = set()
    for blocks, sign in _partition_table(len(members), m):
        if blocks[0] == skip:
            continue
        value = sign
        unknown = False
        for block in blocks:
            key = keys.get(block)
            if key is None:
                labels = tuple(members[q - 1] for q in block)
                cut = sum(q <= split for q in block)
                key = keys[block] = labels[:cut] + tail + labels[cut:]
            have = known.get(key)
            if have is None:
                unknown = True
            elif not have:
                break
            else:
                value *= have
        else:
            if unknown:
                needed.update(k for k in map(keys.get, blocks) if k not in known)
            else:
                total += value
    if needed:
        raise MissingCoordinates(sorted(needed))
    return total


def _forced_value(m: int, l: int, known, target, extra) -> Fraction:
    """x_target = -Q/D on the carrier target + extra, from a partial table."""
    head, tail = target[:m], target[m:]
    denominator = _form_on_known(m, l, known, (), tail, extra)
    if not denominator:
        raise ZeroDenominator(
            f"denominator form on {extra} vanishes at the known coordinates"
        )
    numerator = _form_on_known(m, l + 1, known, head, tail, extra)
    return Fraction(-numerator) / denominator


def reconstruct_coordinate(
    m: int, l: int, assignment: CoordinateAssignment, target, carrier
) -> Fraction:
    """Value of x_target forced by the vanishing of the carrier form.

    The carrier must contain the target as its initial subinterval and
    exactly m*l further indices.  Raises ZeroDenominator when the degree-l
    form on those extra indices vanishes, MissingCoordinates when needed
    coordinates are absent.
    """
    plain_int("m", m)
    plain_int("l", l)
    window = assignment.window
    p = assignment.grade
    if p < m:
        raise DimensionMismatch(f"window grade {p} is below the form width {m}")
    tgt = index_set(target, window=window)
    if len(tgt) != p:
        raise DimensionMismatch(f"target has size {len(tgt)}, expected {p}")
    car = index_set(carrier, window=window)
    if len(car) != p + m * l:
        raise DimensionMismatch(
            f"carrier needs {p + m * l} indices, got {len(car)}"
        )
    if car[:p] != tgt:
        raise ValueError("target must be the initial subinterval of the carrier")
    return _forced_value(m, l, assignment._known, tgt, car[p:])


@dataclass(frozen=True)
class ReconstructionResult:
    """Outcome of a full recovery pass; failure lives in `stuck`."""

    completed: Optional[Multivector]
    stuck: tuple
    attempts: int


def _order_key(window):
    def key(iset):
        diagram = young_diagram(iset, window)
        return (sum(diagram), diagram, iset)

    return key


def _int_if_integral(value: Fraction):
    """Integral values as int, which multiplies far faster than Fraction."""
    return value.numerator if value.denominator == 1 else value


def _shallow_first(extra):
    return tuple(sorted(-x for x in extra))


def reconstruct_all(
    m: int, l: int, projected: CoordinateAssignment, budget: Optional[int] = None
) -> ReconstructionResult:
    """Recover missing coordinates in diagram order until done or stuck.

    Carriers for each target are tried shallowest complement first; a
    carrier that fails with a zero denominator or missing prerequisites is
    skipped.  Passes repeat while progress happens, so coordinates whose
    prerequisites arrived late get another chance.  budget caps the total
    number of single-coordinate attempts.
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
    # the forms are homogeneous: recover c * x_I from the table times c
    scale = math.lcm(*(value.denominator for value in projected._known.values()))
    known = {
        key: _int_if_integral(value * scale) for key, value in projected._known.items()
    }
    pending = sorted(projected.missing(), key=_order_key(window))
    carriers = {}
    attempts = 0
    exhausted = False
    progress = True
    while pending and progress and not exhausted:
        progress = False
        for tgt in list(pending):
            top = tgt[-1]
            if top not in carriers:
                larger = [x for x in window.elements() if x > top]
                carriers[top] = sorted(
                    itertools.combinations(larger, room), key=_shallow_first
                )
            found = None
            for extra in carriers[top]:
                if budget is not None and attempts >= budget:
                    exhausted = True
                    break
                attempts += 1
                try:
                    found = _forced_value(m, l, known, tgt, extra)
                except ReconstructionError:
                    continue
                break
            if found is not None:
                known[tgt] = _int_if_integral(found)
                pending.remove(tgt)
                progress = True
            if exhausted:
                break
    if pending:
        return ReconstructionResult(None, tuple(sorted(pending)), attempts)
    values = {key: Fraction(value) / scale for key, value in known.items() if value}
    return ReconstructionResult(Multivector(window, p, values), (), attempts)


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
    terms = obj.get("terms")
    if not isinstance(terms, list):
        raise FormatError("terms must be a list")
    known = {}
    with format_errors():
        for entry in terms:
            if not isinstance(entry, dict):
                raise FormatError("each term must be an object")
            indices = entry.get("indices")
            if not isinstance(indices, list):
                raise FormatError(f"bad indices {indices!r}")
            key = ascending_key(indices)
            if key in known:
                raise FormatError(f"duplicate coordinate {key}")
            known[key] = parse_fraction(entry.get("coeff"))
        assignment = CoordinateAssignment(window, grade, known, GoodParams(**params_obj))
    declared = obj.get("missing")
    expected = math.comb(window.size, grade) - len(known)
    if not isinstance(declared, list) or len(declared) != expected:
        raise FormatError(f"missing list must hold the {expected} unknown coordinates")
    actual = [list(key) for key in assignment.missing()]
    if declared != actual:
        raise FormatError(f"missing list {declared!r} does not match coordinates")
    return assignment
