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

Q is read by the pivot expansion of the forms module along the target's
lowest label (Knuth, "Overlapping Pfaffians"): Q = sum of sign * x_(B+tail)
* G_B over the m-blocks B of head + extra through that label, the head (the
first m labels of I) excepted, with G_B the degree-l form on the labels B
leaves, the tail (the rest of I) in every block: a form of D's kind.  A
known-zero factor silences its monomial even beside an unknown one, so an
unknown block blocks its term only if a row of G_B has no known zero; a
carrier whose forms need an unknown forces nothing (None).  At odd m the
carrier form has no rows, and Q = 0.

None of that structure depends on a value, only on the shape (window, m,
l), so _plan compiles it once per shape and every pass over the shape
shares it.  A key's id is its place in the window's diagram order
(_key_order), so a pass holds its table as a list by key id, None for
unknown, and its targets are the unknown ids in order.  Every form, a
denominator or a G_B, gets a form id; its data are the key ids of its
distinct blocks, read by _row_plan's rows.  A carrier is compiled the first
time a pass tries it, into the record [denominator's form id, expansion].
Its expansion, a (sign, key id, form id) tuple per term of the shape's one
_pivot_plan template, is None until the first time its denominator does not
vanish: most carriers of a stalled point fail on their denominator.  An
attempt is then list indexing and multiplication, with no key built or
hashed.  Sharing is sound because a plan holds no value: carriers are
compiled in _carriers order and only as far as a pass has tried them, so a
cold and a warm plan give the same attempts and results.  A plan keeps a
short list per carrier tried and a tuple per expansion and per form those
name: after two passes, 0.24 MB over the seven shapes of the benchmark's
recover deck at seed 1, 0.53 MB at seed 11 and 0.78 MB over the decks of
seeds 1-10 (tracemalloc, CPython 3.11).  The last 32 shapes are kept.

A pass reads each form once, so carriers that share a G_B or a
denominator share its reading: settled keeps its value by form id, zero
included.  That is sound because known values are never overwritten: an
evaluated form has no monomial with an unknown factor that a known zero
does not silence, so no later value changes it.  A form that needed
unknown keys keeps their ids in blocked and fails again at once, still
counting an attempt, while none of them is known.  An assignment stores
its values as a Multivector does, ints over one denominator, and the
forms are homogeneous, so the pass loads those ints as they are and
recovers each value times that denominator; a quotient that divides
exactly stays an int, and the completed table goes back over the
denominator, reduced.

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

import itertools
import math
from _thread import allocate_lock
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import NamedTuple, Optional

from .forms import _getter, _pivot_plan, _row_plan, _row_sum, _splice
from .indices import (
    DimensionMismatch,
    Frozen,
    GoodParams,
    Window,
    _diagram,
    is_good,
    plain_int,
)
from .multivector import Multivector, _decode, _encode, _mask, _reduced


class CoordinateAssignment(Frozen):
    """Partially known top-grade coordinates over a window.

    known maps size-p window keys, strictly ascending and never sorted, to
    exact rationals, as a mapping or pairs; every other size-p subset counts
    as missing.  params fixes the goodness thresholds the assignment was
    produced under.  The known values are stored as a Multivector's terms
    are, a canonical {mask: int} table over one denominator, known zeros
    kept; _trusted(window, grade, table, den, params) adopts such a pair
    unchecked.
    """

    __slots__ = ("window", "grade", "_table", "_den", "params")

    def __init__(self, window: Window, grade: int, known, params: GoodParams):
        if grade != window.p:
            raise DimensionMismatch(
                f"assignment grade must equal the window grade {window.p}, got {grade}"
            )
        params = GoodParams(*params)
        self._fill(window, grade, *_encode(window, grade, known), params)

    @property
    def known(self):
        """The known values, zeros included, in lexicographic key order."""
        return MappingProxyType(_decode(self.window, self._table, self._den))

    def missing(self) -> tuple:
        labels = self.window.elements()
        return tuple(
            key
            for key in itertools.combinations(labels, self.grade)
            if _mask(self.window, key) not in self._table
        )

    def __repr__(self):
        missing = math.comb(self.window.size, self.grade) - len(self._table)
        return (
            f"CoordinateAssignment({self.window}, known={len(self._table)},"
            f" missing={missing})"
        )


def good_projection(v: Multivector, params: GoodParams) -> CoordinateAssignment:
    """Keep exactly the good size-p coordinates of v, zeros included.

    Inputs of grade other than the window grade have no good coordinates
    at all (the co-finite extension is unbalanced), so they project to the
    empty assignment.
    """
    params = GoodParams(*params)
    window = v.window
    known, den = {}, 1
    if v.grade == window.p:
        table = v._table
        known = {mask: table.get(mask, 0) for mask in _good_masks(window, params)}
        known, den = _reduced(known, v._den)
    return CoordinateAssignment._trusted(window, window.p, known, den, params)


@lru_cache(maxsize=32)
def _good_masks(window: Window, params: GoodParams) -> tuple:
    """The masks of the window's good size-p keys, each judged by is_good."""
    positives = range(1, window.p + 1)
    return tuple(
        _mask(window, key)
        for key in itertools.combinations(window.elements(), window.p)
        if is_good([i for i in key if i < 0], [j for j in positives if j not in key], params)
    )


def _read(plan, table, form: int, settled: dict, blocked: dict):
    """The value of a form of the plan on the table, or None; memoized by form id."""
    value = settled.get(form)
    if value is not None:
        return value
    blockers = blocked.get(form)
    if blockers and not any(table[key] is not None for key in blockers):
        return None
    keys = plan.forms[form]
    values = [table[key] for key in keys]
    value = _row_sum(plan.rows[form], values)
    if value is None:
        blocked[form] = [key for key, have in zip(keys, values) if have is None]
    else:
        settled[form] = value
    return value


def _forced(plan, table, target: int, carrier: list, settled: dict, blocked: dict):
    """x_target = -Q/D on the target's compiled carrier, an int when D divides -Q.

    None when a form needs an unknown coordinate or D vanishes; settled and
    blocked are only sound while the table grows without overwrites.
    """
    denominator = _read(plan, table, carrier[0], settled, blocked)
    if not denominator:
        return None
    expansion = carrier[1]
    if expansion is None:
        expansion = plan.expand(target, carrier)
    numerator = 0
    for sign, key, form in expansion:
        factor = table[key]
        if factor == 0:
            continue
        cofactor = settled.get(form)
        if cofactor is None:
            cofactor = _read(plan, table, form, settled, blocked)
        if factor is None:
            # each monomial needs the unknown block unless a known zero silences it
            zeros = [0 if table[k] == 0 else None for k in plan.forms[form]]
            if cofactor != 0 or _row_sum(plan.rows[form], zeros) is None:
                return None
        elif cofactor is None:
            return None
        else:
            numerator += sign * factor * cofactor
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


@lru_cache(maxsize=16)
def _key_order(window: Window):
    """The window's size-p keys in diagram order, and the id (place there) of each key's mask."""
    keys = tuple(sorted(itertools.combinations(window.elements(), window.p), key=_diagram_order))
    return keys, {_mask(window, key): i for i, key in enumerate(keys)}


class _Plan:
    """The compiled recovery structure of one shape (window, m, l); it holds no value.

    keys and slots (the id of each key's mask) come from _key_order.  A
    form is named by the masks of its members and of its tail, which joins
    every block; form_of finds its id, and forms and rows hold by id its
    blocks' key ids, a tuple, and its _row_plan rows.  carriers holds, per
    target key id, the compiled carriers in _carriers order: each is the
    list [denominator's form id, expansion], the expansion None until the
    denominator first does not vanish.  An expansion is a (sign, block key
    id, sub-form id) tuple per term of pivot, built whole and then stored in
    one assignment, so a pass reading without the lock sees None or all of
    it.  Compiling takes the lock, so passes in several threads may share a
    plan.
    """

    __slots__ = ("window", "m", "gap", "room", "keys", "slots", "above", "pivot",
                 "form_of", "forms", "rows", "carriers", "lock")

    def __init__(self, window: Window, m: int, l: int):
        self.window, self.m, self.gap, self.room = window, m, window.p - m, m * l
        self.keys, self.slots = _key_order(window)
        labels = window.elements()
        self.above = {x: labels[k + 1:] for k, x in enumerate(labels)}
        # the carrier form along the target's lowest label, less the x_I * D term
        self.pivot = [(sign, _splice(block, m, self.gap), _getter([q - 1 for q in rest]))
                      for block, rest, sign in _pivot_plan(m + self.room, m, 1)[1:]]
        self.form_of, self.forms, self.rows = {}, [], []
        self.carriers = [[] for _ in self.keys]
        self.lock = allocate_lock()

    def form(self, tail, members) -> int:
        """The id of the width-m form on members, tail in every block; compiled on first use."""
        window, slots = self.window, self.slots
        name = _mask(window, members) << window.size | _mask(window, tail)
        form = self.form_of.get(name)
        if form is None:
            getters, rows = _row_plan(len(members), self.m, len(tail))
            labels = tail + members
            form = self.form_of[name] = len(self.forms)
            self.forms.append(tuple(slots[_mask(window, get(labels))] for get in getters))
            self.rows.append(rows)
        return form

    def expand(self, target: int, carrier: list) -> tuple:
        """The expansion of the target's carrier; compiled on first use."""
        with self.lock:
            if carrier[1] is None:
                key = self.keys[target]
                head, tail = key[:self.m], key[self.m:]
                # each label of a denominator that does not vanish is in a block
                blocks = self.forms[carrier[0]]
                extra = tuple(sorted({x for k in blocks for x in self.keys[k]}.difference(tail)))
                spliced, members = head + tail + extra, head + extra
                window, slots = self.window, self.slots
                carrier[1] = tuple(
                    (sign, slots[_mask(window, block(spliced))], self.form(tail, rest(members)))
                    for sign, block, rest in self.pivot
                )
            return carrier[1]

    def tried(self, target: int):
        """The target's carriers in _carriers order, each compiled on first use."""
        done, at = self.carriers[target], 0
        while at < len(done):
            yield done[at]
            at += 1
        key = self.keys[target]
        for extra in itertools.islice(_carriers(self.above[key[-1]], self.room), at, None):
            with self.lock:
                if len(done) == at:
                    done.append([self.form(key[self.m:], extra), None])
            yield done[at]
            at += 1


@lru_cache(maxsize=32)
def _plan(window: Window, m: int, l: int) -> _Plan:
    return _Plan(window, m, l)


def reconstruct_all(
    m: int, l: int, projected: CoordinateAssignment, budget: Optional[int] = None
) -> ReconstructionResult:
    """Recover missing coordinates in one pass, in diagram order.

    Carriers for each target are tried shallowest complement first; they
    are enumerated lazily by _carriers and compiled into the shape's plan
    the first time a pass tries them.  A carrier that forces no value, for
    a zero denominator or missing prerequisites, is skipped, and a target
    none of whose carriers succeeds is stuck.  budget caps the total number
    of single-coordinate attempts, a reused or blocked denominator
    included; the pass stops when it is spent, and every target not yet
    recovered is stuck.
    """
    plain_int("m", m)
    plain_int("l", l)
    if budget is not None:
        plain_int("budget", budget, 0)
    window = projected.window
    p = projected.grade
    if p < m:
        raise DimensionMismatch(f"window grade {p} is below the form width {m}")
    plan = _plan(window, m, l)
    # the forms are homogeneous: recover den * x_I from the numerators over den
    table = [None] * len(plan.keys)
    for mask, value in projected._table.items():
        table[plan.slots[mask]] = value
    targets = [t for t, value in enumerate(table) if value is None]
    settled, blocked = {}, {}
    attempts = 0
    for target in targets:
        tried = plan.tried(target)
        while attempts != budget:
            carrier = next(tried, None)
            if carrier is None:
                break
            attempts += 1
            found = _forced(plan, table, target, carrier, settled, blocked)
            if found is not None:
                table[target] = found
                break
        if attempts == budget:
            break
    stuck = tuple(sorted(plan.keys[t] for t in targets if table[t] is None))
    if stuck:
        return ReconstructionResult(None, stuck, attempts)
    # a quotient that did not divide exactly is a Fraction: widen den to hold it
    wide = math.lcm(*(value.denominator for value in table))
    values = {mask: value.numerator * (wide // value.denominator)
              for mask, value in zip(plan.slots, table) if value}
    completed = Multivector._trusted(window, p, *_reduced(values, projected._den * wide))
    return ReconstructionResult(completed, (), attempts)
