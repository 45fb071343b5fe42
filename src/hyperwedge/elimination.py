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

None of that structure depends on a value, only on the shape (window, m,
l), so _plan compiles it once per shape and every pass over the shape
shares it.  A key's id is its place in the window's diagram order
(_key_order), so a pass holds its table as a list by key id, None for
unknown, and its targets are the unknown ids in order.  Every form on
extra labels, a denominator or a remainder, gets a form id; its data are
the key ids of its distinct blocks, read by _row_plan's rows.  A carrier
is compiled the first time a pass tries it, into its denominator's form
id and its head blocks' key ids, appended to its target's flat array.  A
denominator's remainder form ids, one per _head_plan group, are compiled
once, the first time it does not vanish: most carriers of a stalled point
fail on their denominator.  Signs and factor getters stay in _head_plan.
An attempt is then list indexing and multiplication, with no tuple built
or hashed.  Sharing is sound because a plan holds no value: carriers are
compiled in _carriers order and only as far as a pass has tried them, so
a cold and a warm plan give the same attempts and results.  A plan keeps
a few ints per carrier tried and per form those name: 0.2 MB over the
seven shapes of the benchmark's recover deck, 0.4 MB where stalled points
try every carrier (tracemalloc, CPython 3.11).  The last 32 shapes are
kept.

A pass reads each form once: settled keeps its value by form id, zero
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

import bisect
import itertools
import math
from _thread import allocate_lock
from array import array
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import NamedTuple, Optional

from .forms import _head_plan, _row_plan, _row_sum
from .indices import (
    DimensionMismatch,
    Frozen,
    GoodParams,
    Window,
    _diagram,
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
    empty assignment.  A size-p key always omits as many positive labels as
    it has negative members, so only the two depth counts decide: the keys
    ascend, so a second deep negative is key[1], and the positive members
    at or above the deep gap threshold form a tail of the key.
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
    """The masks of the window's good size-p keys, as good_projection judges them."""
    p = window.p
    low = max(params.deep_positive, 1)
    deep_gaps = max(p + 1 - low, 0)
    return tuple(
        _mask(window, key)
        for key in itertools.combinations(window.elements(), p)
        if not (p > 1 and key[1] <= params.deep_negative)
        and deep_gaps - (p - bisect.bisect_left(key, low)) <= 1
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


def _forced(plan, table, carriers, at: int, settled: dict, blocked: dict):
    """x_target = -Q/D on the carrier compiled at carriers[at:], an int when D divides -Q.

    None when a form needs an unknown coordinate or D vanishes; settled and
    blocked are only sound while the table grows without overwrites.
    """
    denominator = _read(plan, table, carriers[at], settled, blocked)
    if not denominator:
        return None
    values = [table[key] for key in carriers[at + 1:at + plan.width]]
    start = plan.remainders_at[carriers[at]]
    if start < 0:
        start = plan.remainders(carriers[at])
    remainders = plan.remainder_forms[start:start + plan.stride]
    numerator = 0
    for (factors, _, sign), form in zip(plan.head[1], remainders):
        factors = factors(values)
        if 0 in factors:
            continue
        remainder = settled.get(form)
        if remainder is None:
            remainder = _read(plan, table, form, settled, blocked)
        if None in factors:
            # each monomial needs the unknown head block unless a known zero silences it
            zeros = [0 if table[key] == 0 else None for key in plan.forms[form]]
            if remainder != 0 or _row_sum(plan.rows[form], zeros) is None:
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


@lru_cache(maxsize=16)
def _key_order(window: Window):
    """The window's size-p keys in diagram order; the id (place there) of each key and each mask."""
    keys = tuple(sorted(itertools.combinations(window.elements(), window.p), key=_diagram_order))
    ids = {key: i for i, key in enumerate(keys)}
    return keys, ids, {_mask(window, key): i for key, i in ids.items()}


class _Plan:
    """The compiled recovery structure of one shape (window, m, l); it holds no value.

    keys, ids and slots (the id of each key's mask) come from _key_order.
    A form on extra labels, tail in every block, is named by the mask of
    tail + extra, as its tail is the lowest len(tail) labels there; form_of
    finds its id, and forms and rows hold by id its blocks' key ids and its
    _row_plan rows.  A denominator's
    remainders, one per group of head[1], are compiled the first time it
    does not vanish: their form ids sit stride long in remainder_forms from
    remainders_at[its id] on, which is -1 before.  carriers holds, per
    target key id, the compiled carriers in _carriers order, width apart:
    each is its denominator's form id, then the key ids of its head blocks
    (head[0]).  Compiling takes the lock, so passes in several threads may
    share a plan.
    """

    __slots__ = ("window", "m", "gap", "room", "keys", "ids", "slots", "above", "head", "width",
                 "stride", "form_of", "forms", "rows", "remainders_at", "remainder_forms",
                 "carriers", "lock")

    def __init__(self, window: Window, m: int, l: int):
        self.window, self.m, self.gap, self.room = window, m, window.p - m, m * l
        self.keys, self.ids, self.slots = _key_order(window)
        labels = window.elements()
        self.above = {x: labels[k + 1:] for k, x in enumerate(labels)}
        self.head = _head_plan(m + self.room, m, self.gap)
        self.width, self.stride = 1 + len(self.head[0]), len(self.head[1])
        self.form_of, self.forms, self.rows = {}, [], []
        self.remainders_at, self.remainder_forms = array("i"), array("i")
        self.carriers = [array("i") for _ in self.keys]
        self.lock = allocate_lock()

    def form(self, tail, extra) -> int:
        """The id of the width-m form on extra, tail in every block; compiled on first use."""
        labels = tail + extra
        name = _mask(self.window, labels)
        form = self.form_of.get(name)
        if form is None:
            getters, rows = _row_plan(len(extra), self.m, len(tail))
            form = self.form_of[name] = len(self.forms)
            self.forms.append(array("i", [self.ids[get(labels)] for get in getters]))
            self.rows.append(rows)
            self.remainders_at.append(-1)
        return form

    def remainders(self, denominator: int) -> int:
        """Where the remainder form ids of a denominator start; compiled on first use."""
        with self.lock:
            if self.remainders_at[denominator] < 0:
                # each label of a form with rows is in a block; the tail is the lowest
                labels = sorted({x for key in self.forms[denominator] for x in self.keys[key]})
                tail, extra = tuple(labels[:self.gap]), tuple(labels[self.gap:])
                forms = [self.form(tail, rest(extra)) for _, rest, _ in self.head[1]]
                start = len(self.remainder_forms)
                # readers skip the lock: publish the offset after the ids
                self.remainder_forms.extend(forms)
                self.remainders_at[denominator] = start
            return self.remainders_at[denominator]

    def compile(self, target, extra) -> list:
        """The carrier target + extra: its denominator's form id, then the head blocks' key ids."""
        labels = target + extra
        heads = [self.ids[get(labels)] for get in self.head[0]]
        return [self.form(target[self.m:], extra), *heads]

    def tried(self, target: int):
        """Offsets of the target's carriers in _carriers order, each compiled on first use."""
        done, width = self.carriers[target], self.width
        at = 0
        while at < len(done):
            yield at
            at += width
        key = self.keys[target]
        untried = itertools.islice(_carriers(self.above[key[-1]], self.room), at // width, None)
        for extra in untried:
            with self.lock:
                if len(done) == at:
                    done.extend(self.compile(key, extra))
            yield at
            at += width


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
    for tgt in targets:
        carriers, tried = plan.carriers[tgt], plan.tried(tgt)
        while attempts != budget:
            at = next(tried, None)
            if at is None:
                break
            attempts += 1
            found = _forced(plan, table, carriers, at, settled, blocked)
            if found is not None:
                table[tgt] = found
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
