"""Good-coordinate projection and rational recovery of the dropped ones."""
import math
import random
import sys
from array import array
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from itertools import combinations

import hyperwedge.elimination as elimination

import pytest

from hyperwedge.elimination import CoordinateAssignment, good_projection, reconstruct_all
from hyperwedge.forms import FormSpec, _partition_table, hpf_polynomial
from hyperwedge.indices import (
    DimensionMismatch,
    GoodParams,
    Window,
    is_good,
    young_diagram,
)
from hyperwedge.varieties import in_pf
from hyperwedge.multivector import Multivector, wedge
from hyperwedge.polynomials import (
    WedgePolynomial,
    poly_add,
    poly_equal,
    poly_mul,
)

from conftest import random_decomposable, random_vector

PAIR = GoodParams(2, 2, 2, 2)


def rank_sample(rng, window, pairs):
    v = Multivector.zero(window, 2)
    for _ in range(pairs):
        v = v + wedge(random_vector(rng, window, bound=5), random_vector(rng, window, bound=5))
    return v


def full_assignment(v, params):
    known = {key: v.coeff(key) for key in combinations(v.window.elements(), v.window.p)}
    return CoordinateAssignment(v.window, v.window.p, known, params)


# ------------------------------------------------------------- projection

def test_projection_keeps_good_pairs_with_explicit_zeros():
    w = Window(4, 2)
    v = (
        Multivector.basis(w, (-4, -3), 7)
        + Multivector.basis(w, (-2, -1), 3)
        + Multivector.basis(w, (1, 2), 2)
    )
    projected = good_projection(v, PAIR)
    assert projected.window == w
    assert projected.grade == 2
    assert projected.params == PAIR
    known = projected.known
    assert (-4, -3) not in known
    assert known[(-2, -1)] == 3
    assert known[(1, 2)] == 2
    assert known[(-1, 1)] == 0
    assert len(known) == 14
    assert projected.missing() == (((-4, -3)),)


def test_projection_judges_both_depth_thresholds():
    # two deep negatives disqualify; a single deep index on either side is fine
    w = Window(6, 2)
    v = Multivector.zero(w, 2)
    projected = good_projection(v, GoodParams(2, 3, 2, 2))
    assert projected.missing() == ((-6, -5),)
    wide = good_projection(v, PAIR)
    deep = {key for key in combinations(w.elements(), 2) if key[1] <= -3}
    assert set(wide.missing()) == deep


def test_projection_of_off_grade_input_is_empty():
    w = Window(2, 2)
    v = Multivector.basis(w, (1,))
    projected = good_projection(v, PAIR)
    assert projected.known == {}
    assert len(projected.missing()) == 6


def test_assignments_compare_by_value_and_never_hash():
    w = Window(4, 2)
    v = Multivector.basis(w, (-2, -1), 3) + Multivector.basis(w, (1, 2), 2)
    projected = good_projection(v, PAIR)
    assert good_projection(v, PAIR) == projected
    assert good_projection(v, GoodParams(2, 3, 2, 2)) != projected
    changed = {**projected.known, (1, 2): Fraction(5)}
    assert CoordinateAssignment(w, 2, changed, PAIR) != projected
    assert CoordinateAssignment(w, 2, dict(projected.known), PAIR) == projected
    with pytest.raises(TypeError):
        hash(projected)


# --------------------------------------------------- the splitting identity

def test_carrier_polynomial_splits_off_the_target():
    target = (-4, -3)
    rest = (-2, -1, 1, 2)
    whole = hpf_polynomial(FormSpec(2, 3, target + rest))
    denominator = hpf_polynomial(FormSpec(2, 2, rest))
    quotient_part = poly_mul(WedgePolynomial.variable(target), denominator)
    remainder = WedgePolynomial(
        2, {mono: c for mono, c in whole.terms.items() if target not in mono}
    )
    assert poly_equal(whole, poly_add(quotient_part, remainder))


def test_carrier_polynomial_splits_with_a_tail():
    target = (-3, -2, -1)
    members = (-3, -2, 1, 2, 3, 4)
    whole = hpf_polynomial(FormSpec(2, 3, members, (-1,)))
    denominator = hpf_polynomial(FormSpec(2, 2, (1, 2, 3, 4), (-1,)))
    quotient_part = poly_mul(WedgePolynomial.variable(target), denominator)
    remainder = WedgePolynomial(
        3, {mono: c for mono, c in whole.terms.items() if target not in mono}
    )
    assert poly_equal(whole, poly_add(quotient_part, remainder))


# ------------------------------------------------------- single coordinate

def compiled_carrier(m, l, window, known, target, extra):
    """The shape's plan, the known values as its table, and the carrier target + extra compiled.

    A compiled carrier is its denominator's form id, then the key ids of
    its head blocks.
    """
    plan = elimination._plan(window, m, l)
    table = [known.get(key) for key in plan.keys]
    return plan, table, plan.compile(target, extra)


def forced(m, l, assignment, target, carrier):
    """x_target forced by the carrier target + extra, as the recovery pass reads it.

    None means the carrier forces nothing.
    """
    assert len(carrier) == len(target) + m * l
    extra = carrier[len(target):]
    plan, table, compiled = compiled_carrier(m, l, assignment.window, assignment.known, target, extra)
    return elimination._forced(plan, table, compiled, 0, {}, {})


def test_reconstruct_matches_true_coefficient_across_carriers():
    rng = random.Random(61)
    w = Window(6, 2)
    target = (-6, -5)
    pool = tuple(x for x in w.elements() if x > -5)
    for _ in range(5):
        v = rank_sample(rng, w, 2)
        assignment = full_assignment(v, PAIR)
        agreeing = 0
        for extra in combinations(pool, 4):
            value = forced(2, 2, assignment, target, target + extra)
            if value is None:
                continue
            assert value == v.coeff(target)
            agreeing += 1
        assert agreeing >= 2


def test_reconstruct_signals_zero_denominator_on_decomposables():
    rng = random.Random(62)
    w = Window(4, 2)
    v = rank_sample(rng, w, 1)
    extra = (-2, -1, 1, 2)
    plan, table, carrier = compiled_carrier(2, 2, w, full_assignment(v, PAIR).known, (-4, -3), extra)
    # the denominator's form id names the form on the extra labels
    denominator = carrier[0]
    assert sorted(plan.keys[k] for k in plan.forms[denominator]) == list(combinations(extra, 2))
    settled = {}
    assert elimination._forced(plan, table, carrier, 0, settled, {}) is None
    # a zero denominator is kept, which tells it apart from missing coordinates
    assert settled == {denominator: 0}


def test_reconstruct_reports_missing_prerequisites():
    w = Window(4, 2)
    plan, table, carrier = compiled_carrier(2, 2, w, {}, (-4, -3), (-2, -1, 1, 2))
    settled, blocked = {}, {}
    assert elimination._forced(plan, table, carrier, 0, settled, blocked) is None
    assert settled == {}
    assert list(blocked) == [carrier[0]]


def test_known_zero_factors_silence_their_monomials():
    # a missing cofactor does not matter when the monomial already has a zero
    w = Window(4, 2)
    keys = list(combinations(w.elements(), 2))
    known = {key: Fraction(0) for key in keys if key not in ((-4, -3), (-2, -1))}
    known[(-2, 1)] = Fraction(1)
    known[(-1, 2)] = Fraction(1)
    assignment = CoordinateAssignment(w, 2, known, PAIR)
    value = forced(2, 2, assignment, (-4, -3), tuple(w.elements()))
    assert value == 0


# ---------------------------------------------- slow-route oracle for carriers
# The oracles name why a carrier fails; the library only returns None.

class ReconstructionError(Exception):
    pass


class ZeroDenominator(ReconstructionError):
    pass


class MissingCoordinates(ReconstructionError):
    pass


def eval_on_known(poly, known, skip):
    """Term-by-term evaluation of a form polynomial over a partial table."""
    total = Fraction(0)
    needed = set()
    for mono, coeff in poly.terms.items():
        if skip in mono:
            continue
        if any(known.get(f) == 0 for f in mono):
            continue
        unknown = [f for f in mono if f not in known]
        if unknown:
            needed.update(unknown)
            continue
        value = coeff
        for f in mono:
            value *= known[f]
        total += value
    if needed:
        raise MissingCoordinates(sorted(needed))
    return total


def slow_reconstruct(m, l, known, target, carrier):
    """The carrier value -Q/D with both forms built as polynomials."""
    p = len(target)
    head, tail, extra = target[:m], target[m:], carrier[p:]
    denominator = eval_on_known(hpf_polynomial(FormSpec(m, l, extra, tail)), known, None)
    if denominator == 0:
        raise ZeroDenominator(extra)
    numerator = eval_on_known(
        hpf_polynomial(FormSpec(m, l + 1, head + extra, tail)), known, target
    )
    return -numerator / denominator


def outcome(route, *args):
    try:
        return "value", route(*args)
    except ReconstructionError as exc:
        return type(exc), None


def pq_vector(rng, window):
    v = random_vector(rng, window, bound=5)
    return Multivector(window, 1, {k: c / rng.randint(2, 7) for k, c in v.terms.items()})


def two_form_point(rng, window, pairs, pq):
    if not pq:
        return rank_sample(rng, window, pairs)
    v = Multivector.zero(window, 2)
    for _ in range(pairs):
        v = v + wedge(pq_vector(rng, window), pq_vector(rng, window))
    return v


def three_form_point(rng, window, pairs, pq):
    v = Multivector.zero(window, 3)
    for _ in range(pairs):
        v = v + random_decomposable(rng, window, 3, bound=5) * (
            Fraction(rng.randint(1, 9), rng.randint(2, 9)) if pq else 1
        )
    return v


@pytest.mark.parametrize(
    "seed, window, m, l, pairs, pq",
    [
        (81, Window(6, 2), 2, 2, 2, False),
        (82, Window(6, 2), 2, 3, 3, False),
        (83, Window(8, 2), 2, 2, 2, False),
        (84, Window(8, 2), 2, 3, 3, False),
        (85, Window(6, 2), 2, 3, 3, True),
        (86, Window(8, 2), 2, 2, 2, True),
        (87, Window(6, 3), 2, 2, 2, False),
        (88, Window(6, 3), 2, 2, 2, True),
        (89, Window(6, 3), 3, 1, 2, False),
    ],
)
def test_carrier_values_match_the_polynomial_route(seed, window, m, l, pairs, pq):
    # every carrier of every missing coordinate and of the two lowest known
    # ones, over the projection and over the full table with three entries
    # dropped and two zeroed
    rng = random.Random(seed)
    build = two_form_point if window.p == 2 else three_form_point
    kinds = set()
    for _ in range(2):
        v = build(rng, window, pairs, pq)
        projected = dict(good_projection(v, GoodParams(m, l, 2, 2)).known)
        perturbed = dict(full_assignment(v, PAIR).known)
        for key in rng.sample(sorted(perturbed), 3):
            del perturbed[key]
        for key in rng.sample(sorted(perturbed), 2):
            perturbed[key] = Fraction(0)
        for known in (projected, perturbed):
            assignment = CoordinateAssignment(window, window.p, known, PAIR)
            targets = list(assignment.missing()) + sorted(known)[:2]
            for target in targets:
                larger = [x for x in window.elements() if x > target[-1]]
                for extra in combinations(larger, m * l):
                    carrier = target + extra
                    fast = forced(m, l, assignment, target, carrier)
                    kind, slow = outcome(slow_reconstruct, m, l, known, target, carrier)
                    assert fast == (slow if kind == "value" else None), (target, carrier)
                    # an integral quotient comes back as an int, any other as a Fraction
                    if fast is not None:
                        assert type(fast) is (int if slow.denominator == 1 else Fraction)
                    kinds.add(kind)
    assert "value" in kinds


# ---------------------------------------------------------- reconstruction

@pytest.mark.parametrize("n", [4, 5, 6])
def test_round_trip_rank_two(n):
    rng = random.Random(63 + n)
    w = Window(n, 2)
    recovered = 0
    for _ in range(20):
        v = rank_sample(rng, w, 2)
        projected = good_projection(v, PAIR)
        assert projected.missing()
        result = reconstruct_all(2, 2, projected)
        assert result.completed == v
        assert result.stuck == ()
        recovered += 1
    assert recovered == 20


def test_round_trip_rank_three():
    rng = random.Random(67)
    w = Window(6, 2)
    params = GoodParams(2, 3, 2, 2)
    for _ in range(20):
        v = rank_sample(rng, w, 3)
        projected = good_projection(v, params)
        assert projected.missing() == ((-6, -5),)
        result = reconstruct_all(2, 3, projected)
        assert result.completed == v


def test_round_trip_with_fraction_coefficients():
    # denominators are cleared internally; results and attempts match the
    # integral multiple of the same point
    rng = random.Random(74)
    for window, pairs in ((Window(6, 2), 2), (Window(8, 2), 3)):
        params = GoodParams(2, pairs, 2, 2)
        v = two_form_point(rng, window, pairs, True)
        assert any(c.denominator > 1 for c in v.terms.values())
        result = reconstruct_all(2, pairs, good_projection(v, params))
        assert result.completed == v
        scale = math.lcm(*(c.denominator for c in v.terms.values()))
        integral = reconstruct_all(2, pairs, good_projection(v * scale, params))
        assert integral.completed == v * scale
        assert integral.attempts == result.attempts


def test_reconstruct_all_is_identity_on_complete_assignments():
    rng = random.Random(68)
    w = Window(4, 2)
    v = rank_sample(rng, w, 2)
    result = reconstruct_all(2, 2, full_assignment(v, PAIR))
    assert result.completed == v
    assert result.attempts == 0
    zero = reconstruct_all(2, 2, full_assignment(Multivector.zero(w, 2), PAIR))
    assert zero.completed == Multivector.zero(w, 2)


def test_stuck_coordinates_are_reported_not_raised():
    rng = random.Random(69)
    w = Window(4, 2)
    v = rank_sample(rng, w, 1)
    projected = good_projection(v, PAIR)
    result = reconstruct_all(2, 2, projected)
    assert result.completed is None
    assert result.stuck == ((-4, -3),)
    assert result.attempts >= 1


def test_budget_caps_attempts():
    rng = random.Random(70)
    w = Window(6, 2)
    v = rank_sample(rng, w, 1)
    projected = good_projection(v, PAIR)
    result = reconstruct_all(2, 2, projected, budget=2)
    assert result.attempts == 2
    assert result.completed is None
    assert set(result.stuck) == set(projected.missing())


@pytest.mark.parametrize("budget", [True, False, -1, 1.0, "3"])
def test_budget_must_be_a_plain_nonnegative_int(budget):
    projected = good_projection(rank_sample(random.Random(70), Window(6, 2), 1), PAIR)
    with pytest.raises(ValueError):
        reconstruct_all(2, 2, projected, budget=budget)


def test_form_wider_than_the_grade_is_rejected_up_front():
    complete = full_assignment(Multivector.zero(Window(4, 2), 2), PAIR)
    with pytest.raises(DimensionMismatch):
        reconstruct_all(4, 1, complete)


# Golden outcomes, read off the polynomial-route implementation: they pin the
# diagram order of targets, the shallow-first order of carriers and the
# budget accounting.
def test_golden_rank_two_completion():
    v = rank_sample(random.Random(71), Window(8, 2), 2)
    projected = good_projection(v, PAIR)
    result = reconstruct_all(2, 2, projected)
    assert (result.completed, result.stuck, result.attempts) == (v, (), 15)
    capped = reconstruct_all(2, 2, projected, budget=7)
    assert capped.completed is None
    assert capped.attempts == 7
    assert capped.stuck == (
        (-8, -7), (-8, -6), (-8, -5), (-8, -4), (-7, -6), (-7, -5), (-7, -4), (-6, -5)
    )


def test_golden_rank_three_completion():
    v = rank_sample(random.Random(72), Window(8, 2), 3)
    result = reconstruct_all(2, 3, good_projection(v, GoodParams(2, 3, 2, 2)))
    assert (result.completed, result.stuck, result.attempts) == (v, (), 6)


def test_golden_stuck_sum_of_two_trivectors():
    rng = random.Random(73)
    w = Window(6, 3)
    v = random_decomposable(rng, w, 3, bound=5) + random_decomposable(rng, w, 3, bound=5)
    projected = good_projection(v, PAIR)
    result = reconstruct_all(2, 2, projected)
    assert result.completed is None
    assert len(result.stuck) == 47
    assert result.stuck == tuple(sorted(projected.missing()))
    assert result.attempts == 36


# ------------------------------------------------- whole-pass route oracle
# The recovery pass as it was before carriers became lazy and the pass ran
# once: every key judged by is_good and ordered by young_diagram, every
# carrier list sorted, every form read row by row with per-row keys, every
# denominator evaluated anew, the pass repeated while it recovers something,
# and the result re-validated by the public constructors.

def oracle_projection(v, params):
    window = v.window
    known = {}
    if v.grade == window.p:
        positives = tuple(range(1, window.p + 1))
        for key in combinations(window.elements(), window.p):
            negatives = [i for i in key if i < 0]
            absent = [j for j in positives if j not in key]
            if is_good(negatives, absent, params):
                known[key] = v.coeff(key)
    return CoordinateAssignment(window, window.p, known, params)


def oracle_form_on_known(m, degree, known, head, tail, extra):
    if m % 2 and degree >= 2:
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


def oracle_forced_value(m, l, known, target, extra):
    head, tail = target[:m], target[m:]
    denominator = oracle_form_on_known(m, l, known, (), tail, extra)
    if not denominator:
        raise ZeroDenominator(extra)
    numerator = oracle_form_on_known(m, l + 1, known, head, tail, extra)
    return Fraction(-numerator) / denominator


class PositiveTable:
    """A partial table over the labels 1..length, as a plan of the shape (m, l) reads it.

    The labels are renamed in order into the window (length - p, p), whose
    size-p keys the plan numbers; a renaming that keeps the order keeps
    every sign.  The memos outlive carriers, as in a pass.
    """

    def __init__(self, m, l, p, length, known):
        window = Window(length - p, p)
        self.name = dict(zip(range(1, length + 1), window.elements()))
        self.plan = elimination._plan(window, m, l)
        self.table = [None] * len(self.plan.keys)
        for key, value in known.items():
            self.learn(key, value)
        self.settled, self.blocked = {}, {}

    def key_id(self, key):
        return self.plan.ids[tuple(self.name[x] for x in key)]

    def learn(self, key, value):
        self.table[self.key_id(key)] = value

    def compile(self, target, extra):
        rename = lambda labels: tuple(self.name[x] for x in labels)
        return self.plan.compile(rename(target), rename(extra))

    def forced(self, target, extra):
        carrier = self.compile(target, extra)
        return elimination._forced(self.plan, self.table, carrier, 0, self.settled, self.blocked)


# m = 4 stops at l = 2: its l = 3 numerator has 2,627,625 rows, too many for
# the row oracle in a quick test
KERNEL_SHAPES = [(2, l, gap) for l in (1, 2, 3) for gap in (0, 1, 2)]
KERNEL_SHAPES += [(4, l, gap) for l in (1, 2) for gap in (0, 1, 2)]


def test_grouped_numerator_matches_the_row_oracle():
    # partial tables mixing known zeros and unknowns, denser among the keys
    # through the head than among the others so that denominators often
    # evaluate; the carriers of one table share the pass memos
    rng = random.Random(131)
    seen = set()
    for m, l, gap in KERNEL_SHAPES:
        p = m + gap
        target = tuple(range(1, p + 1))
        labels = tuple(range(1, p + m * l + 3))
        carriers = list(combinations(labels[p:], m * l))
        for _ in range(12 if m == 2 else 4):
            rates = [rng.uniform(0, 0.15), rng.uniform(0, 0.4)]
            head_rates = [rng.uniform(0, 0.5), rng.uniform(0, 0.5)]
            known = {}
            for key in combinations(labels, p):
                lost, zero = head_rates if key[0] <= m else rates
                draw = rng.random()
                if draw >= lost:
                    known[key] = 0 if draw < lost + zero else Fraction(
                        rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2))
                    )
            compiled = PositiveTable(m, l, p, len(labels), known)
            for extra in rng.sample(carriers, 3):
                fast = compiled.forced(target, extra)
                kind, slow = outcome(oracle_forced_value, m, l, known, target, extra)
                assert fast == (slow if kind == "value" else None), (m, l, gap, extra)
                if kind is MissingCoordinates:
                    denominator = outcome(oracle_form_on_known, m, l, known, (), target[m:], extra)
                    kind = "numerator" if denominator[0] == "value" else "denominator"
                elif kind == "value":
                    # a key through part of the head is one of the grouped factors
                    members = target + extra
                    partial = [
                        key for key in combinations(members, p)
                        if set(target[m:]) <= set(key) and 0 < len(set(key) & set(target[:m])) < m
                    ]
                    kind = "silenced" if any(key not in known for key in partial) else "known"
                seen.add(kind)
    assert seen == {ZeroDenominator, "numerator", "denominator", "silenced", "known"}


def test_unknown_head_block_is_silenced_only_by_known_zeros():
    # carrier (1, 2) + (3..8), l = 3: x_(1,3) is unknown and x_(2,b) vanishes
    # for every b but 4, so only the group (1,3)(2,4) needs x_(1,3); its
    # remainder, the degree-2 form on (5, 6, 7, 8), is zero either way
    rng = random.Random(132)
    target, extra = (1, 2), (3, 4, 5, 6, 7, 8)
    values = (-3, -2, -1, 1, 2, 3)
    known = {key: Fraction(rng.choice(values)) for key in combinations(range(1, 9), 2)}
    del known[(1, 3)]
    for b in (5, 6, 7, 8):
        known[(2, b)] = Fraction(0)
    # x56 x78 - x57 x68 + x58 x67 cancels, and no known zero silences it
    known.update({(5, 6): 1, (7, 8): 1, (5, 7): 1, (6, 8): 2, (5, 8): 1, (6, 7): 1})
    assert oracle_form_on_known(2, 2, known, (), (), (5, 6, 7, 8)) == 0
    assert outcome(oracle_forced_value, 2, 3, known, target, extra) == (MissingCoordinates, None)
    assert PositiveTable(2, 3, 2, 8, known).forced(target, extra) is None
    # a known zero in every monomial silences it
    known.update({(5, 6): 0, (5, 7): 0, (5, 8): 0})
    kind, slow = outcome(oracle_forced_value, 2, 3, known, target, extra)
    assert kind == "value"
    assert PositiveTable(2, 3, 2, 8, known).forced(target, extra) == slow


def test_blocked_form_is_read_again_once_a_missing_key_is_known(monkeypatch):
    # the memos outlive a table that grows, as in a pass; a form blocked by
    # x_(3,4) is evaluated again once that key is known
    rng = random.Random(133)
    target, extra = (1, 2), (3, 4, 5, 6)
    full = {key: Fraction(rng.randint(1, 9)) for key in combinations(range(1, 7), 2)}
    known = {key: value for key, value in full.items() if key != (3, 4)}
    compiled = PositiveTable(2, 2, 2, 6, known)
    denominator = compiled.compile(target, extra)[0]
    assert compiled.forced(target, extra) is None
    assert compiled.blocked == {denominator: [compiled.key_id((3, 4))]}
    assert compiled.settled == {}
    # while no blocker is known, the blocked form is not read again
    reads = []
    row_sum = elimination._row_sum
    monkeypatch.setattr(elimination, "_row_sum", lambda *args: reads.append(1) or row_sum(*args))
    assert compiled.forced(target, extra) is None
    assert reads == []
    compiled.learn((3, 4), full[(3, 4)])
    known[(3, 4)] = full[(3, 4)]
    kind, slow = outcome(oracle_forced_value, 2, 2, known, target, extra)
    assert kind == "value"
    assert compiled.forced(target, extra) == slow
    assert denominator in compiled.settled and reads


def shallow_first(extra):
    return tuple(sorted(-x for x in extra))


def int_if_integral(value):
    return value.numerator if value.denominator == 1 else value


OracleRun = namedtuple("OracleRun", "completed stuck first_pass_attempts passes late")


def oracle_reconstruct_all(m, l, projected, budget=None):
    """The pass repeated while it recovers something, as the library once ran it.

    Returns the outcome with the attempts of the first pass, the number of
    passes run, and the coordinates that passes after the first recovered.
    """
    window = projected.window
    p = projected.grade
    room = m * l

    def order(iset):
        diagram = young_diagram(iset, window)
        return (sum(diagram), diagram, iset)

    scale = math.lcm(*(value.denominator for value in projected.known.values()))
    known = {key: int_if_integral(value * scale) for key, value in projected.known.items()}
    pending = sorted(projected.missing(), key=order)
    carriers = {}
    attempts = first_pass_attempts = passes = 0
    late = []
    exhausted = False
    progress = True
    while pending and progress and not exhausted:
        progress = False
        passes += 1
        for tgt in list(pending):
            top = tgt[-1]
            if top not in carriers:
                larger = [x for x in window.elements() if x > top]
                carriers[top] = sorted(combinations(larger, room), key=shallow_first)
            found = None
            for extra in carriers[top]:
                if budget is not None and attempts >= budget:
                    exhausted = True
                    break
                attempts += 1
                try:
                    found = oracle_forced_value(m, l, known, tgt, extra)
                except ReconstructionError:
                    continue
                break
            if found is not None:
                known[tgt] = int_if_integral(found)
                pending.remove(tgt)
                progress = True
                if passes > 1:
                    late.append(tgt)
            if exhausted:
                break
        if passes == 1:
            first_pass_attempts = attempts
    completed = None
    if not pending:
        values = {key: Fraction(value) / scale for key, value in known.items() if value}
        completed = Multivector(window, p, values)
    return OracleRun(completed, tuple(sorted(pending)), first_pass_attempts, passes, late)


def checked_projection(v, params):
    projected = good_projection(v, params)
    assert projected.known == oracle_projection(v, params).known
    return projected


def assert_pass_matches_the_oracle(m, l, projected):
    """One pass decides as the repeated passes do, in the first pass's attempts.

    Checked for the whole run and for budget cuts; returns the oracle's
    whole run.
    """
    run = oracle_reconstruct_all(m, l, projected)
    cuts = {0, 1, run.first_pass_attempts // 3, run.first_pass_attempts // 2}
    cuts |= {run.first_pass_attempts - 1, run.first_pass_attempts, run.first_pass_attempts + 1}
    for budget in [None] + sorted(b for b in cuts if b >= 0):
        oracle = run if budget is None else oracle_reconstruct_all(m, l, projected, budget)
        assert oracle.late == [], budget
        result = reconstruct_all(m, l, projected, budget=budget)
        assert (result.completed, result.stuck) == (oracle.completed, oracle.stuck), budget
        assert result.attempts == oracle.first_pass_attempts, budget
    return run


@pytest.mark.parametrize(
    "seed, window, l, pairs, pq",
    [
        (101, Window(6, 2), 2, 2, False),
        (102, Window(8, 2), 2, 2, True),
        (103, Window(7, 2), 3, 3, False),
        (104, Window(8, 2), 3, 3, True),
        (108, Window(6, 3), 2, 2, False),
        (109, Window(7, 3), 2, 2, True),
        (110, Window(7, 3), 3, 3, True),
    ],
)
def test_pass_matches_the_oracle_on_plane_sums(seed, window, l, pairs, pq):
    # with a tail (p = 3) the points are sums of decomposable 3-vectors; their
    # projections stall, as the w63 class of the benchmark does, and the full
    # tables without the keys below 2 - 2l complete
    rng = random.Random(seed)
    for _ in range(4):
        if window.p == 2:
            v = two_form_point(rng, window, pairs, pq)
            projected = checked_projection(v, GoodParams(2, l, 2, 2))
            assert assert_pass_matches_the_oracle(2, l, projected).completed == v
            continue
        v = three_form_point(rng, window, pairs, pq)
        run = assert_pass_matches_the_oracle(2, l, checked_projection(v, PAIR))
        assert run.completed is None and run.stuck
        full = full_assignment(v, PAIR).known
        shallow = {key: value for key, value in full.items() if key[-1] > 2 - 2 * l}
        assignment = CoordinateAssignment(window, 3, shallow, PAIR)
        assert assert_pass_matches_the_oracle(2, l, assignment).completed == v


def test_pass_matches_the_oracle_on_the_deficient_class():
    # sums of two planes under the degree-3 carriers: every denominator is a
    # degree-3 Pfaffian form, and those vanish on rank-4 points
    rng = random.Random(105)
    for pq in (False, True, False):
        v = two_form_point(rng, Window(10, 2), 2, pq)
        projected = checked_projection(v, GoodParams(2, 3, 2, 2))
        run = assert_pass_matches_the_oracle(2, 3, projected)
        assert run.completed is None and run.stuck


def test_pass_matches_the_oracle_on_trivector_sums():
    # projections stall; full tables without the keys below -1 complete, and
    # their targets share carriers across different tails
    rng = random.Random(106)
    for pq in (False, True):
        v = three_form_point(rng, Window(6, 3), 2, pq)
        assert_pass_matches_the_oracle(2, 2, checked_projection(v, PAIR))
    for window, pairs, l, pq in (
        (Window(6, 3), 1, 1, False),
        (Window(7, 3), 1, 1, True),
        (Window(6, 3), 2, 2, True),
        (Window(7, 3), 2, 2, False),
    ):
        v = three_form_point(rng, window, pairs, pq)
        full = full_assignment(v, PAIR).known
        shallow = {key: value for key, value in full.items() if key[-1] > -2}
        assignment = CoordinateAssignment(window, 3, shallow, PAIR)
        assert assert_pass_matches_the_oracle(2, l, assignment).completed == v


@pytest.mark.parametrize("l", [1, 2])
def test_pass_matches_the_oracle_on_random_partial_tables(l):
    # sums of decomposables with 10-60% of the coordinates dropped at random;
    # each prerequisite of a carrier for I comes before I in diagram order,
    # so the oracle's later passes must recover nothing
    rng = random.Random(107 + l)
    params = GoodParams(2, l, 2, 2)
    repeated = 0
    for window in (Window(6, 2), Window(7, 2), Window(8, 2), Window(5, 3), Window(6, 3)):
        for _ in range(6):
            v = Multivector.zero(window, window.p)
            for _ in range(rng.randint(1, 3)):
                v = v + random_decomposable(rng, window, window.p, bound=5)
            known = dict(full_assignment(v, params).known)
            share = rng.uniform(0.1, 0.6)
            for key in rng.sample(sorted(known), max(1, round(share * len(known)))):
                del known[key]
            assignment = CoordinateAssignment(window, window.p, known, params)
            repeated += assert_pass_matches_the_oracle(2, l, assignment).passes > 1
    assert repeated


# ------------------------------------------------------------- plan reuse
# Every pass over a shape (window, m, l) shares one compiled plan, which
# holds no value; a pass decides as the oracle whatever earlier passes
# compiled, so each case runs its calls on cold and warm plans, in both
# orders.

def cold_plans():
    elimination._plan.cache_clear()
    elimination._key_order.cache_clear()


def assert_reuse_matches_the_oracle(m, l, calls):
    expected = []
    for assignment, budget in calls:
        run = oracle_reconstruct_all(m, l, assignment, budget)
        expected.append((run.completed, run.stuck, run.first_pass_attempts))
    order = list(range(len(calls)))
    for ordered in (order, order[::-1]):
        cold_plans()
        for _ in range(2):
            for i in ordered:
                assignment, budget = calls[i]
                result = reconstruct_all(m, l, assignment, budget)
                assert (result.completed, result.stuck, result.attempts) == expected[i], (i, budget)
    return expected


def dropped(rng, v, params, share):
    """The full table of v without a random share of its keys: no good projection."""
    known = dict(full_assignment(v, params).known)
    for key in rng.sample(sorted(known), max(1, round(share * len(known)))):
        del known[key]
    return CoordinateAssignment(v.window, v.window.p, known, params)


def shallow(v, params, top):
    """The full table of v without the keys whose largest label is at most top."""
    known = {key: c for key, c in full_assignment(v, params).known.items() if key[-1] > top}
    return CoordinateAssignment(v.window, v.window.p, known, params)


def sum_of_decomposables(rng, window, count, pq=False):
    v = Multivector.zero(window, window.p)
    for _ in range(count):
        v = v + random_decomposable(rng, window, window.p, bound=5) * (
            Fraction(rng.randint(1, 9), rng.randint(2, 9)) if pq else 1
        )
    return v


def test_plan_reuse_after_a_budget_cut():
    rng = random.Random(141)
    params = GoodParams(2, 2, 2, 2)
    first, second = (good_projection(rank_sample(rng, Window(8, 2), 2), params) for _ in range(2))
    attempts = oracle_reconstruct_all(2, 2, first).first_pass_attempts
    calls = [(first, attempts // 2), (first, None), (second, 1), (second, None), (first, 0)]
    expected = assert_reuse_matches_the_oracle(2, 2, calls)
    assert expected[1][0] is not None and expected[0][0] is None


def test_plan_reuse_on_hand_built_tables():
    # random partial tables, not good projections, including stalled ones
    rng = random.Random(142)
    params = GoodParams(2, 2, 2, 2)
    calls = []
    for share in (0.2, 0.4, 0.6):
        v = sum_of_decomposables(rng, Window(7, 2), rng.randint(1, 3))
        calls.append((dropped(rng, v, params, share), None))
    calls.append((calls[1][0], 5))
    expected = assert_reuse_matches_the_oracle(2, 2, calls)
    assert any(outcome[1] for outcome in expected)


def test_plan_reuse_on_fraction_values():
    rng = random.Random(143)
    params = GoodParams(2, 3, 2, 2)
    points = [two_form_point(rng, Window(8, 2), 3, True) for _ in range(2)]
    calls = [(good_projection(v, params), None) for v in points]
    calls.append((calls[0][0], 3))
    expected = assert_reuse_matches_the_oracle(2, 3, calls)
    assert [outcome[0] for outcome in expected[:2]] == points


def test_plan_reuse_at_width_four():
    # width-4 carriers of decomposable 4-vectors: shallow tables complete,
    # deeper cuts stall
    rng = random.Random(144)
    params = GoodParams(4, 1, 2, 2)
    calls = []
    for window in (Window(5, 4), Window(6, 4)):
        v = sum_of_decomposables(rng, window, 1)
        calls += [(shallow(v, params, -1), None), (shallow(v, params, 1), None)]
        calls.append((dropped(rng, v, params, 0.3), None))
    calls.append((calls[0][0], 2))
    expected = assert_reuse_matches_the_oracle(4, 1, calls)
    assert expected[0][0] is not None and expected[1][1]


@pytest.mark.parametrize("window", [Window(6, 3), Window(7, 3)])
def test_plan_reuse_with_tails(window):
    # the stalled projections of sums of two trivectors (the w63 class of the
    # benchmark) and their shallow full tables, which complete
    rng = random.Random(145 + window.n)
    calls = []
    for pq in (False, True):
        v = three_form_point(rng, window, 2, pq)
        calls += [(good_projection(v, PAIR), None), (shallow(v, PAIR, -2), None)]
    calls.append((calls[1][0], 4))
    expected = assert_reuse_matches_the_oracle(2, 2, calls)
    assert expected[0][0] is None and expected[0][1]
    assert expected[1][0] is not None


def test_plans_compile_only_the_carriers_tried(monkeypatch):
    # a cold pass compiles exactly the carriers it tries, per target, and
    # remainders only behind a denominator that does not vanish; a cut pass
    # compiles a prefix of them, and a repeated pass compiles nothing
    tried = []
    forced_value = elimination._forced

    def spy(plan, table, carriers, at, settled, blocked):
        tried.append(carriers)
        return forced_value(plan, table, carriers, at, settled, blocked)

    monkeypatch.setattr(elimination, "_forced", spy)
    rng = random.Random(146)
    window = Window(8, 2)
    for planes in (2, 1):
        v = rank_sample(rng, window, planes)
        cold_plans()
        projected = good_projection(v, PAIR)
        plan = elimination._plan(window, 2, 2)
        attempts = oracle_reconstruct_all(2, 2, projected).first_pass_attempts
        for budget in (attempts // 2, None, None):
            tried.clear()
            compiled = [len(done) // plan.width for done in plan.carriers], len(plan.forms)
            result = reconstruct_all(2, 2, projected, budget)
            assert len(tried) == result.attempts
            per_target = [sum(c is done for c in tried) for done in plan.carriers]
            assert [len(done) // plan.width for done in plan.carriers] == per_target
        # the repeated pass
        assert ([len(done) // plan.width for done in plan.carriers], len(plan.forms)) == compiled
        assert sum(map(len, plan.carriers)) == attempts * plan.width
        # one plane: every denominator vanishes, so no remainder is compiled
        assert (max(plan.remainders_at) < 0) == (planes == 1)


def decoded_carriers(plan):
    """Each target's compiled carriers as key tuples: the same whatever order compiled them."""
    keys = plan.keys
    return [
        [
            (tuple(keys[k] for k in plan.forms[done[at]]),
             tuple(keys[k] for k in done[at + 1:at + plan.width]))
            for at in range(0, len(done), plan.width)
        ]
        for done in plan.carriers
    ]


def test_threads_share_one_plan():
    # passes in eight threads compile one plan with a tiny switch interval;
    # a carrier compiled twice or lost would shift the order and so change
    # attempts, results or the compiled carriers
    rng = random.Random(147)
    window = Window(8, 2)
    points = [good_projection(rank_sample(rng, window, planes), PAIR) for planes in (2, 1, 2, 1)]
    cold_plans()
    expected = [reconstruct_all(2, 2, point) for point in points]
    compiled = decoded_carriers(elimination._plan(window, 2, 2))
    cold_plans()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(reconstruct_all, 2, 2, point) for point in points * 4]
            results = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert results == expected * 4
    assert decoded_carriers(elimination._plan(window, 2, 2)) == compiled


def test_remainder_offsets_are_published_after_their_ids():
    # passes read remainders_at without the lock, so no offset may point at
    # ids that are not stored yet
    cold_plans()
    window = Window(8, 2)
    plan = elimination._plan(window, 2, 2)

    class Checked(array):
        def extend(self, ids):
            assert len(self) not in plan.remainders_at
            super().extend(ids)

    plan.remainder_forms = Checked("i")
    v = rank_sample(random.Random(148), window, 2)
    assert reconstruct_all(2, 2, good_projection(v, PAIR)).completed == v
    assert plan.remainder_forms


def test_lazy_carriers_follow_the_sorted_shallow_first_order():
    for labels in ((-6, -5, -4, -3, -2, -1, 1, 2), (-3, -1, 2, 4, 7), (1, 2, 3)):
        for room in (0, 1, 2, 3, 4, 6):
            lazy = list(elimination._carriers(labels, room))
            assert lazy == sorted(combinations(labels, room), key=shallow_first)


GOODNESS_CASES = [
    (Window(6, 2), PAIR),
    (Window(6, 2), GoodParams(2, 3, 2, 2)),
    (Window(5, 4), GoodParams(2, 2, 2, 1)),
    (Window(4, 6), GoodParams(2, 2, 2, 3)),
    (Window(4, 6), GoodParams(1, 1, 1, 1)),
    (Window(13, 4), GoodParams(4, 3, 2, 5)),
    (Window(3, 1), PAIR),
    (Window(3, 0), PAIR),
    (Window(0, 3), GoodParams(2, 2, 1, 2)),
]


@pytest.mark.parametrize("window, params", GOODNESS_CASES)
def test_inline_goodness_matches_is_good(window, params):
    v = Multivector.zero(window, window.p)
    projected = good_projection(v, params)
    assert projected.known == oracle_projection(v, params).known
    kept = set(projected.known)
    assert kept
    for key in combinations(window.elements(), window.p):
        negatives = [i for i in key if i < 0]
        absent = [j for j in range(1, window.p + 1) if j not in key]
        assert (key in kept) == is_good(negatives, absent, params), key


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_projection_matches_the_key_oracle_on_seeded_points(seed):
    # p/q points with dropped terms: known zeros stay known, apart from the
    # keys never projected, and missing() is exactly the rest, in key order
    rng = random.Random(seed)
    zeros = 0
    for window, params in GOODNESS_CASES + [(Window(10, 2), PAIR), (Window(6, 3), PAIR)]:
        keys = list(combinations(window.elements(), window.p))
        picks = rng.sample(keys, max(1, len(keys) // 2))
        v = Multivector(window, window.p, {key: Fraction(rng.choice((-3, -1, 1, 5)),
                                                          rng.randint(1, 6)) for key in picks})
        projected, oracle = good_projection(v, params), oracle_projection(v, params)
        assert projected == oracle
        known = oracle.known  # each read of known decodes the table anew
        assert list(projected.known.items()) == list(known.items())
        assert projected.missing() == tuple(key for key in keys if key not in known)
        known_zero = [key for key, value in known.items() if value == 0]
        assert not set(known_zero) & set(projected.missing())
        zeros += len(known_zero)
    assert zeros


def test_inline_goodness_drops_keys_of_both_kinds():
    # the cases above reject keys for two deep negatives and for two deep gaps
    reasons = set()
    for window, params in GOODNESS_CASES:
        kept = good_projection(Multivector.zero(window, window.p), params).known
        for key in combinations(window.elements(), window.p):
            if key not in kept:
                deep = sum(i <= params.deep_negative for i in key)
                reasons.add("negative" if deep > 1 else "gap")
    assert reasons == {"negative", "gap"}


@pytest.mark.parametrize("window", [Window(5, 3), Window(12, 2), Window(3, 5), Window(4, 0)])
def test_diagram_order_matches_young_diagram(window):
    for key in combinations(window.elements(), window.p):
        diagram = young_diagram(key, window)
        assert elimination._diagram_order(key) == (sum(diagram), diagram, key)


def test_indistinguishable_pair_stays_stuck():
    # v and v' differ in the ungood coordinate (-4, -3), lie in Pf(3) and
    # share every good coordinate, so no recovery from those can tell them
    # apart; the pass must end stuck on both, not complete to either
    w = Window(10, 2)
    e = lambda i: Multivector.basis(w, (i,))
    v = wedge(e(-4), e(1)) + wedge(e(-5), e(2))
    twin = v + wedge(e(-4), e(-3))
    assert v != twin
    assert in_pf(3, v).member and in_pf(3, twin).member
    assert good_projection(v, PAIR).known == good_projection(twin, PAIR).known
    for point in (v, twin):
        projected = good_projection(point, PAIR)
        result = reconstruct_all(2, 2, projected)
        assert result.completed is None
        assert len(result.stuck) == 18 and (-4, -3) in result.stuck
        assert result.attempts == 242
        assert_pass_matches_the_oracle(2, 2, projected)


# ------------------------------------------------------------- assignment

def test_assignment_validation():
    w = Window(2, 2)
    with pytest.raises(DimensionMismatch):
        CoordinateAssignment(w, 1, {}, PAIR)
    with pytest.raises(DimensionMismatch):
        CoordinateAssignment(w, 2, {(1,): Fraction(1)}, PAIR)
    with pytest.raises(DimensionMismatch):
        CoordinateAssignment(w, 2, {(1, 3): Fraction(1)}, PAIR)
    with pytest.raises(TypeError):
        CoordinateAssignment(w, 2, {(1, 2): 0.5}, PAIR)
    # x_(2,1) is -x_(1,2), so an unsorted key is refused, not sorted with its sign dropped
    with pytest.raises(ValueError, match=r"index set \(2, 1\) is not strictly ascending"):
        CoordinateAssignment(w, 2, {(2, 1): Fraction(4)}, PAIR)


def test_assignment_rejects_two_keys_for_one_coordinate():
    # (1, 2) and (2, 1) name the same coordinate; neither value may win silently
    w = Window(2, 2)
    with pytest.raises(ValueError, match="not strictly ascending"):
        CoordinateAssignment(w, 2, {(1, 2): Fraction(1), (2, 1): Fraction(5)}, PAIR)
    with pytest.raises(ValueError, match=r"term \(1, 2\) is given twice"):
        CoordinateAssignment(w, 2, [((1, 2), Fraction(1)), ((1, 2), Fraction(5))], PAIR)


def test_assignment_repr_counts_missing_coordinates(monkeypatch):
    # C(30, 15) = 155,117,520 missing coordinates are counted, not listed
    def enumerate_all(self):
        raise AssertionError("missing() was called")

    monkeypatch.setattr(CoordinateAssignment, "missing", enumerate_all)
    huge = CoordinateAssignment(Window(15, 15), 15, {}, PAIR)
    assert repr(huge) == "CoordinateAssignment((15,15), known=0, missing=155117520)"
    small = good_projection(Multivector.zero(Window(4, 2), 2), PAIR)
    assert repr(small) == "CoordinateAssignment((4,2), known=14, missing=1)"
