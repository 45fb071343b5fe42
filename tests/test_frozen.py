"""The five immutable __slots__ classes share indices.Frozen: they pickle, copy and refuse writes."""
import copy
import pickle
from fractions import Fraction

import pytest

from hyperwedge.elimination import good_projection, reconstruct_all
from hyperwedge.indices import Frozen, GoodParams, Window
from hyperwedge.multivector import Covector, Multivector, RationalMatrix, hodge_star, wedge
from hyperwedge.polynomials import WedgePolynomial
from hyperwedge.varieties import in_hpf

W04 = Window(0, 4)
PLANES = Multivector(W04, 2, {(1, 2): 1, (3, 4): -2})
# a decomposable point whose one dropped coordinate the degree-2 forms recover
POINT = Multivector(Window(4, 2), 2, {(-4, -3): 1, (-4, 2): 1, (-3, 1): -2, (1, 2): 2})
PAIR = GoodParams(2, 2, 2, 2)

OBJECTS = [
    lambda: PLANES,
    lambda: Covector(Window(2, 3), {-2: 1, 3: Fraction(1, 2)}),
    lambda: RationalMatrix.from_function(Window(1, 2), lambda r, c: r * c + 1),
    lambda: WedgePolynomial(2, {((1, 2), (3, 4)): 3}, W04, "pf"),
    lambda: good_projection(POINT, PAIR),
    lambda: reconstruct_all(2, 1, good_projection(POINT, PAIR)),
]
IDS = ["Multivector", "Covector", "RationalMatrix", "WedgePolynomial",
       "CoordinateAssignment", "ReconstructionResult"]


def round_trips(x):
    return [pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)]


@pytest.mark.parametrize("build", OBJECTS, ids=IDS)
def test_objects_pickle_copy_and_refuse_writes(build):
    x = build()
    for clone in round_trips(x):
        assert type(clone) is type(x) and clone == x
    if isinstance(x, Frozen):
        slot, name = x.__slots__[0], type(x).__name__
    else:
        # a named tuple's messages name the class only from Python 3.11 on
        slot, name = x._fields[0], None
    with pytest.raises(AttributeError, match=name):
        setattr(x, slot, None)
    with pytest.raises(AttributeError, match=name):
        x.extra = 1
    with pytest.raises(AttributeError, match=name):
        delattr(x, slot)
    assert x == build()


def test_unpickled_multivectors_compute_like_the_original():
    line = Multivector.basis(W04, (1,))
    for clone in round_trips(PLANES):
        assert wedge(clone, clone) == wedge(PLANES, PLANES) == Multivector.basis(W04, (1, 2, 3, 4), -4)
        assert wedge(clone, line) == wedge(PLANES, line)
        assert in_hpf(2, 2, clone) == in_hpf(2, 2, PLANES)
        assert not in_hpf(2, 2, clone).member
        assert in_hpf(2, 3, clone).member
    for clone in round_trips(OBJECTS[-1]()):
        assert clone.completed == POINT
        assert in_hpf(2, 2, clone.completed).member


def test_frozen_equality_is_by_type_and_value():
    a = Covector(Window(1, 1), {1: 2})
    assert a == Covector(Window(1, 1), {1: 2})
    assert a != Covector(Window(1, 1), {1: 3})
    assert a != Covector(Window(2, 1), {1: 2})
    assert a.__eq__(Multivector(Window(1, 1), 1, {(1,): 2})) is NotImplemented
    with pytest.raises(TypeError):
        hash(a)



def test_equal_values_reached_by_different_routes_are_equal():
    # the stored table is canonical, so a value reached through products,
    # sums or scaling compares, pickles and copies like the one built directly
    half, third = Fraction(1, 2), Fraction(1, 3)
    e = {label: Multivector.basis(W04, (label,)) for label in (1, 2, 3, 4)}
    mixed = third * e[1] + Fraction(3, 4) * e[3]
    routes = [
        (wedge(half * e[1], 2 * e[2]), Multivector.basis(W04, (1, 2))),
        (wedge(mixed, Fraction(3, 2) * e[2]),
         Multivector(W04, 2, {(1, 2): half, (2, 3): Fraction(-9, 8)})),
        (PLANES + third * PLANES - Fraction(4, 3) * PLANES, Multivector.zero(W04, 2)),
        (wedge(mixed, mixed), Multivector.zero(W04, 2)),
        ((PLANES * third) * 3, PLANES),
        (hodge_star(hodge_star(Multivector(W04, 2, {(1, 3): Fraction(6, 4)}))),
         Multivector(W04, 2, {(1, 3): Fraction(3, 2)})),
    ]
    for reached, direct in routes:
        assert reached == direct
        assert reached.terms == direct.terms and str(reached) == str(direct)
        for clone in round_trips(reached):
            assert clone == direct
    w = Window(2, 3)
    for reached, direct in [
        (Covector(w, {1: Fraction(2, 4), 2: 0}), Covector(w, {1: half})),
        (Covector(w, {1: 0}), Covector(w, {})),
    ]:
        assert reached == direct
        assert reached.items() == direct.items() and repr(reached) == repr(direct)
    pq = Covector(w, {3: 7, -2: Fraction(2, 3), 1: Fraction(-5, 4)})
    for clone in round_trips(pq):
        assert clone == pq and clone.items() == pq.items() and repr(clone) == repr(pq)


def test_a_covector_stores_the_grade_one_table():
    # the state a covector pickles is the canonical table of the grade-1
    # multivector with the same entries, which contract reads as it is
    w = Window(2, 3)
    entries = {3: 7, -2: Fraction(2, 3), 1: Fraction(-5, 4), -1: 0}
    line = Multivector(w, 1, {(x,): c for x, c in entries.items()})
    assert Covector(w, entries).__reduce__()[1] == (w, *line.__reduce__()[1][2:])
