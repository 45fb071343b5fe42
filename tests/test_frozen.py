"""The five immutable __slots__ classes share indices.Frozen: they pickle, copy and refuse writes."""
import copy
import pickle
from fractions import Fraction

import pytest

from hyperwedge.elimination import good_projection, reconstruct_all
from hyperwedge.indices import Frozen, GoodParams, Window
from hyperwedge.multivector import Covector, Multivector, RationalMatrix, wedge
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

