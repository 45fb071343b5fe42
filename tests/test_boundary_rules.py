"""One rule per argument kind, checked at every entry point that takes one.

Coefficients are int (not bool) or Fraction, seeds are nonnegative plain
ints, a lookup outside the window raises, and a coordinate key meets one
rule, the same on construction and lookup: strictly ascending, never
sorted, inside the window and of the table's grade.  That rule is also the
window rule: a label outside its window reads the same misfit wherever it
is given, and only a plain nonzero int in range is in a window.  The last test reaches
the statements that no other test runs, with a monkeypatch where the
theorem makes a branch unreachable.
"""
from decimal import Decimal
from fractions import Fraction

import pytest

import hyperwedge.varieties as varieties
from hyperwedge.elimination import CoordinateAssignment
from hyperwedge.forms import FormSpec, hpf_eval, hpf_multilinear, plucker_relation
from hyperwedge.indices import (
    DimensionMismatch,
    GoodParams,
    Window,
    exact,
    index_set,
    young_diagram,
)
from hyperwedge.multivector import Covector, Multivector, RationalMatrix
from hyperwedge.polynomials import WedgePolynomial, poly_mul, poly_scale
from hyperwedge.varieties import (
    TypeSpec,
    contraction_membership,
    in_hpf,
    in_pf,
    odd_partition_check,
    type_witness,
)

W02, W23 = Window(0, 2), Window(2, 3)
PAIR = GoodParams(2, 2, 2, 2)
LINE = Multivector.basis(W23, (1,))
VARIABLE = WedgePolynomial.variable((1, 2))

COEFFICIENT_ENTRIES = {
    "Multivector": lambda c: Multivector(W23, 1, {(1,): c}),
    "basis": lambda c: Multivector.basis(W23, (1,), c),
    "v*x": lambda c: LINE * c,
    "x*v": lambda c: c * LINE,
    "Covector": lambda c: Covector(W23, {1: c}),
    "RationalMatrix": lambda c: RationalMatrix.from_function(W02, lambda r, col: c),
    "WedgePolynomial": lambda c: WedgePolynomial(2, {((1, 2),): c}),
    "poly_scale": lambda c: poly_scale(VARIABLE, c),
    "CoordinateAssignment": lambda c: CoordinateAssignment(W02, 2, {(1, 2): c}, PAIR),
}
NOT_COEFFICIENTS = [True, False, "1", "1e3", " 1/2 ", 1.0, 0.5, Decimal("1")]


@pytest.mark.parametrize("entry", COEFFICIENT_ENTRIES.values(), ids=COEFFICIENT_ENTRIES)
@pytest.mark.parametrize("value", NOT_COEFFICIENTS, ids=repr)
def test_coefficients_are_never_coerced(entry, value):
    with pytest.raises(TypeError, match="must be int or Fraction"):
        entry(value)


@pytest.mark.parametrize("entry", COEFFICIENT_ENTRIES.values(), ids=COEFFICIENT_ENTRIES)
def test_int_and_fraction_coefficients_agree(entry):
    assert entry(3) == entry(Fraction(3)) != entry(Fraction(1, 3))
    assert entry(0) == entry(Fraction(0))


def test_exact_returns_a_fraction_as_it_is():
    half = Fraction(1, 2)
    assert exact(half) is half

    class Ratio(Fraction):
        pass

    # a subclass becomes a plain Fraction of the same value
    value = exact(Ratio(3, 4))
    assert type(value) is Fraction and value == Fraction(3, 4)
    assert type(exact(5)) is Fraction and exact(5) == 5
    for bad in (True, False, 1.0, 0.5, Decimal("1")):
        with pytest.raises(TypeError, match="must be int or Fraction"):
            exact(bad)


SEEDED = {
    "contraction_membership": lambda seed: contraction_membership(
        2, 2, Multivector.basis(W23, (1, 2, 3)), trials=1, seed=seed
    ),
    "type_witness": lambda seed: type_witness(TypeSpec((1,), 1), W23, seed),
    "odd_partition_check": lambda seed: odd_partition_check(TypeSpec((1,), 1), 1, W23, seed),
}


@pytest.mark.parametrize("call", SEEDED.values(), ids=SEEDED)
@pytest.mark.parametrize("seed", [None, True, 1.0, "7", -1], ids=repr)
def test_seeds_are_nonnegative_plain_ints(call, seed):
    with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
        call(seed)


def test_lookups_outside_the_window_raise():
    v = Multivector.basis(W02, (1, 2), 5)
    f = Covector(W02, {1: 2})
    assert v.coeff((1, 2)) == 5 and f.coeff(2) == 0
    with pytest.raises(DimensionMismatch, match=r"indices \(1, 7\) outside window \(0,2\)"):
        v.coeff((1, 7))
    with pytest.raises(DimensionMismatch, match=r"indices \(-1, 1\) outside window"):
        v.coeff((-1, 1))
    with pytest.raises(DimensionMismatch, match=r"indices \(9,\) outside window \(0,2\)"):
        f.coeff(9)
    with pytest.raises(DimensionMismatch, match=r"indices \(-1,\) outside window"):
        f.coeff(-1)


def test_basis_checks_the_coefficient_of_a_zero_wedge():
    # a repeated label gives the zero multivector, but 1.5 is still no coefficient
    assert Multivector.basis(W23, (1, 1), 3) == Multivector.zero(W23, 2)
    with pytest.raises(TypeError, match="must be int or Fraction"):
        Multivector.basis(W23, (1, 1), 1.5)


W22 = Window(2, 2)
PLANE = Multivector.basis(W22, (1, 2))
PLANE_VARIABLE = WedgePolynomial.variable((1, 2), W22)
KEY_ENTRIES = {
    "Multivector": lambda key: Multivector(W22, 2, {key: 1}),
    "Multivector.coeff": lambda key: PLANE.coeff(key),
    "CoordinateAssignment": lambda key: CoordinateAssignment(W22, 2, {key: 1}, PAIR),
    "CoordinateAssignment pairs": lambda key: CoordinateAssignment(W22, 2, [(key, 1)], PAIR),
    "WedgePolynomial": lambda key: WedgePolynomial(2, {(key, (1, 2)): 1}, W22),
    "WedgePolynomial.coeff": lambda key: PLANE_VARIABLE.coeff([(1, 2), key]),
}
BAD_KEYS = {
    "unsorted": ((2, 1), ValueError, "index set (2, 1) is not strictly ascending"),
    "repeated": ((1, 1), ValueError, "index set (1, 1) is not strictly ascending"),
    "outside": ((1, 3), DimensionMismatch, "indices (1, 3) outside window (2,2)"),
    "size": ((-1, 1, 2), DimensionMismatch, "indices (-1, 1, 2) have size 3, expected 2"),
    "bool": ((True, 2), ValueError, "index labels must be nonzero integers, got True"),
}


@pytest.mark.parametrize("key, error, message", BAD_KEYS.values(), ids=BAD_KEYS)
def test_one_key_rule_on_construction_and_lookup(key, error, message):
    for name, entry in KEY_ENTRIES.items():
        with pytest.raises(error) as caught:
            entry(key)
        assert type(caught.value) is error and str(caught.value) == message, name


W21 = Window(2, 1)
POINT = Multivector.basis(W21, (1,))
WINDOW_ENTRIES = {
    "Multivector": lambda: Multivector(W21, 1, {(2,): 1}),
    "basis": lambda: Multivector.basis(W21, (2,)),
    "Multivector.coeff": lambda: POINT.coeff((2,)),
    "Covector": lambda: Covector(W21, {2: 1}),
    "Covector.coeff": lambda: Covector(W21, {}).coeff(2),
    "RationalMatrix.entry": lambda: RationalMatrix.identity(W21).entry(2, 1),
    "RationalMatrix.column": lambda: RationalMatrix.identity(W21).column(2),
    "index_set": lambda: index_set([2], W21),
    "young_diagram": lambda: young_diagram([2], W21),
    "hpf_eval": lambda: hpf_eval(FormSpec(1, 1, (2,)), POINT),
    "hpf_eval tail": lambda: hpf_eval(
        FormSpec(1, 1, (1,), (2,)), Multivector.basis(W21, (-1, 1))
    ),
    "hpf_multilinear": lambda: hpf_multilinear(FormSpec(1, 1, (2,)), [POINT]),
    "plucker_relation": lambda: plucker_relation((2,), (-2, -1, 1), W21),
    "WedgePolynomial": lambda: WedgePolynomial(1, {((2,),): 1}, W21),
    "CoordinateAssignment": lambda: CoordinateAssignment(W21, 1, {(2,): 1}, PAIR),
}


@pytest.mark.parametrize("entry", WINDOW_ENTRIES.values(), ids=WINDOW_ENTRIES)
def test_one_window_rule_at_every_entry_point(entry):
    with pytest.raises(DimensionMismatch) as caught:
        entry()
    assert type(caught.value) is DimensionMismatch
    assert str(caught.value) == "indices (2,) outside window (2,1)"


@pytest.mark.parametrize("label", [True, 1.0, Fraction(1), "1", 0, None], ids=repr)
def test_only_plain_nonzero_ints_are_window_labels(label):
    for window in (Window(0, 2), Window(2, 3), W21):
        assert 1 in window and window.contains_set(window.elements())
        assert label not in window
        assert not window.contains_set([label])
        assert not window.contains_set([1, label])


def test_in_pf_mismatch_is_in_hpfs():
    trivector = Multivector.basis(W23, (1, 2, 3))
    with pytest.raises(DimensionMismatch) as pf:
        in_pf(2, trivector)
    with pytest.raises(DimensionMismatch) as hpf:
        in_hpf(2, 2, trivector)
    assert str(pf.value) == str(hpf.value) == "locus lives in grade 2, argument has 3"


# ------------------------------------------- statements no other test reaches

def poly_times_poly(monkeypatch):
    other = WedgePolynomial.variable((3, 4))
    assert VARIABLE * other == poly_mul(VARIABLE, other)


def poly_times_scalar(monkeypatch):
    assert VARIABLE * 3 == 3 * VARIABLE == poly_scale(VARIABLE, 3)


def multivector_repr(monkeypatch):
    assert repr(Multivector.basis(W23, (1, 2), Fraction(1, 2))) == "<1/2*e(1,2) | grade 2 in (2,3)>"


def multivector_operators_decline(monkeypatch):
    assert LINE.__add__(1) is NotImplemented
    assert LINE.__sub__(1) is NotImplemented
    assert LINE.__mul__(LINE) is NotImplemented
    with pytest.raises(TypeError):
        LINE * LINE


def polynomial_operators_decline(monkeypatch):
    assert VARIABLE.__add__(1) is NotImplemented
    assert VARIABLE.__sub__(1) is NotImplemented
    assert VARIABLE.__eq__(1) is NotImplemented
    assert VARIABLE != 1


def odd_partition_check_refutes(monkeypatch):
    # an odd part forces every (k+1)-st power to vanish; a power that
    # survives can only be planted
    ts = TypeSpec((1,), 1)
    assert odd_partition_check(ts, 3, W23, 5)
    monkeypatch.setattr(varieties, "wedge_power", lambda witness, power: witness)
    assert odd_partition_check(ts, 3, W23, 5) is False


def type_witness_gives_up(monkeypatch):
    monkeypatch.setattr(
        varieties, "_random_element", lambda rng, window, grade: Multivector.zero(window, grade)
    )
    with pytest.raises(RuntimeError, match="nonzero summand"):
        type_witness(TypeSpec((1,), 1), W23, 0)


RARE = [
    poly_times_poly,
    poly_times_scalar,
    multivector_repr,
    multivector_operators_decline,
    polynomial_operators_decline,
    odd_partition_check_refutes,
    type_witness_gives_up,
]


@pytest.mark.parametrize("case", RARE, ids=lambda case: case.__name__)
def test_statements_no_other_test_reaches(case, monkeypatch):
    case(monkeypatch)
