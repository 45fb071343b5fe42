"""One rule per argument kind, checked at every entry point that takes one.

Coefficients are int (not bool) or Fraction, seeds are nonnegative plain
ints, and a lookup outside the window raises.  The last test reaches the
statements that no other test runs, with a monkeypatch where the theorem
makes a branch unreachable.
"""
from decimal import Decimal
from fractions import Fraction

import pytest

import hyperwedge.varieties as varieties
from hyperwedge.elimination import CoordinateAssignment
from hyperwedge.indices import DimensionMismatch, GoodParams, Window
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
    "CoordinateAssignment": lambda c: CoordinateAssignment(
        W02, 2, {(1, 2): c}, GoodParams(2, 2, 2, 2)
    ),
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
    with pytest.raises(DimensionMismatch, match=r"label 9 outside window \(0,2\)"):
        f.coeff(9)
    with pytest.raises(DimensionMismatch, match="label -1 outside window"):
        f.coeff(-1)


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
