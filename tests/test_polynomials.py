"""Coordinate-polynomial layer: canonicalization, ring ops, evaluation, files."""
import json
import random
from fractions import Fraction
from itertools import combinations

import pytest

from hyperwedge.indices import DimensionMismatch, Window, enumerate_partitions
from hyperwedge.multivector import FormatError, Multivector, wedge
from hyperwedge.polynomials import (
    WedgePolynomial,
    monomial,
    poly_add,
    poly_equal,
    poly_eval,
    poly_from_obj,
    poly_mul,
    poly_scale,
    poly_to_obj,
)


def var(*indices):
    return WedgePolynomial.variable(tuple(indices))


def degree(poly):
    """The largest number of factors in a monomial of poly, 0 for the zero polynomial."""
    return max((len(mono) for mono in poly.terms), default=0)


def pf_four_display():
    """The three-term quadratic x12*x34 - x13*x24 + x14*x23, built by hand."""
    return WedgePolynomial(
        2,
        {
            ((1, 2), (3, 4)): 1,
            ((1, 3), (2, 4)): -1,
            ((1, 4), (2, 3)): 1,
        },
    )


def test_with_window_adopts_terms_and_checks_the_window():
    p = poly_scale(pf_four_display(), Fraction(3, 2))
    placed = p.with_window(Window(0, 4))
    assert placed == WedgePolynomial(2, p.terms, Window(0, 4))
    assert placed.label == p.label and placed.with_window(None) == p
    with pytest.raises(DimensionMismatch, match="outside window"):
        p.with_window(Window(2, 3))
    with pytest.raises(AttributeError):
        placed.window = None


def test_variable_and_monomial_canonicalization():
    p = var(1, 2)
    assert p.grade == 2
    assert p.coeff([(1, 2)]) == 1
    assert monomial([(3, 4), (1, 2)]) == ((1, 2), (3, 4))
    a = WedgePolynomial(2, {((3, 4), (1, 2)): 5})
    b = WedgePolynomial(2, {((1, 2), (3, 4)): 5})
    assert a == b
    assert a.coeff([(3, 4), (1, 2)]) == 5


def test_constructor_merges_duplicate_monomials():
    p = WedgePolynomial(2, [((((1, 2)), ((3, 4))), 2), ((((3, 4)), ((1, 2))), 3)])
    assert p.coeff([(1, 2), (3, 4)]) == 5


def test_constructor_rejections():
    with pytest.raises(DimensionMismatch):
        WedgePolynomial(3, {((1, 2),): 1})
    with pytest.raises(ValueError):
        WedgePolynomial(2, {((2, 1),): 1})
    with pytest.raises(ValueError):
        WedgePolynomial(2, {((0, 1),): 1})
    with pytest.raises(TypeError):
        WedgePolynomial(2, {((1, 2),): 0.5})
    with pytest.raises(DimensionMismatch):
        WedgePolynomial(2, {((1, 5),): 1}, window=Window(0, 4))


@pytest.mark.parametrize("label", [1.5, 1.0, "1", True, None])
def test_variable_labels_must_be_plain_nonzero_ints(label):
    with pytest.raises(ValueError):
        WedgePolynomial(2, {((label, 2),): 1})
    with pytest.raises(ValueError):
        WedgePolynomial.variable((label, 2))
    with pytest.raises(ValueError):
        var(1, 2).coeff([(label, 2)])


def test_additive_identities():
    p = pf_four_display()
    zero = WedgePolynomial.zero(2)
    assert poly_add(p, zero) == p
    assert (p - p).is_zero()
    assert (-p + p).is_zero()


def test_multiplication():
    assert poly_mul(var(1, 2), var(3, 4)) == WedgePolynomial(
        2, {((1, 2), (3, 4)): 1}
    )
    square = poly_mul(var(1, 2) + var(3, 4), var(1, 2) + var(3, 4))
    assert square.coeff([(1, 2), (1, 2)]) == 1
    assert square.coeff([(1, 2), (3, 4)]) == 2
    assert square.coeff([(3, 4), (3, 4)]) == 1
    assert degree(square) == 2
    assert poly_scale(var(1, 2), Fraction(2, 3)).coeff([(1, 2)]) == Fraction(2, 3)


def test_mismatch_errors():
    with pytest.raises(DimensionMismatch):
        poly_add(var(1, 2), WedgePolynomial.variable((1, 2, 3)))
    w1 = WedgePolynomial(2, {((1, 2),): 1}, window=Window(0, 2))
    w2 = WedgePolynomial(2, {((1, 2),): 1}, window=Window(0, 3))
    with pytest.raises(DimensionMismatch):
        poly_mul(w1, w2)
    with pytest.raises(TypeError):
        poly_scale(var(1, 2), 0.25)


def test_eval_on_pfaffian_examples():
    p = pf_four_display()
    w = Window(0, 4)
    decomposable = Multivector.basis(w, (1, 2))
    assert poly_eval(p, decomposable) == 0
    split = Multivector.basis(w, (1, 2)) + Multivector.basis(w, (3, 4))
    assert poly_eval(p, split) == 1
    shifted = p + WedgePolynomial(2, {(): 5})
    assert poly_eval(shifted, Multivector.zero(w, 2)) == 5


def test_eval_strictness():
    windowed = WedgePolynomial(2, {((1, 2),): 1}, window=Window(0, 4))
    v = Multivector.basis(Window(0, 3), (1, 2))
    with pytest.raises(DimensionMismatch):
        poly_eval(windowed, v)
    with pytest.raises(DimensionMismatch):
        poly_eval(var(1, 2), Multivector.zero(Window(0, 4), 3))
    outside = var(1, 5)
    with pytest.raises(DimensionMismatch):
        poly_eval(outside, Multivector.zero(Window(0, 4), 2))


def test_eval_is_a_ring_homomorphism():
    # random polynomials of degree <= 3 over the window (2,2), per module contract
    rng = random.Random(40)
    w = Window(2, 2)
    pool = list(combinations(w.elements(), 2))
    for _ in range(60):
        p = _random_poly(rng, pool)
        q = _random_poly(rng, pool)
        v = _random_two_form(rng, w)
        assert poly_eval(poly_add(p, q), v) == poly_eval(p, v) + poly_eval(q, v)
        assert poly_eval(poly_mul(p, q), v) == poly_eval(p, v) * poly_eval(q, v)
        assert poly_eval(poly_scale(p, Fraction(-3, 7)), v) == Fraction(-3, 7) * poly_eval(p, v)


def _random_poly(rng, pool):
    terms = []
    for _ in range(rng.randint(1, 4)):
        degree = rng.randint(0, 3)
        factors = tuple(pool[rng.randrange(len(pool))] for _ in range(degree))
        terms.append((factors, rng.randint(-6, 6)))
    return WedgePolynomial(2, terms)


def _random_two_form(rng, window):
    out = Multivector.zero(window, 2)
    for pair in combinations(window.elements(), 2):
        out = out + Multivector.basis(window, pair, rng.randint(-4, 4))
    return out


def test_poly_equal_ignores_ambient_window():
    bare = pf_four_display()
    housed = WedgePolynomial(2, bare.terms, window=Window(0, 4), label="pf")
    assert poly_equal(bare, housed)
    assert bare != housed
    assert poly_equal(bare, bare)
    assert not poly_equal(bare, bare + var(1, 2))
    assert not poly_equal(bare, WedgePolynomial.variable((1, 2, 3)))


def test_commuting_factors_collapse():
    left = poly_mul(var(1, 2), var(3, 4))
    right = poly_mul(var(3, 4), var(1, 2))
    assert poly_equal(left, right)
    assert left == right


def test_partition_sum_matches_displayed_pfaffian():
    # independent construction straight from the partition enumerator
    terms = {}
    for blocks, sign in enumerate_partitions((1, 2, 3, 4), 2):
        terms[blocks] = sign
    assert WedgePolynomial(2, terms) == pf_four_display()


def test_wedge_compatible_evaluation():
    # evaluating the quadratic on u^v for random u, v of grade 1 gives 0
    rng = random.Random(7)
    w = Window(0, 4)
    p = pf_four_display()
    for _ in range(25):
        u = _random_vector(rng, w)
        v = _random_vector(rng, w)
        assert poly_eval(p, wedge(u, v)) == 0


def _random_vector(rng, window):
    out = Multivector.zero(window, 1)
    for i in window.elements():
        out = out + Multivector.basis(window, (i,), rng.randint(-5, 5))
    return out


def test_serialization_round_trip_is_bit_exact():
    p = WedgePolynomial(
        2,
        {
            ((-2, 1), (1, 3)): Fraction(3, 7),
            ((1, 3), (1, 3)): 5,
            ((-2, -1),): -2,
            (): Fraction(1, 2),
        },
        window=Window(2, 3),
        label="sample",
    )
    obj = poly_to_obj(p)
    blob = json.dumps(obj)
    again = poly_from_obj(json.loads(blob))
    assert again == p
    assert again.label == p.label
    assert json.dumps(poly_to_obj(again)) == blob


def test_serialization_term_order_is_canonical():
    obj = poly_to_obj(pf_four_display() + WedgePolynomial(2, {(): 9}))
    degrees = [len(t["factors"]) for t in obj["terms"]]
    assert degrees == sorted(degrees)
    assert obj["terms"][0]["factors"] == []
    assert obj["window"] is None


@pytest.mark.parametrize(
    "doc",
    [
        {"window": None, "grade": 2, "label": None},
        {"window": None, "grade": True, "label": None, "terms": []},
        {"window": [2], "grade": 2, "label": None, "terms": []},
        {"window": [-1, 2], "grade": 2, "label": None, "terms": []},
        {"window": None, "grade": 2, "label": 7, "terms": []},
        {"window": None, "grade": 2, "label": None, "terms": [{"coeff": "0.5", "factors": [[1, 2]]}]},
        {"window": None, "grade": 2, "label": None, "terms": [{"coeff": "0", "factors": [[1, 2]]}]},
        {"window": None, "grade": 2, "label": None, "terms": [{"coeff": 1, "factors": [[1, 2]]}]},
        {"window": None, "grade": 2, "label": None, "terms": [{"coeff": "1", "factors": [[2, 1]]}]},
        {"window": None, "grade": 2, "label": None, "terms": [{"coeff": "1", "factors": [[1, 2, 3]]}]},
        {"window": None, "grade": 2, "label": None, "terms": [
            {"coeff": "1", "factors": [[1, 2], [3, 4]]},
            {"coeff": "2", "factors": [[3, 4], [1, 2]]},
        ]},
        {"window": [0, 3], "grade": 2, "label": None, "terms": [{"coeff": "1", "factors": [[1, 4]]}]},
        {"window": None, "grade": 2, "label": None, "terms": [{"coeff": "1", "factors": [[1, 1.5]]}]},
        # out of poly_to_obj's order: swapped factors, swapped terms, degree
        # descending, one monomial twice
        {"window": None, "grade": 2, "label": None, "terms": [
            {"coeff": "1", "factors": [[3, 4], [1, 2]]},
        ]},
        {"window": None, "grade": 2, "label": None, "terms": [
            {"coeff": "-1", "factors": [[1, 3], [2, 4]]},
            {"coeff": "1", "factors": [[1, 2], [3, 4]]},
        ]},
        {"window": None, "grade": 2, "label": None, "terms": [
            {"coeff": "1", "factors": [[1, 2], [3, 4]]},
            {"coeff": "2", "factors": [[1, 2]]},
        ]},
        {"window": None, "grade": 2, "label": None, "terms": [
            {"coeff": "1", "factors": [[1, 2], [3, 4]]},
            {"coeff": "2", "factors": [[1, 2], [3, 4]]},
        ]},
    ],
)
def test_parser_rejects_malformed_documents(doc):
    with pytest.raises(FormatError):
        poly_from_obj(doc)


def test_parser_names_the_previous_monomial():
    doc = {"window": None, "grade": 2, "label": None, "terms": [
        {"coeff": "1", "factors": [[1, 2], [3, 4]]},
        {"coeff": "2", "factors": [[1, 2], [3, 4]]},
    ]}
    with pytest.raises(FormatError) as err:
        poly_from_obj(doc)
    assert str(err.value) == (
        "term ((1, 2), (3, 4)) does not follow ((1, 2), (3, 4)): terms must be sorted"
    )


def test_degree_and_zero_queries():
    p = pf_four_display()
    assert degree(p) == 2
    assert not p.is_zero()
    assert WedgePolynomial.zero(3).is_zero()
    assert degree(WedgePolynomial.zero(3)) == 0
    assert p.coeff([(1, 3), (2, 4)]) == -1
    assert p.coeff([(1, 2), (1, 2)]) == 0


def test_text_spellings():
    p = pf_four_display()
    assert str(p) == "1*x(1,2)x(3,4) + -1*x(1,3)x(2,4) + 1*x(1,4)x(2,3)"
    assert repr(p) == f"<{p} | grade 2, any window>"
    mixed = WedgePolynomial(2, {(): Fraction(3, 2), ((-1, 2),): -1}, Window(1, 2))
    assert str(mixed) == "3/2 + -1*x(-1,2)"
    assert repr(mixed) == "<3/2 + -1*x(-1,2) | grade 2, (1,2)>"
    assert str(WedgePolynomial.zero(3)) == "0"
