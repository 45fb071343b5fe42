"""Partition-sum forms: construction, evaluation, structure constants, expansion."""
import random
from fractions import Fraction
from itertools import combinations
from math import comb, factorial, prod

import pytest

from hyperwedge.forms import (
    FormSpec,
    _partition_table,
    _row_plan,
    _row_sum,
    component_form_specs,
    filtration_expansion,
    hpf_eval,
    hpf_multilinear,
    hpf_polynomial,
    plucker_relation,
    pullback_dual,
    wedge_via_hpf,
)
from hyperwedge.indices import DimensionMismatch, Window
from hyperwedge.multivector import (
    Covector,
    Multivector,
    RationalMatrix,
    contract,
    gl_apply,
    wedge,
    wedge_power,
)
from hyperwedge.polynomials import WedgePolynomial, poly_equal, poly_eval, poly_mul

from conftest import (
    det_oracle,
    random_decomposable,
    random_invertible,
    random_multivector,
    random_vector,
)


def pf_four():
    return WedgePolynomial(
        2, {((1, 2), (3, 4)): 1, ((1, 3), (2, 4)): -1, ((1, 4), (2, 3)): 1}
    )


def test_spec_validation():
    spec = FormSpec(2, 2, (3, 1, 4, 2))
    assert spec.indices == (1, 2, 3, 4)
    assert spec.tail == ()
    assert spec.grade == 2
    with pytest.raises(DimensionMismatch):
        FormSpec(2, 2, (1, 2, 3))
    with pytest.raises(ValueError):
        FormSpec(2, 2, (1, 2, 3, 4), (4, 5))
    with pytest.raises(ValueError):
        FormSpec(0, 2, (1, 2))
    with pytest.raises(ValueError):
        FormSpec(2, 0, ())
    with pytest.raises(ValueError):
        FormSpec(2, 2, (1, 1, 2, 3))


@pytest.mark.parametrize("bad", [True, 1.0, 1.5])
def test_spec_shape_is_never_coerced(bad):
    with pytest.raises(ValueError):
        FormSpec(bad, 1, (1,))
    with pytest.raises(ValueError):
        FormSpec(1, bad, (1,))


def test_labels():
    assert FormSpec(2, 2, (1, 2, 3, 4)).label == "hpf(2,2)@1,2,3,4"
    assert FormSpec(2, 2, (-1, 1, 2, 3), (4,)).label == "hpf(2,2)@-1,1,2,3|4"


def test_quadratic_form_matches_display():
    built = hpf_polynomial(FormSpec(2, 2, (1, 2, 3, 4)))
    assert poly_equal(built, pf_four())
    assert built.window is None
    assert built.label == "hpf(2,2)@1,2,3,4"


def test_width_four_form_term_layout():
    poly = hpf_polynomial(FormSpec(4, 2, tuple(range(1, 9))))
    ordered = poly.sorted_terms()
    assert len(ordered) == 35
    assert ordered[0] == (((1, 2, 3, 4), (5, 6, 7, 8)), Fraction(1))
    assert ordered[1] == (((1, 2, 3, 5), (4, 6, 7, 8)), Fraction(-1))
    assert ordered[-1] == (((1, 6, 7, 8), (2, 3, 4, 5)), Fraction(1))
    assert all(c in (1, -1) for _, c in ordered)


def test_odd_width_forms_vanish():
    assert hpf_polynomial(FormSpec(3, 2, (1, 2, 3, 4, 5, 6))).is_zero()
    assert hpf_polynomial(FormSpec(1, 2, (1, 2))).is_zero()
    assert hpf_polynomial(FormSpec(5, 2, tuple(range(1, 11)))).is_zero()


def test_degree_one_forms_are_single_variables():
    assert hpf_polynomial(FormSpec(2, 1, (1, 3))) == WedgePolynomial.variable((1, 3))
    assert hpf_polynomial(FormSpec(3, 1, (-1, 1, 2))) == WedgePolynomial.variable((-1, 1, 2))
    relative = hpf_polynomial(FormSpec(2, 1, (1, 2), (3,)))
    assert relative == WedgePolynomial.variable((1, 2, 3))


def test_relative_tail_attaches_without_sign():
    poly = hpf_polynomial(FormSpec(2, 2, (1, 2, 3, 4), (5,)))
    assert poly.grade == 3
    assert poly.coeff([(1, 2, 5), (3, 4, 5)]) == 1
    assert poly.coeff([(1, 3, 5), (2, 4, 5)]) == -1
    assert poly.coeff([(1, 4, 5), (2, 3, 5)]) == 1
    assert len(poly.terms) == 3


def test_term_counts_match_partition_counts():
    for m, l in ((2, 2), (2, 3), (4, 2)):
        spec = FormSpec(m, l, tuple(range(1, m * l + 1)))
        expected = factorial(m * l) // (factorial(m) ** l * factorial(l))
        assert len(hpf_polynomial(spec).terms) == expected


def test_built_forms_are_canonical():
    # hpf_polynomial and pullback_dual adopt their terms unchecked, so the
    # checking constructor must find nothing to reorder, merge or refuse
    for window in (Window(2, 3), Window(3, 3), Window(4, 2)):
        for spec in component_form_specs(2, 2, Window(window.p, window.n)):
            for poly in (hpf_polynomial(spec), pullback_dual(spec, window)):
                checked = WedgePolynomial(poly.grade, poly.terms, poly.window, poly.label)
                assert poly._terms == checked._terms


def test_eval_agrees_with_polynomial_evaluation():
    rng = random.Random(11)
    cases = (
        (Window(1, 3), FormSpec(2, 2, (-1, 1, 2, 3))),
        (Window(2, 4), FormSpec(2, 3, (-2, -1, 1, 2, 3, 4))),
        (Window(4, 4), FormSpec(4, 2, (-4, -3, -2, -1, 1, 2, 3, 4))),
        # relative forms: tail below, between and above the members
        (Window(2, 3), FormSpec(2, 2, (-1, 1, 2, 3), (-2,))),
        (Window(2, 3), FormSpec(2, 2, (-2, -1, 2, 3), (1,))),
        (Window(2, 4), FormSpec(2, 2, (-2, 1, 2, 4), (-1, 3))),
        (Window(1, 4), FormSpec(2, 2, (-1, 1, 2, 3), (4,))),
        (Window(3, 4), FormSpec(2, 3, (-3, -1, 1, 2, 3, 4), (-2,))),
        # odd widths at degree one and at degree two or more
        (Window(2, 3), FormSpec(3, 1, (-2, 1, 3))),
        (Window(2, 3), FormSpec(1, 1, (2,), (-1, 3))),
        (Window(2, 4), FormSpec(3, 2, (-2, -1, 1, 2, 3, 4))),
        (Window(1, 3), FormSpec(1, 3, (-1, 2, 3), (1,))),
    )
    for window, spec in cases:
        poly = hpf_polynomial(spec).with_window(window)
        nonzero = 0
        for _ in range(15):
            v = random_multivector(rng, window, spec.grade, max_terms=20)
            value = hpf_eval(spec, v)
            assert value == poly_eval(poly, v)
            nonzero += value != 0
        assert nonzero > 0 or (spec.m % 2 and spec.l >= 2)


def _brute_row_sum(count, m, gap, values):
    """The partition table's signed products, one value per block key; None iff
    a row with no zero factor needs an unknown value."""
    keys, _ = _row_plan(count, m, gap)
    tail = tuple(f"t{i}" for i in range(gap))
    labels = tail + tuple(range(1, count + 1))
    value = {tuple(key(labels)): v for key, v in zip(keys, values)}
    total, needs_unknown = 0, False
    for blocks, sign in _partition_table(count, m):
        factors = [value[tail + block] for block in blocks]
        if 0 in factors:
            continue
        if None in factors:
            needs_unknown = True
        else:
            total += sign * prod(factors)
    return None if needs_unknown else total


@pytest.mark.parametrize("count, m, gap", [(6, 2, 0), (8, 2, 0), (6, 2, 1), (8, 2, 2)])
def test_row_sum_matches_the_partition_table(count, m, gap):
    # the shapes recovery and hpf_eval read; all-known-nonzero values take
    # _row_sum's fast path, the rest its masked route
    rng = random.Random(count * 100 + gap)
    keys, rows = _row_plan(count, m, gap)

    def pick(kinds):
        kind = rng.choice(kinds)
        if kind == "int":
            return rng.choice([-3, -2, -1, 1, 2, 5])
        if kind == "fraction":
            return Fraction(rng.choice([-7, -1, 1, 7]), rng.randint(2, 5))
        return kind

    mixes = (("int", "fraction"), ("int", "fraction", 0), ("int", "fraction", None),
             ("int", "fraction", 0, None), (0, 0, 0, 0, 0, None, "int"))
    outcomes = set()
    for trial in range(200):
        values = [pick(mixes[trial % len(mixes)]) for _ in keys]
        expected = _brute_row_sum(count, m, gap, values)
        got = _row_sum(rows, values)
        assert got == expected and type(got) is type(expected), values
        outcomes.add((None in values, 0 in values, expected is None))
    # fast path, zeros only, unknowns that block and unknowns silenced by zeros
    assert {(False, False, False), (False, True, False), (True, False, True), (True, True, False)} <= outcomes


def test_eval_known_values():
    w4 = Window(0, 4)
    split = Multivector.basis(w4, (1, 2)) + Multivector.basis(w4, (3, 4))
    assert hpf_eval(FormSpec(2, 2, (1, 2, 3, 4)), split) == 1
    w8 = Window(0, 8)
    pair = Multivector.basis(w8, (1, 2, 3, 4)) + Multivector.basis(w8, (5, 6, 7, 8))
    assert hpf_eval(FormSpec(4, 2, tuple(range(1, 9))), pair) == 1


def test_eval_kills_decomposables():
    rng = random.Random(23)
    spec = FormSpec(2, 2, (1, 2, 3, 4))
    w = Window(0, 4)
    for _ in range(50):
        assert hpf_eval(spec, random_decomposable(rng, w, 2)) == 0


def test_eval_rejects_mismatches():
    spec = FormSpec(2, 2, (1, 2, 3, 4))
    with pytest.raises(DimensionMismatch):
        hpf_eval(spec, Multivector.zero(Window(0, 4), 3))
    with pytest.raises(DimensionMismatch):
        hpf_eval(spec, Multivector.zero(Window(0, 3), 2))
    relative = FormSpec(2, 1, (1, 2), (3,))
    with pytest.raises(DimensionMismatch):
        hpf_eval(relative, Multivector.zero(Window(0, 3), 2))


def test_multilinear_known_values():
    w = Window(0, 4)
    v = Multivector.basis(w, (1, 2)) + Multivector.basis(w, (3, 4))
    spec = FormSpec(2, 2, (1, 2, 3, 4))
    assert hpf_multilinear(spec, [v, v]) == 2
    zero = Multivector.zero(w, 2)
    assert hpf_multilinear(spec, [v, zero]) == 0


def test_multilinear_diagonal_relation():
    # the ordered sum over-counts each partition once per block ordering
    rng = random.Random(31)
    cases = ((2, 2, Window(1, 3)), (2, 3, Window(2, 4)), (3, 2, Window(2, 4)), (1, 2, Window(0, 3)))
    for m, l, window in cases:
        spec = FormSpec(m, l, window.elements()[: m * l])
        for _ in range(12):
            v = random_multivector(rng, window, m)
            assert hpf_multilinear(spec, [v] * l) == factorial(l) * hpf_eval(spec, v)


def test_multilinear_argument_checks():
    spec = FormSpec(2, 2, (1, 2, 3, 4))
    w = Window(0, 4)
    v = Multivector.basis(w, (1, 2))
    with pytest.raises(DimensionMismatch):
        hpf_multilinear(spec, [v])
    with pytest.raises(DimensionMismatch):
        hpf_multilinear(spec, [v, Multivector.basis(w, (1, 2, 3))])
    with pytest.raises(ValueError):
        hpf_multilinear(FormSpec(2, 1, (1, 2), (3,)), [v])


def test_structure_constants_reproduce_wedge():
    rng = random.Random(47)
    for m, l in ((1, 2), (1, 3), (2, 2), (2, 3), (4, 2)):
        for _ in range(8):
            window = Window(rng.randint(0, 2), rng.randint(2, 4))
            vs = [random_multivector(rng, window, m, max_terms=3, bound=5) for _ in range(l)]
            direct = vs[0]
            for u in vs[1:]:
                direct = wedge(direct, u)
            assert wedge_via_hpf(vs) == direct


def test_structure_constants_trivial_cases():
    w = Window(0, 4)
    v = Multivector.basis(w, (1, 2)) + Multivector.basis(w, (3, 4), 2)
    assert wedge_via_hpf([v]) == v
    a = Multivector.basis(w, (1, 2))
    b = Multivector.basis(w, (3, 4))
    assert wedge_via_hpf([a, b]) == Multivector.basis(w, (1, 2, 3, 4))
    with pytest.raises(DimensionMismatch):
        wedge_via_hpf([a, Multivector.basis(Window(0, 5), (3, 4))])
    with pytest.raises(ValueError):
        wedge_via_hpf([])


def test_plucker_relation_matches_quadratic_form():
    rel = plucker_relation((1,), (2, 3, 4), Window(0, 4))
    assert poly_equal(rel, pf_four())


def test_plucker_relation_vanishes_on_decomposables():
    rng = random.Random(59)
    w = Window(1, 4)
    labels = w.elements()
    for _ in range(50):
        v = random_decomposable(rng, w, 3, bound=5)
        body = tuple(sorted(rng.sample(labels, 2)))
        large = tuple(sorted(rng.sample(labels, 4)))
        rel = plucker_relation(body, large, w)
        assert poly_eval(rel, v) == 0


def test_plucker_relation_drops_overlap_terms():
    rel = plucker_relation((1, 2), (2, 3, 4, 5), Window(0, 5))
    assert len(rel.terms) == 3
    assert all(len(factor) == 3 for mono in rel.terms for factor in mono)
    with pytest.raises(DimensionMismatch):
        plucker_relation((1,), (2, 3, 4, 5), Window(0, 5))
    with pytest.raises(DimensionMismatch):
        plucker_relation((1, 6), (2, 3, 4), Window(0, 4))


def _assemble(m, l, members, pivot):
    total = WedgePolynomial.zero(m)
    for sign, block, residual in filtration_expansion(m, l, members, pivot):
        piece = poly_mul(WedgePolynomial.variable(block), hpf_polynomial(residual))
        total = total + sign * piece
    return total


def test_filtration_expansion_degree_three():
    members = tuple(range(1, 7))
    rows = filtration_expansion(2, 2, members, 1)
    assert len(rows) == 5 == comb(5, 1)
    assert all(block[0] == 1 for _, block, _ in rows)
    assert poly_equal(_assemble(2, 2, members, 1), hpf_polynomial(FormSpec(2, 3, members)))


def test_filtration_expansion_width_four():
    members = tuple(range(1, 9))
    rows = filtration_expansion(4, 1, members, 1)
    assert len(rows) == 35 == comb(7, 3)
    assert poly_equal(_assemble(4, 1, members, 1), hpf_polynomial(FormSpec(4, 2, members)))


def test_filtration_expansion_relabels_and_other_pivots():
    members = (-2, -1, 1, 3)
    for pivot in members:
        assert poly_equal(
            _assemble(2, 1, members, pivot), hpf_polynomial(FormSpec(2, 2, members))
        )
    shifted = (2, 5, 7, 11, 12, 20)
    assert poly_equal(_assemble(2, 2, shifted, 5), hpf_polynomial(FormSpec(2, 3, shifted)))
    # every pivot of every small shape, on labels straddling zero
    labels = (-4, -2, -1, 1, 3, 6, 7, 10)
    for m, l in ((2, 1), (2, 2), (2, 3), (4, 1)):
        members = labels[: m * (l + 1)]
        full = hpf_polynomial(FormSpec(m, l + 1, members))
        for pivot in members:
            assert len(filtration_expansion(m, l, members, pivot)) == comb(m * (l + 1) - 1, m - 1)
            assert poly_equal(_assemble(m, l, members, pivot), full)


def test_filtration_expansion_rejections():
    with pytest.raises(ValueError):
        filtration_expansion(3, 1, (1, 2, 3, 4, 5, 6), 1)
    with pytest.raises(ValueError):
        filtration_expansion(2, 1, (1, 2, 3, 4), 5)
    with pytest.raises(DimensionMismatch):
        filtration_expansion(2, 2, (1, 2, 3, 4), 1)


@pytest.mark.parametrize("degree", [True, 1.0, 1.5])
def test_filtration_expansion_degree_is_never_coerced(degree):
    with pytest.raises(ValueError):
        filtration_expansion(2, degree, (1, 2, 3, 4), 1)


def test_component_enumeration_counts():
    assert len(list(component_form_specs(2, 2, Window(2, 2)))) == 1
    assert len(list(component_form_specs(2, 2, Window(1, 2)))) == 0
    assert len(list(component_form_specs(2, 3, Window(2, 2)))) == 0
    assert len(list(component_form_specs(4, 2, Window(1, 2)))) == 0
    assert len(list(component_form_specs(2, 2, Window(3, 2)))) == 5
    specs = list(component_form_specs(2, 2, Window(2, 3)))
    assert len(specs) == 5
    for spec in specs:
        assert spec.grade == 3
        assert len(spec.tail) == 1
        assert not set(spec.indices) & set(spec.tail)


def test_component_enumeration_structure():
    # every J is exactly the window remainder when sizes force it
    only = next(iter(component_form_specs(2, 2, Window(2, 2))))
    assert only.indices == (-2, -1, 1, 2)
    assert only.tail == ()
    counted = list(component_form_specs(2, 2, Window(2, 4)))
    assert len(counted) == comb(6, 4) * comb(2, 2)
    # the specs skip the constructor's checks but equal its results
    for spec in component_form_specs(2, 1, Window(2, 3)):
        checked = FormSpec(spec.m, spec.l, spec.indices, spec.tail)
        assert spec == checked and hash(spec) == hash(checked)
        assert spec.label == checked.label


def test_vanishing_locus_is_gl_stable():
    rng = random.Random(67)
    window = Window(0, 4)
    spec = FormSpec(2, 2, window.elements())
    for _ in range(50):
        v = random_decomposable(rng, window, 2, bound=4)
        assert hpf_eval(spec, v) == 0
        moved = gl_apply(random_invertible(rng, window), v)
        assert hpf_eval(spec, moved) == 0


def test_power_vanishing_matches_form_vanishing():
    rng = random.Random(71)
    cases = ((2, 2, Window(2, 3)), (2, 3, Window(3, 4)), (4, 2, Window(4, 5)))
    for m, l, window in cases:
        labels = window.elements()
        for _ in range(15):
            v = random_multivector(rng, window, m, max_terms=3, bound=4)
            power_zero = wedge_power(v, l).is_zero()
            forms_zero = all(
                hpf_eval(FormSpec(m, l, A), v) == 0
                for A in combinations(labels, m * l)
            )
            assert power_zero == forms_zero


def test_contracted_power_coefficients_are_signed_relative_forms():
    # contracting T highest label first, the e_K coefficient of (iota_T v)^l
    # is l! * (-1)^#{(t, k) in T x K : t < k} * hpf(m, l)@K|T(v)
    rng = random.Random(73)
    seen = {"nonzero": 0, "negative sign": 0, "p/q": 0}
    checked = 0
    while checked < 150:
        window = Window(rng.randint(0, 3), rng.randint(1, 4))
        m, l = rng.randint(1, 3), rng.randint(1, 3)
        if m * l > window.size:
            continue
        labels = window.elements()
        tail = tuple(sorted(rng.sample(labels, rng.randint(0, window.size - m * l))))
        key = tuple(sorted(rng.sample([x for x in labels if x not in tail], m * l)))
        v = random_multivector(rng, window, m + len(tail), max_terms=30, bound=4)
        v = v * Fraction(1, rng.randint(1, 3))
        contracted = v
        for t in reversed(tail):
            contracted = contract(Covector.dual_basis(window, t), contracted)
        coeff = wedge_power(contracted, l).coeff(key)
        sign = -1 if sum(t < k for t in tail for k in key) % 2 else 1
        assert coeff == factorial(l) * sign * hpf_eval(FormSpec(m, l, key, tail), v)
        seen["nonzero"] += coeff != 0
        seen["negative sign"] += coeff != 0 and sign < 0
        seen["p/q"] += coeff.denominator > 1
        checked += 1
    assert min(seen.values()) >= 15, seen


def test_pfaffian_square_is_determinant():
    rng = random.Random(83)
    for size in (2, 4, 6, 8):
        window = Window(0, size)
        entries = {}
        terms = {}
        for i, j in combinations(window.elements(), 2):
            c = Fraction(rng.randint(-6, 6))
            entries[(i, j)] = c
            if c:
                terms[(i, j)] = c
        v = Multivector(window, 2, terms)
        matrix = RationalMatrix.from_function(
            window,
            lambda r, c: entries.get((r, c), -entries.get((c, r), Fraction(0)) * 1),
        )
        pf = hpf_eval(FormSpec(2, size // 2, window.elements()), v)
        assert pf * pf == matrix.det()
    for size in (3, 5, 7):
        window = Window(0, size)
        skew = RationalMatrix.from_function(
            window,
            lambda r, c: Fraction(rng.randint(-6, 6)) if r < c else Fraction(0),
        )
        anti = RationalMatrix.from_function(
            window, lambda r, c: skew.entry(r, c) - skew.entry(c, r)
        )
        assert anti.det() == 0
