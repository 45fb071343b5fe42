"""Membership engines, witness generators, and the contraction tests."""
import random
from fractions import Fraction
from itertools import combinations, product

import pytest

import tuple_kernel as oracle
from hyperwedge.forms import FormSpec, hpf_eval, plucker_relation
from hyperwedge.indices import DimensionMismatch, Window
from hyperwedge.multivector import (
    Covector,
    Multivector,
    _plucker_violation,
    contract,
    gl_apply,
    hodge_star,
    rank_two_form,
    transition,
    wedge,
    wedge_power,
)
from hyperwedge.polynomials import poly_eval
from hyperwedge.varieties import (
    MembershipReport,
    TypeSpec,
    VarietySpec,
    check_membership,
    contraction_membership,
    in_dual_hpf,
    in_grassmannian,
    in_hpf,
    in_hpf_component,
    in_pf,
    in_two_sided,
    odd_partition_check,
    pf_contraction_identically_zero,
    pf_contraction_witness,
    type_witness,
)

from conftest import (
    is_decomposable_oracle,
    random_decomposable,
    random_invertible,
    random_multivector,
    random_vector,
)


def basis(window, *indices):
    return Multivector.basis(window, indices)


def rank_two_sample(window):
    """e1^e2 + e3^e4, the standard rank-two form."""
    return basis(window, 1, 2) + basis(window, 3, 4)


def sec51_trivector():
    w = Window(4, 3)
    core = basis(w, -4, -3) + basis(w, -2, -1) + basis(w, 1, 2)
    return wedge(core, basis(w, 3)), w


def sec51_member():
    w = Window(4, 3)
    return basis(w, -4, -3, -2) + basis(w, -1, 1, 2), w


def sec52_four_vector():
    w = Window(5, 4)
    return (
        basis(w, -5, -4, -3, -2)
        + basis(w, -1, 1, 2, 3)
        + basis(w, -5, -4, -3, -1)
        + basis(w, -2, 1, 2, 3)
        + basis(w, -5, -2, -1, 4)
    ), w


# ----------------------------------------------------------------- in_pf

def test_pf_membership_basics():
    w = Window(0, 4)
    assert in_pf(1, Multivector.zero(w, 2)).member
    v = rank_two_sample(w)
    low = in_pf(2, v)
    assert not low.member
    assert low.certificate["kind"] == "violated_form"
    assert low.certificate["label"] == "hpf(2,2)@1,2,3,4"
    assert Fraction(low.certificate["value"]) == 1
    assert low.certificate["power_coordinate"] == [1, 2, 3, 4]
    assert in_pf(3, v).member
    with pytest.raises(DimensionMismatch):
        in_pf(2, Multivector.zero(w, 3))


def test_pf_matches_rank():
    rng = random.Random(5)
    w = Window(2, 3)
    for _ in range(30):
        v = random_multivector(rng, w, 2, max_terms=4, bound=4)
        r = rank_two_form(v)
        for l in (1, 2, 3):
            assert in_pf(l, v).member == (r <= l - 1)


def test_pf_decomposables_have_rank_one():
    rng = random.Random(6)
    w = Window(1, 3)
    for _ in range(20):
        assert in_pf(2, random_decomposable(rng, w, 2)).member


# -------------------------------------------------------- in_grassmannian

def test_grassmannian_basis_and_split():
    w = Window(0, 4)
    assert in_grassmannian(basis(w, 1, 2, 3, 4)).member
    report = in_grassmannian(rank_two_sample(w))
    assert not report.member
    assert report.certificate["kind"] == "violated_form"
    assert Fraction(report.certificate["value"]) != 0


def test_grassmannian_orbit_is_stable():
    rng = random.Random(8)
    w = Window(1, 3)
    for _ in range(20):
        v = random_decomposable(rng, w, 2)
        moved = gl_apply(random_invertible(rng, w), v)
        assert in_grassmannian(moved).member


def test_grassmannian_agrees_with_contraction_oracle():
    rng = random.Random(9)
    for window, grade in ((Window(2, 2), 2), (Window(1, 3), 2), (Window(2, 2), 3)):
        for _ in range(25):
            v = random_multivector(rng, window, grade, max_terms=3, bound=3)
            assert in_grassmannian(v).member == is_decomposable_oracle(v)


def test_grassmannian_low_and_top_grades_are_trivial():
    w = Window(1, 2)
    assert in_grassmannian(Multivector(w, 0, {(): Fraction(7)})).member
    rng = random.Random(10)
    assert in_grassmannian(random_vector(rng, w)).member
    top = basis(w, -1, 1, 2) + basis(w, -1, 1, 2)
    assert in_grassmannian(top).member


def test_grassmannian_commutes_with_star():
    rng = random.Random(11)
    w = Window(2, 2)
    for _ in range(20):
        v = random_multivector(rng, w, 2, max_terms=3, bound=3)
        assert in_grassmannian(v).member == in_grassmannian(hodge_star(v)).member


def scan_in_grassmannian(v):
    """The former in_grassmannian: every relation's polynomial, S outer, T inner."""
    count = 0
    if v.grade >= 1:
        labels = v.window.elements()
        for small in combinations(labels, v.grade - 1):
            for large in combinations(labels, v.grade + 1):
                relation = plucker_relation(small, large, v.window)
                value = poly_eval(relation, v)
                count += 1
                if value:
                    return MembershipReport(
                        False,
                        {
                            "kind": "violated_form",
                            "label": relation.label,
                            "value": str(value),
                        },
                    )
    return MembershipReport(True, {"kind": "all_forms_vanish", "count": count})


def test_grassmannian_matches_the_relation_scan():
    # decomposables, sums of 2-3 of them and sparse points, all with p/q
    # coefficients, at every grade of windows with and without negative labels
    rng = random.Random(91)
    seen = dict.fromkeys(
        ("member", "non-member", "p/q value", "negative labels", "grade 0", "grade N"), 0
    )
    for _ in range(600):
        n = rng.randint(0, 3)
        window = Window(n, rng.randint(1, 6 - n))
        size = window.size
        if size >= 4 and rng.random() < 0.7:
            g = rng.randint(2, size - 2)  # the grades where relations bind
        else:
            g = rng.randint(0, size)
        shape = rng.randrange(3)
        if shape < 2:
            v = Multivector.zero(window, g)
            for _ in range(1 if shape == 0 else rng.randint(2, 3)):
                v = v + _pq_product(rng, window, g)
        else:
            v = random_multivector(rng, window, g, max_terms=rng.randint(1, 8), bound=4)
            v = v * Fraction(rng.randint(1, 5), rng.randint(1, 4))
        report = in_grassmannian(v)
        assert report == scan_in_grassmannian(v)
        seen["member" if report.member else "non-member"] += 1
        seen["p/q value"] += "/" in report.certificate.get("value", "")
        seen["negative labels"] += window.n > 0
        seen["grade 0"] += g == 0
        seen["grade N"] += g == size
    assert seen["non-member"] >= 100 and min(seen.values()) >= 20, seen


def test_grassmannian_refutation_names_the_relation_label():
    # the label is formatted from the violated (S, T) without building the
    # relation; it must still be the label plucker_relation gives that pair
    rng = random.Random(92)
    refuted = 0
    for _ in range(60):
        n = rng.randint(0, 2)
        window = Window(n, rng.randint(4 - n, 5 - n))
        g = rng.randint(2, window.size - 2)
        v = _pq_product(rng, window, g) + _pq_product(rng, window, g)
        violation = _plucker_violation(v)
        report = in_grassmannian(v)
        assert report.member == (violation is None)
        if violation is not None:
            small, large, _ = violation
            label = plucker_relation(small, large, window).label
            assert report.certificate["label"] == label
            refuted += 1
    assert refuted >= 20


# ----------------------------------------------------------------- in_hpf

def test_hpf_accepts_the_five_term_four_vector():
    omega, w = sec52_four_vector()
    assert wedge_power(omega, 2).is_zero()
    report = in_hpf(4, 2, omega)
    assert report.member
    assert report.certificate["kind"] == "zero_power"


def test_hpf_rejects_the_split_eight():
    w = Window(0, 8)
    v = basis(w, 1, 2, 3, 4) + basis(w, 5, 6, 7, 8)
    report = in_hpf(4, 2, v)
    assert not report.member
    cert = report.certificate
    assert cert["kind"] == "violated_form"
    assert cert["power_coordinate"] == [1, 2, 3, 4, 5, 6, 7, 8]
    assert Fraction(cert["power_value"]) == 2
    with pytest.raises(DimensionMismatch):
        in_hpf(4, 2, Multivector.zero(w, 3))


def test_hpf_filtration_is_monotone():
    rng = random.Random(13)
    w = Window(2, 4)
    for _ in range(15):
        parts = rng.randint(1, 2)
        v = Multivector.zero(w, 2)
        for _ in range(parts):
            v = v + random_decomposable(rng, w, 2, bound=3)
        degree = oracle.nilpotency_degree(v)
        for l in range(1, degree + 2):
            member = in_hpf(2, l, v).member
            assert member == (l >= degree)


def test_hpf_membership_is_gl_stable():
    rng = random.Random(14)
    w = Window(1, 3)
    for _ in range(25):
        v = random_multivector(rng, w, 2, max_terms=3, bound=3)
        m = random_invertible(rng, w)
        assert in_hpf(2, 2, v).member == in_hpf(2, 2, gl_apply(m, v)).member


def test_lift_by_top_column_lands_in_hpf():
    # appending a fresh top index forces the square to vanish
    rng = random.Random(15)
    for _ in range(20):
        w = Window(4, 3)
        point = random_multivector(rng, w, 3, max_terms=4, bound=6)
        lifted = transition("j", point)
        assert lifted.window == Window(4, 4)
        assert in_hpf(4, 2, lifted).member
        assert transition("j_dagger", lifted) == point


def two_route_in_hpf(m, l, v):
    """The former in_hpf: wedge power and a scan of all C(N, m*l) forms."""
    power = wedge_power(v, l)
    violated = None
    count = 0
    for chosen in combinations(v.window.elements(), m * l):
        spec = FormSpec(m, l, chosen)
        value = hpf_eval(spec, v)
        count += 1
        if value:
            violated = (spec.label, value)
            break
    assert (violated is None) == power.is_zero()
    if violated is None:
        return MembershipReport(
            True, {"kind": "zero_power", "power": l, "forms_checked": count}
        )
    label, value = violated
    key = power.support()[0]
    cert = {
        "kind": "violated_form",
        "label": label,
        "value": str(value),
        "power": l,
        "power_coordinate": list(key),
        "power_value": str(power.coeff(key)),
    }
    return MembershipReport(False, cert)


def _pq_product(rng, window, m):
    """Wedge of m vectors with p/q entries: a decomposable element, maybe zero."""
    out = Multivector(window, 0, {(): Fraction(1)})
    for _ in range(m):
        entries = {
            (i,): Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            for i in rng.sample(window.elements(), rng.randint(1, min(3, window.size)))
        }
        out = wedge(out, Multivector(window, 1, entries))
    return out


def test_hpf_power_route_matches_the_form_scan():
    # sums of k decomposables vanish at power k + 1 for even m, odd m vanish
    # from the square on, and m*l beyond the window size leaves no form at all
    rng = random.Random(71)
    seen = {"member": 0, "non-member": 0, "even refuted at l > 1": 0, "m*l > N": 0}
    for _ in range(400):
        m = rng.randint(1, 4)
        l = rng.randint(1, 3)
        window = Window(rng.randint(0, 4), rng.randint(max(1, m - 3), 6))
        if rng.random() < 0.3:
            v = random_multivector(rng, window, m, max_terms=5, bound=4)
            v = v * Fraction(rng.randint(1, 5), rng.randint(1, 4))
        else:
            v = Multivector.zero(window, m)
            for _ in range(rng.randint(0, 3)):
                v = v + _pq_product(rng, window, m)
        report = in_hpf(m, l, v)
        assert report == two_route_in_hpf(m, l, v)
        seen["member" if report.member else "non-member"] += 1
        seen["even refuted at l > 1"] += not report.member and m % 2 == 0 and l > 1
        seen["m*l > N"] += m * l > window.size
    assert min(seen.values()) >= 20, seen


# ------------------------------------------------------ in_hpf_component

def test_component_trivial_regions():
    low_p = in_hpf_component(4, 2, random_multivector(random.Random(16), Window(2, 2), 2))
    assert low_p.member
    assert low_p.certificate["kind"] == "trivial_region"
    assert "p" in low_p.certificate["reason"]
    shallow = in_hpf_component(4, 2, random_multivector(random.Random(17), Window(3, 4), 4))
    assert shallow.member
    assert shallow.certificate["kind"] == "trivial_region"


def test_component_agrees_with_power_test_at_square_window():
    rng = random.Random(18)
    w = Window(4, 4)
    for _ in range(30):
        v = random_multivector(rng, w, 4, max_terms=3, bound=3)
        assert in_hpf_component(4, 2, v).member == in_hpf(4, 2, v).member


def test_component_rejects_with_form_certificate():
    w = Window(2, 2)
    v = basis(w, -2, -1) + basis(w, 1, 2)
    report = in_hpf_component(2, 2, v)
    assert not report.member
    assert report.certificate["kind"] == "violated_form"
    assert report.certificate["label"].startswith("hpf(2,2)@")
    with pytest.raises(DimensionMismatch):
        in_hpf_component(2, 2, Multivector.zero(Window(2, 2), 1))


def test_component_grid_matches_rank_and_decomposability():
    # exhaustive +-1/0 grid over the six coordinates of grade 2 in (2,2)
    w = Window(2, 2)
    keys = list(combinations(w.elements(), 2))
    hits = 0
    for values in product((-1, 0, 1), repeat=6):
        v = Multivector(w, 2, dict(zip(keys, map(Fraction, values))))
        member = in_hpf_component(2, 2, v).member
        assert member == (rank_two_form(v) <= 1)
        assert member == is_decomposable_oracle(v)
        hits += member
    assert 0 < hits < 3**6


# ------------------------------------------------- dual and two-sided

def test_dual_membership():
    w = Window(0, 4)
    assert in_dual_hpf(2, 2, Multivector.zero(w, 2)).member
    starred = hodge_star(rank_two_sample(w))
    report = in_dual_hpf(2, 2, starred)
    assert not report.member
    assert report.certificate["kind"] == "nonzero_power"
    with pytest.raises(DimensionMismatch):
        in_dual_hpf(2, 2, Multivector.zero(w, 3))


def test_dual_refutation_names_the_lowest_power_coordinate():
    # the starred element's square has three coordinates; the certificate
    # names the lowest, not the first stored or the last
    w = Window(3, 3)
    v = (
        Multivector.basis(w, (-3, -2, 1, 2))
        + Multivector.basis(w, (-1, 1, 2, 3), 2)
        + Multivector.basis(w, (-3, -2, -1, 3), 3)
    )
    power = wedge_power(hodge_star(v), 2)
    assert power.support() == ((-3, -2, -1, 1), (-3, 1, 2, 3), (-2, -1, 2, 3))
    report = in_dual_hpf(2, 2, v)
    assert not report.member
    assert report.certificate == {
        "kind": "nonzero_power",
        "power": 2,
        "coordinate": [-3, -2, -1, 1],
        "value": "6",
        "side": "dual",
    }


def test_dual_accepts_punctured_top_wedges():
    w = Window(2, 3)
    labels = w.elements()
    for removed in combinations(labels, 2):
        kept = tuple(x for x in labels if x not in removed)
        v = Multivector.basis(w, kept)
        assert in_dual_hpf(2, 2, v).member


def test_two_sided_conjunction():
    w = Window(2, 2)
    assert in_two_sided(4, 2, 4, 2, Multivector.zero(w, 2)).member
    v = basis(w, -2, -1) + basis(w, 1, 2)
    report = in_two_sided(4, 2, 2, 2, v)
    assert not report.member
    cert = report.certificate
    assert cert["kind"] == "two_sided"
    assert cert["primal"]["kind"] == "trivial_region"
    assert cert["dual"]["kind"] == "violated_form"
    assert Fraction(cert["dual"]["value"]) == 1
    both_trivial = in_two_sided(4, 2, 4, 2, v)
    assert both_trivial.member
    assert both_trivial.certificate["primal"]["kind"] == "trivial_region"
    assert both_trivial.certificate["dual"]["kind"] == "trivial_region"


def test_two_sided_dual_side_names_r_and_s():
    report = in_two_sided(2, 2, 2, 3, basis(Window(3, 2), 1, 2))
    assert report.certificate["dual"] == {
        "kind": "trivial_region", "reason": "p = 2 < r*(s-1) = 4"}
    v = basis(Window(2, 2), 1, 2)
    with pytest.raises(ValueError, match=r"^r must be a positive integer, got 0$"):
        in_two_sided(2, 2, 0, 2, v)
    with pytest.raises(ValueError, match=r"^s must be a positive integer, got 0$"):
        in_two_sided(2, 2, 2, 0, v)


# ------------------------------------------------------------ nilpotency

def test_nilpotency_degrees():
    # the least vanishing power is one past the rank
    w = Window(0, 6)
    three = basis(w, 1, 2) + basis(w, 3, 4) + basis(w, 5, 6)
    for v, degree in ((Multivector.zero(w, 2), 1), (basis(w, 1, 2), 2), (three, 4)):
        assert oracle.nilpotency_degree(v) == degree == rank_two_form(v) + 1


def test_nilpotency_degree_is_tight():
    rng = random.Random(19)
    w = Window(3, 3)
    for _ in range(20):
        v = random_multivector(rng, w, 2, max_terms=4, bound=3)
        d = rank_two_form(v) + 1
        assert wedge_power(v, d).is_zero()
        if d > 1:
            assert not wedge_power(v, d - 1).is_zero()
        bound = (w.size // 2) + 1
        assert d <= bound


# ---------------------------------------------------------- type witnesses

def test_type_witness_shape_and_determinism():
    ts = TypeSpec((2, 1), 2)
    w = Window(4, 3)
    a = type_witness(ts, w, seed=123)
    b = type_witness(ts, w, seed=123)
    assert a == b
    assert a.grade == 3
    assert not a.is_zero()
    assert type_witness(ts, w, seed=124) != a


def test_type_witness_vector_products_are_decomposable():
    w = Window(2, 3)
    ts = TypeSpec((1, 1, 1), 1)
    for seed in range(10):
        v = type_witness(ts, w, seed=seed)
        assert in_grassmannian(v).member


def test_type_witness_infeasible():
    with pytest.raises(DimensionMismatch):
        type_witness(TypeSpec((3, 2), 1), Window(1, 3), seed=0)
    with pytest.raises(ValueError):
        TypeSpec((2, 0), 1)
    with pytest.raises(ValueError):
        TypeSpec((2, 1), 0)


def test_odd_partition_nilpotency():
    assert odd_partition_check(TypeSpec((2, 1), 2), 50, Window(6, 3), seed=31)
    assert odd_partition_check(TypeSpec((1,), 1), 25, Window(2, 2), seed=32)
    with pytest.raises(ValueError):
        odd_partition_check(TypeSpec((2, 2), 1), 5, Window(2, 2), seed=33)
    for samples in (-3, 0, True, 2.0):
        with pytest.raises(ValueError, match="samples"):
            odd_partition_check(TypeSpec((1,), 1), samples, Window(2, 2), seed=34)


def test_even_partition_contrast():
    # rank two shows the odd-part hypothesis cannot be dropped
    w = Window(0, 4)
    v = rank_two_sample(w)
    assert not wedge_power(v, 2).is_zero()


# ------------------------------------------------------- contraction tests

def test_trivector_contraction_criterion_on_named_points():
    t, _ = sec51_trivector()
    assert not pf_contraction_identically_zero(t)
    witness = pf_contraction_witness(t)
    assert witness is not None
    assert witness.items() == ((3, Fraction(1)),)
    u, _ = sec51_member()
    assert pf_contraction_identically_zero(u)
    assert pf_contraction_witness(u) is None


def test_trivector_witness_value_is_frozen():
    t, w = sec51_trivector()
    f = Covector.dual_basis(w, 3)
    contracted = contract(f, t)
    assert rank_two_form(contracted) == 3
    blow_up = wedge(t, wedge_power(contracted, 2))
    expected = Multivector.basis(w, (-4, -3, -2, -1, 1, 2, 3), 6)
    assert blow_up == expected


def test_trivector_criterion_accepts_decomposables():
    rng = random.Random(37)
    w = Window(2, 3)
    for _ in range(20):
        assert pf_contraction_identically_zero(random_decomposable(rng, w, 3, bound=4))
    with pytest.raises(DimensionMismatch):
        pf_contraction_identically_zero(Multivector.zero(w, 2))


def test_contraction_membership_on_named_points():
    t, _ = sec51_trivector()
    bad = contraction_membership(2, 3, t, trials=16, seed=41)
    assert not bad.member
    assert bad.certificate["kind"] == "violated_contraction"
    assert bad.trials == 16
    u, _ = sec51_member()
    good = contraction_membership(2, 3, u, trials=64, seed=42)
    assert good.member
    assert good.certificate["kind"] == "trials_passed"
    assert good.certificate["count"] == 64
    assert good.certificate["entry_bound"] == 2**19


def test_contraction_refutation_names_the_lowest_power_coordinate():
    # recompute the refuting trial's power from the certificate's covectors:
    # it has seven coordinates, and the certificate names the lowest
    t, w = sec51_trivector()
    cert = contraction_membership(2, 3, t, trials=16, seed=41).certificate
    current = t
    for entries in cert["covectors"]:
        f = Covector(w, {label: Fraction(c) for label, c in entries})
        current = contract(f, current)
    power = wedge_power(current, cert["power"])
    assert len(power.support()) == 7
    low = power.support()[0]
    assert cert["coordinate"] == list(low)
    assert cert["value"] == str(power.coeff(low))


def test_contraction_membership_determinism_and_errors():
    t, _ = sec51_trivector()
    a = contraction_membership(2, 3, t, trials=8, seed=7)
    b = contraction_membership(2, 3, t, trials=8, seed=7)
    assert a == b
    with pytest.raises(DimensionMismatch):
        contraction_membership(4, 2, t, trials=4, seed=1)


def test_contraction_membership_accepts_decomposables():
    rng = random.Random(43)
    w = Window(1, 4)
    for _ in range(10):
        v = random_decomposable(rng, w, 3, bound=4)
        assert contraction_membership(2, 2, v, trials=12, seed=44).member


def test_exact_and_randomized_contraction_tests_agree():
    rng = random.Random(47)
    w = Window(4, 3)
    samples = [sec51_trivector()[0], sec51_member()[0]]
    for _ in range(10):
        samples.append(random_multivector(rng, w, 3, max_terms=4, bound=4))
        samples.append(
            random_decomposable(rng, w, 3, bound=3)
            + random_decomposable(rng, w, 3, bound=3)
        )
    for v in samples:
        randomized = contraction_membership(2, 3, v, trials=24, seed=48)
        if not randomized.member:
            assert not pf_contraction_identically_zero(v)
        if pf_contraction_identically_zero(v):
            assert randomized.member


# ------------------------------------------------------------- dispatch

def test_variety_spec_validation_and_dispatch():
    w = Window(0, 4)
    v = rank_two_sample(w)
    assert not check_membership(VarietySpec.pf(2), v).member
    assert check_membership(VarietySpec.pf(3), v).member
    assert not check_membership(VarietySpec.grassmannian(), v).member
    assert not check_membership(VarietySpec.hpf(2, 2), v).member
    top = Multivector.zero(Window(2, 2), 2)
    assert check_membership(VarietySpec.two_sided(2, 2, 2, 2), top).member
    star_side = Multivector.zero(w, 2)
    assert check_membership(VarietySpec.dual_hpf(2, 2), star_side).member
    with pytest.raises(ValueError):
        VarietySpec.hpf(3, 2)
    with pytest.raises(ValueError):
        VarietySpec.pf(0)
    with pytest.raises(ValueError):
        VarietySpec.two_sided(2, 2, 5, 1)
    with pytest.raises(ValueError):
        VarietySpec("nonsense")
    # a parameter the kind does not take is refused, not stored
    with pytest.raises(ValueError, match="takes no parameter m"):
        VarietySpec("pf", l=2, m=3)
    with pytest.raises(ValueError, match="takes no parameter s"):
        VarietySpec("grassmannian", s="x")


def test_check_membership_hpf_dispatches_on_grade():
    # grade m runs the power test, full window grade the component test
    rng = random.Random(31)
    w = Window(2, 3)
    points = [random_decomposable(rng, w, 3, bound=3) for _ in range(3)]
    points += [random_multivector(rng, w, 3) for _ in range(3)]
    verdicts = set()
    for v in points:
        report = check_membership(VarietySpec.hpf(2, 2), v)
        assert report == in_hpf_component(2, 2, v)
        verdicts.add(report.member)
    assert verdicts == {True, False}
    for grade in (1, 4):
        with pytest.raises(DimensionMismatch):
            check_membership(VarietySpec.hpf(2, 2), random_multivector(rng, w, grade))


def test_variety_spec_descriptions():
    assert VarietySpec.grassmannian().describe() == "Gr"
    assert VarietySpec.pf(3).describe() == "Pf(3)"
    assert VarietySpec.hpf(2, 2).describe() == "HPf(2,2)"
    assert VarietySpec.dual_hpf(4, 2).describe() == "HPf*(4,2)"
    assert VarietySpec.two_sided(2, 2, 4, 3).describe() == "HPf(2,2)&HPf*(4,3)"


def test_report_serialization():
    w = Window(0, 4)
    report = in_pf(2, rank_two_sample(w))
    obj = report.to_obj()
    assert obj["member"] is False
    assert obj["certificate"]["kind"] == "violated_form"
    assert obj["trials"] is None
    passed = contraction_membership(2, 3, sec51_member()[0], trials=5, seed=3)
    obj2 = passed.to_obj()
    assert obj2["trials"] == 5
    assert obj2["seed"] == 3
