import random
import time
from fractions import Fraction
from itertools import combinations

import pytest
from conftest import (
    det_oracle,
    is_decomposable_oracle,
    random_decomposable,
    random_invertible,
    random_matrix,
    random_multivector,
    random_vector,
    rank_oracle,
)

from hyperwedge.forms import FormSpec, hpf_multilinear, wedge_via_hpf
from hyperwedge.indices import DimensionMismatch, GoodParams, Window, is_good
from hyperwedge.multivector import (
    Covector,
    FormatError,
    Multivector,
    RationalMatrix,
    contract,
    gl_apply,
    hodge_star,
    multivector_from_obj,
    multivector_to_obj,
    rank_two_form,
    transition,
    wedge,
    wedge_power,
)

W23 = Window(2, 3)


def basis(window, *indices):
    return Multivector.basis(window, indices)


def matmul(a, b):
    """The product of two matrices over one window, entry by entry."""
    labels = a.window.elements()
    return RationalMatrix.from_function(
        a.window, lambda r, c: sum((a.entry(r, k) * b.entry(k, c) for k in labels), Fraction(0))
    )


# ---------------------------------------------------------------- structure

def test_zero_keeps_grade_and_window():
    z = Multivector.zero(W23, 2)
    assert z.is_zero()
    assert z.grade == 2 and z.window == W23
    assert z != Multivector.zero(W23, 3)


def test_constructor_rejects_sloppy_terms():
    with pytest.raises(DimensionMismatch):
        Multivector(W23, 2, {(1, 2, 3): Fraction(1)})
    with pytest.raises(DimensionMismatch):
        Multivector(W23, 1, {(7,): Fraction(1)})
    with pytest.raises(ValueError):
        Multivector(W23, 2, {(2, 1): Fraction(1)})
    with pytest.raises(TypeError):
        Multivector(W23, 1, {(1,): 0.5})


@pytest.mark.parametrize("second", [2, 0, Fraction(1)])
def test_constructor_rejects_a_repeated_key(second):
    # neither value wins, not even when the repeat's coefficient is zero
    with pytest.raises(ValueError, match=r"term \(1,\) is given twice"):
        Multivector(W23, 1, [((1,), 1), ((1,), second)])
    with pytest.raises(ValueError, match="given twice"):
        Multivector(W23, 2, [((1, 2), 0), ((-1, 3), 5), ((1, 2), second)])


@pytest.mark.parametrize("label", [1.5, 1.0, "1", True, Fraction(1), None])
def test_labels_must_be_plain_nonzero_ints(label):
    # nothing is truncated or coerced into e(1), neither in terms nor lookups
    with pytest.raises(ValueError):
        Multivector(Window(2, 2), 1, {(label,): 1})
    with pytest.raises(ValueError):
        basis(W23, 1).coeff((label,))


@pytest.mark.parametrize("grade", [True, 1.0, 1.5])
def test_grades_are_never_coerced(grade):
    with pytest.raises(ValueError):
        Multivector(W23, grade)


@pytest.mark.parametrize("power", [True, 1.0, 1.5])
def test_wedge_powers_are_never_coerced(power):
    with pytest.raises(ValueError):
        wedge_power(basis(W23, 1), power)


@pytest.mark.parametrize("label", [True, 1.0, 1.5])
def test_covector_labels_are_never_coerced(label):
    identity = RationalMatrix.identity(W23)
    lookups = [
        lambda: Covector(W23, {label: 1}),
        lambda: Covector(W23, {1: 5}).coeff(label),
        lambda: identity.entry(label, 1),
        lambda: identity.entry(1, label),
        lambda: identity.column(label),
    ]
    for lookup in lookups:
        with pytest.raises(ValueError):
            lookup()


def test_basis_constructor_signs():
    assert basis(W23, 2, 1) == -basis(W23, 1, 2)
    assert Multivector.basis(W23, (1, 1)).is_zero()


def test_linear_operations():
    u = basis(W23, 1) + 2 * basis(W23, 2)
    v = basis(W23, 1) - basis(W23, 2)
    assert u + v == 2 * basis(W23, 1) + basis(W23, 2)
    assert (u - u).is_zero()
    assert u.coeff((2,)) == 2
    assert u.coeff((3,)) == 0


# ---------------------------------------------------------------- wedge

def test_wedge_basis_examples():
    w = Window(0, 4)
    assert wedge(basis(w, 1), basis(w, 2)) == basis(w, 1, 2)
    assert wedge(basis(w, 2), basis(w, 1)) == -basis(w, 1, 2)
    assert wedge(basis(w, 1), basis(w, 1)).is_zero()


def test_wedge_square_of_rank_two():
    w = Window(0, 4)
    v = basis(w, 1, 2) + basis(w, 3, 4)
    assert wedge(v, v) == 2 * basis(w, 1, 2, 3, 4)


def test_wedge_power_examples():
    w = Window(0, 6)
    v = basis(w, 1, 2) + basis(w, 3, 4) + basis(w, 5, 6)
    assert wedge_power(v, 2) == 2 * (
        basis(w, 1, 2, 3, 4) + basis(w, 1, 2, 5, 6) + basis(w, 3, 4, 5, 6)
    )
    assert wedge_power(v, 3) == 6 * basis(w, 1, 2, 3, 4, 5, 6)
    assert wedge_power(v, 4).is_zero()
    one = wedge_power(v, 0)
    assert one.grade == 0 and one.coeff(()) == 1
    assert wedge_power(basis(w, 1, 2, 3), 2).is_zero()


def test_wedge_window_mismatch():
    with pytest.raises(DimensionMismatch):
        wedge(basis(Window(0, 2), 1), basis(Window(0, 3), 1))


def test_wedge_graded_commutativity_and_associativity():
    rng = random.Random(11)
    w = Window(2, 2)
    for _ in range(40):
        gu, gv, gt = rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2)
        u = random_multivector(rng, w, gu)
        v = random_multivector(rng, w, gv)
        t = random_multivector(rng, w, gt)
        sign = -1 if (gu * gv) % 2 else 1
        assert wedge(u, v) == sign * wedge(v, u)
        assert wedge(wedge(u, v), t) == wedge(u, wedge(v, t))


# ---------------------------------------------------------------- contract

def test_contract_basis_examples():
    w = Window(0, 3)
    e12 = basis(w, 1, 2)
    assert contract(Covector.dual_basis(w, 2), e12) == basis(w, 1)
    assert contract(Covector.dual_basis(w, 1), e12) == -basis(w, 2)
    assert contract(Covector.dual_basis(w, 3), e12).is_zero()


def test_contract_rejects_scalars_and_foreign_windows():
    w = Window(0, 3)
    with pytest.raises(DimensionMismatch):
        contract(Covector.dual_basis(w, 1), Multivector(w, 0, {(): Fraction(2)}))
    with pytest.raises(DimensionMismatch):
        contract(Covector.dual_basis(Window(0, 2), 1), basis(w, 1, 2))


def test_contract_is_a_right_derivation():
    # contract(f, u^w) = u^contract(f,w) + (-1)^grade(w) contract(f,u)^w
    rng = random.Random(12)
    win = Window(2, 2)
    for _ in range(60):
        gu, gw = rng.randint(1, 2), rng.randint(1, 2)
        u = random_multivector(rng, win, gu)
        v = random_multivector(rng, win, gw)
        f = Covector(win, {i: Fraction(rng.randint(-4, 4)) for i in win.elements()})
        lhs = contract(f, wedge(u, v))
        sign = -1 if gw % 2 else 1
        rhs = wedge(u, contract(f, v)) + sign * wedge(contract(f, u), v)
        assert lhs == rhs


def test_contract_bilinearity():
    rng = random.Random(13)
    win = Window(1, 3)
    for _ in range(30):
        u = random_multivector(rng, win, 2)
        v = random_multivector(rng, win, 2)
        f = Covector(win, {1: Fraction(2), -1: Fraction(-3)})
        assert contract(f, u + v) == contract(f, u) + contract(f, v)


# ---------------------------------------------------------------- transitions

def test_transition_j_appends_top_index():
    v = basis(Window(0, 2), 1, 2)
    out = transition("j", v)
    assert out == basis(Window(0, 3), 1, 2, 3)
    assert out.grade == 3 and out.window == Window(0, 3)


def test_transition_i_reinterprets_window():
    v = basis(Window(1, 2), -1, 2)
    out = transition("i", v)
    assert out.window == Window(2, 2)
    assert out.coeff((-1, 2)) == 1


def test_transition_i_dagger_drops_deepest_terms():
    w = Window(4, 4)
    v = basis(w, -4, 1, 2) + 5 * basis(w, -3, 1, 2)
    out = transition("i_dagger", v)
    assert out.window == Window(3, 4)
    assert out == 5 * basis(Window(3, 4), -3, 1, 2)


def test_transition_j_dagger_contracts_top_index():
    w = Window(0, 3)
    v = basis(w, 1, 3) + basis(w, 1, 2)
    out = transition("j_dagger", v)
    assert out == basis(Window(0, 2), 1)


def test_transition_preconditions():
    with pytest.raises(DimensionMismatch):
        transition("i_dagger", basis(Window(0, 2), 1))
    with pytest.raises(DimensionMismatch):
        transition("j_dagger", Multivector(Window(1, 1), 0, {(): Fraction(1)}))
    with pytest.raises(ValueError):
        transition("k", basis(Window(0, 2), 1))


def test_transition_squares_commute_and_compose_to_identity():
    rng = random.Random(14)
    for _ in range(60):
        n, p = rng.randint(1, 4), rng.randint(1, 4)
        w = Window(n, p)
        v = random_multivector(rng, w, rng.randint(0, min(3, w.size)))
        assert transition("j", transition("i", v)) == transition(
            "i", transition("j", v)
        )
        assert transition("i_dagger", transition("i", v)) == v
        if not v.grade:
            continue
        big = transition("j", transition("i", v))
        assert transition("j_dagger", transition("i_dagger", big)) == transition(
            "i_dagger", transition("j_dagger", big)
        )
        assert transition("j_dagger", transition("j", v)) == v


def test_inverse_limit_element_compatibility():
    def chain(window, p):
        out = Multivector(window, 0, {(): Fraction(1)})
        for k in range(1, p):
            out = wedge(out, Multivector.basis(window, (k,)) + Multivector.basis(window, (k + 1,)))
        return wedge(out, Multivector.basis(window, (p,)))

    for n in range(0, 6):
        for p in range(1, 6):
            v = chain(Window(n, p), p)
            assert transition("j_dagger", chain(Window(n, p + 1), p + 1)) == v
            assert transition("i_dagger", chain(Window(n + 1, p), p)) == v


# ---------------------------------------------------------------- hodge star

def test_hodge_star_reproduces_worked_four_vector():
    w = Window(4, 3)
    core = basis(w, -4, -3) + basis(w, -2, -1) + basis(w, 1, 2)
    t = wedge(core, basis(w, 3))
    expected_window = Window(3, 4)
    expected = (
        basis(expected_window, -2, -1, 1, 2)
        + basis(expected_window, -2, -1, 3, 4)
        + basis(expected_window, 1, 2, 3, 4)
    )
    assert hodge_star(t) == expected


def test_hodge_star_of_basis_wedge_is_basis_wedge():
    w = Window(1, 3)
    out = hodge_star(basis(w, 1, 2, 3))
    assert out.window == Window(3, 1)
    assert len(out.support()) == 1
    assert is_decomposable_oracle(out)


def test_hodge_star_is_an_involution():
    # the dual pullback reads x'_K as the star of e_K, so the double star is
    # the identity itself, not only up to sign
    rng = random.Random(15)
    for n in range(5):
        for p in range(5):
            w = Window(n, p)
            for grade in range(w.size + 1):
                for key in combinations(w.elements(), grade):
                    e = Multivector.basis(w, key)
                    assert hodge_star(hodge_star(e)) == e
                v = random_multivector(rng, w, grade)
                assert hodge_star(hodge_star(v)) == v


def test_hodge_star_sends_decomposables_to_decomposables():
    rng = random.Random(16)
    for _ in range(50):
        n, p = rng.randint(1, 3), rng.randint(1, 3)
        w = Window(n, p)
        grade = rng.randint(1, w.size - 1)
        v = random_decomposable(rng, w, grade)
        assert is_decomposable_oracle(hodge_star(v))


# ---------------------------------------------------------------- gl action

def test_gl_identity_and_scaling():
    w = Window(1, 2)
    v = basis(w, -1, 1) + 3 * basis(w, 1, 2)
    assert gl_apply(RationalMatrix.identity(w), v) == v
    lam = Fraction(3, 2)
    scal = RationalMatrix.from_function(w, lambda r, c: lam if r == c else Fraction(0))
    assert gl_apply(scal, v) == lam**2 * v


def test_gl_swap_flips_plane_sign():
    w = Window(0, 2)

    def swap(r, c):
        return Fraction(1) if {r, c} == {1, 2} else Fraction(0)

    m = RationalMatrix.from_function(w, swap)
    assert gl_apply(m, basis(w, 1, 2)) == -basis(w, 1, 2)


def test_gl_functoriality():
    rng = random.Random(17)
    w = Window(2, 2)
    for _ in range(50):
        m = random_matrix(rng, w, 3)
        k = random_matrix(rng, w, 3)
        v = random_multivector(rng, w, 2)
        assert gl_apply(matmul(m, k), v) == gl_apply(m, gl_apply(k, v))


def test_gl_coefficients_are_minors():
    rng = random.Random(18)
    w = Window(0, 4)
    m = random_matrix(rng, w, 4)
    image = gl_apply(m, basis(w, 1, 3))
    for rows in [(1, 2), (2, 4), (3, 4)]:
        sub = RationalMatrix(
            Window(0, 2),
            [[m.entry(r, c) for c in (1, 3)] for r in rows],
        )
        assert image.coeff(rows) == det_oracle(sub)


def test_gl_accepts_singular_maps():
    w = Window(0, 2)
    zero = RationalMatrix.from_function(w, lambda r, c: Fraction(0))
    assert gl_apply(zero, basis(w, 1, 2)).is_zero()
    # equal columns 1 and 2: a minor cancels after the second column wedge
    rng = random.Random(19)
    w = Window(0, 4)
    full = random_matrix(rng, w, 4)
    m = RationalMatrix.from_function(w, lambda r, c: full.entry(r, 1 if c == 2 else c))
    v = basis(w, 1, 2, 3) + 2 * basis(w, 1, 3, 4) - basis(w, 2, 3, 4)
    columns = {c: gl_apply(m, basis(w, c)) for c in w.elements()}
    expected = Multivector.zero(w, 3)
    for a, b, c in v.support():
        expected = expected + v.coeff((a, b, c)) * wedge(wedge(columns[a], columns[b]), columns[c])
    assert gl_apply(m, basis(w, 1, 2, 3)).is_zero()
    assert gl_apply(m, v) == expected


# ---------------------------------------------------------------- rank

def test_rank_two_form_examples():
    w = Window(0, 4)
    assert rank_two_form(Multivector.zero(w, 2)) == 0
    assert rank_two_form(basis(w, 1, 2)) == 1
    assert rank_two_form(basis(w, 1, 2) + basis(w, 3, 4)) == 2
    with pytest.raises(DimensionMismatch):
        rank_two_form(basis(w, 1))


def test_rank_two_form_matches_matrix_rank():
    rng = random.Random(19)
    w = Window(2, 2)
    for _ in range(40):
        v = random_multivector(rng, w, 2, max_terms=5)
        labels = w.elements()

        def entry(r, c):
            if r == c:
                return Fraction(0)
            if r < c:
                return v.coeff((r, c))
            return -v.coeff((c, r))

        m = RationalMatrix.from_function(w, entry)
        assert 2 * rank_two_form(v) == rank_oracle(m)


def test_rank_two_form_is_fast_on_a_dense_window():
    # the fourth wedge power of this form has up to C(20, 8) keys; one
    # elimination of its 20x20 skew matrix needs none of them
    rng = random.Random(21)
    w = Window(10, 10)
    v = Multivector.zero(w, 2)
    for _ in range(4):
        pair = [Multivector(w, 1, {(x,): Fraction(rng.choice((-5, -3, 2, 7)), rng.randint(1, 4))
                                   for x in w.elements()}) for _ in range(2)]
        v = v + wedge(*pair)
    assert len(v.support()) == 190
    start = time.perf_counter()
    assert rank_two_form(v) == 4
    assert time.perf_counter() - start < 1


# ---------------------------------------------------------------- matrices

def test_det_and_rank_against_brute_force():
    # sparse p/q matrices and products through them are mostly singular,
    # with columns that have no pivot left
    rng = random.Random(20)
    ranks = set()
    for n, p in [(0, 1), (0, 2), (1, 2), (2, 2)]:
        w = Window(n, p)
        for _ in range(25):
            density = rng.choice((0.1, 0.3, 0.5))
            sparse = RationalMatrix.from_function(
                w,
                lambda r, c: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                if rng.random() < density
                else Fraction(0),
            )
            low_rank = matmul(random_matrix(rng, w, 2), sparse)
            for m in (random_matrix(rng, w, 4), sparse, low_rank):
                assert m.det() == det_oracle(m)
                assert m.rank() == rank_oracle(m)
                ranks.add((w.size, m.rank()))
    assert ranks == {(size, r) for size in range(1, 5) for r in range(size + 1)}


def test_invertible_generator_has_nonzero_det():
    rng = random.Random(21)
    m = random_invertible(rng, Window(2, 2))
    assert m.det() != 0


# ---------------------------------------------------------------- files

def test_multivector_json_round_trip():
    w = Window(2, 3)
    v = basis(w, -2, 1) + Fraction(-7, 3) * basis(w, 1, 3)
    obj = multivector_to_obj(v)
    assert obj["window"] == [2, 3]
    assert obj["grade"] == 2
    assert multivector_from_obj(obj) == v
    assert multivector_to_obj(multivector_from_obj(obj)) == obj


def test_multivector_parse_rejects_malformed_input():
    good = {
        "window": [1, 2],
        "grade": 2,
        "terms": [{"indices": [-1, 2], "coeff": "1/2"}],
    }
    multivector_from_obj(good)

    bad_cases = [
        {**good, "terms": [{"indices": [2, -1], "coeff": "1/2"}]},
        {**good, "terms": [{"indices": [-1, 2], "coeff": "0.5"}]},
        {**good, "terms": [{"indices": [-1, 2], "coeff": "0"}]},
        {**good, "terms": good["terms"] * 2},
        {**good, "terms": [{"indices": [-1, 7], "coeff": "1"}]},
        {**good, "grade": 3},
        {**good, "window": [1]},
        {**good, "terms": [{"indices": [-1, 0], "coeff": "1"}]},
    ]
    for case in bad_cases:
        with pytest.raises(FormatError):
            multivector_from_obj(case)


def test_multivector_parse_requires_sorted_terms():
    w = Window(4, 2)
    obj = multivector_to_obj(basis(w, -4, -3) + basis(w, 1, 2))
    multivector_from_obj(obj)
    obj["terms"].reverse()
    with pytest.raises(FormatError, match="sorted"):
        multivector_from_obj(obj)


def test_vectors_on_random_round_trips():
    rng = random.Random(22)
    for _ in range(20):
        w = Window(rng.randint(0, 3), rng.randint(1, 3))
        v = random_multivector(rng, w, rng.randint(0, min(2, w.size)))
        assert multivector_from_obj(multivector_to_obj(v)) == v


# ---------------------------------------------------------------- argument checks

W22, W32 = Window(2, 2), Window(3, 2)


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda: basis(W22, 1) + basis(W22, 1, 2), DimensionMismatch, "cannot combine"),
        (lambda: basis(W22, 1) + basis(W32, 1), DimensionMismatch, "cannot combine"),
        (lambda: basis(W22, 3), DimensionMismatch, "outside window"),
        (lambda: RationalMatrix(W22, [[1] * 4] * 3), DimensionMismatch, "must be 4x4"),
        (lambda: RationalMatrix.identity(W22).entry(1, -3), DimensionMismatch, "outside window"),
        (
            lambda: gl_apply(RationalMatrix.identity(W32), basis(W22, 1)),
            DimensionMismatch,
            "windows differ",
        ),
        (
            lambda: hpf_multilinear(FormSpec(1, 2, (1, 2)), [basis(W22, 1), basis(W32, 2)]),
            DimensionMismatch,
            "different windows",
        ),
        (
            lambda: hpf_multilinear(FormSpec(1, 2, (1, 3)), [basis(W22, 1)] * 2),
            DimensionMismatch,
            r"indices \(1, 3\) outside window \(2,2\)",
        ),
        (lambda: wedge_via_hpf([basis(W22)] * 2), DimensionMismatch, "positive grade"),
        (lambda: is_good([-1, -1], [1, 2], GoodParams(2, 2, 2, 2)), ValueError, "repeat"),
    ],
    ids=[
        "add-grades", "add-windows", "basis-window", "matrix-shape", "matrix-entry",
        "gl-apply-windows", "multilinear-windows", "multilinear-labels",
        "wedge-via-hpf-grade", "is-good-repeat",
    ],
)
def test_argument_checks_raise_at_the_boundary(call, error, match):
    with pytest.raises(error, match=match):
        call()
