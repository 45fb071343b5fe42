"""The integer bitmask core against the tuple/Fraction kernel it replaced.

Whole results are compared on seeded points with p/q coefficients, negative
labels, grade 0, zero operands and sums that cancel.
"""
import random
import re
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

import tuple_kernel as oracle
import hyperwedge
from hyperwedge import elimination, forms, multivector, varieties
from hyperwedge.indices import Window
from hyperwedge.multivector import (
    Covector,
    Multivector,
    RationalMatrix,
    TRANSITION_KINDS,
    _frame,
    _labels,
    contract,
    gl_apply,
    hodge_star,
    rank_two_form,
    transition,
    wedge,
    wedge_power,
)
from hyperwedge.varieties import (
    contraction_membership,
    in_dual_hpf,
    in_grassmannian,
    in_hpf,
    in_hpf_component,
    in_two_sided,
    pf_contraction_witness,
)


def _pq(rng):
    return Fraction(rng.randint(-6, 6), rng.randint(1, 4))


def _element(rng, window, grade):
    """Zero, a sparse p/q element, or a sum of p/q products (which may cancel)."""
    shape = rng.randrange(4)
    if shape == 0 or grade > window.size:
        return Multivector.zero(window, grade)
    if shape == 1 or grade == 0:
        keys = list(combinations(window.elements(), grade))
        picks = rng.sample(keys, min(len(keys), rng.randint(1, 6)))
        return Multivector(window, grade, {key: _pq(rng) for key in picks})
    out = Multivector.zero(window, grade)
    for _ in range(shape - 1):
        term = Multivector(window, 0, {(): _pq(rng)})
        for _ in range(grade):
            labels = rng.sample(window.elements(), rng.randint(1, window.size))
            term = wedge(term, Multivector(window, 1, {(x,): _pq(rng) for x in labels}))
        out = out + term
    return out


def _window(rng):
    n = rng.randint(0, 3)
    return Window(n, rng.randint(1, 6 - n))


def test_lexicographic_order_is_descending_mask_order():
    window = Window(3, 4)
    for grade in range(window.size + 1):
        keys = list(combinations(window.elements(), grade))
        masks = [sum(_frame(window)[x] for x in key) for key in keys]
        assert masks == sorted(masks, reverse=True)
        assert [_labels(window, mask) for mask in masks] == keys


def test_decoding_by_set_bits_matches_the_label_walk():
    # _labels walks a mask's set bits; the reference walks every label
    for n in range(5):
        for p in range(5):
            window = Window(n, p)
            frame = _frame(window)
            for grade in range(window.size + 1):
                for key in combinations(window.elements(), grade):
                    mask = sum(frame[x] for x in key)
                    walked = tuple(x for x, b in frame.items() if mask & b)
                    assert _labels(window, mask) == walked == key


def test_products_match_the_tuple_kernel():
    rng = random.Random(2024)
    seen = dict.fromkeys(
        ("cancelled", "p/q result", "negative labels", "grade 0", "zero operand"), 0
    )
    for _ in range(400):
        window = _window(rng)
        gu, gv = rng.randint(0, window.size), rng.randint(0, window.size)
        u = _element(rng, window, gu)
        # v = u makes every odd-grade square cancel pair by pair
        v = u if rng.random() < 0.3 else _element(rng, window, gv)
        product = wedge(u, v)
        assert product == oracle.wedge(u, v)
        seen["cancelled"] += 0 in oracle.wedge_terms(u.terms, v.terms).values()
        seen["p/q result"] += any(c.denominator > 1 for c in product.terms.values())
        seen["negative labels"] += window.n > 0
        seen["grade 0"] += 0 in (u.grade, v.grade)
        seen["zero operand"] += u.is_zero() or v.is_zero()
        for l in range(4):
            assert wedge_power(u, l) == oracle.wedge_power(u, l)
        if u.grade:
            labels = rng.sample(window.elements(), rng.randint(0, window.size))
            f = Covector(window, {x: _pq(rng) for x in labels})
            assert contract(f, u) == oracle.contract(f, u)
        if u.grade == 2:
            assert rank_two_form(u) == oracle.nilpotency_degree(u) - 1
        rows = [[_pq(rng) if rng.random() < 0.6 else 0 for _ in range(window.size)]
                for _ in range(window.size)]
        m = RationalMatrix(window, rows)
        assert gl_apply(m, u) == oracle.gl_apply(m, u)
    assert min(seen.values()) >= 20, seen


def test_two_form_rank_matches_the_power_oracle():
    # dense p/q two-forms of every rank, as sums of products of dense vectors,
    # in every window up to (4,4)
    rng = random.Random(2028)
    seen = set()
    for n in range(5):
        for p in range(5):
            window = Window(n, p)
            for rank in range(window.size // 2 + 1):
                v = Multivector.zero(window, 2)
                for _ in range(rank):
                    pair = [Multivector(window, 1, {(x,): _pq(rng) for x in window.elements()})
                            for _ in range(2)]
                    v = v + wedge(*pair)
                assert rank_two_form(v) == oracle.nilpotency_degree(v) - 1
                seen.add((window.size, rank_two_form(v)))
    assert seen == {(size, r) for size in range(9) for r in range(size // 2 + 1)}


def test_varieties_binds_no_mask_helper():
    # locus code reaches the mask format only through the two entry points
    helpers = [getattr(multivector, name) for name in (
        "_frame", "_mask", "_labels", "_encode", "_decode", "_reduced", "_coordinates",
        "_lowest", "_wedge_masks", "_power_masks", "_contract_masks", "_star")]
    bound = [name for name, value in vars(varieties).items()
             if any(value is helper for helper in helpers)]
    assert bound == []


def test_only_boundary_errors_are_exception_classes():
    # a failed carrier returns None: recovery defines and exports no error
    def errors(names, namespace):
        return sorted(name for name in names if isinstance(namespace[name], type)
                      and issubclass(namespace[name], BaseException))

    assert errors(hyperwedge.__all__, vars(hyperwedge)) == ["DimensionMismatch", "FormatError"]
    own = [name for name, value in vars(elimination).items()
           if getattr(value, "__module__", None) == elimination.__name__]
    assert errors(own, vars(elimination)) == []


def test_varieties_binds_no_form_evaluator():
    # every locus verdict comes from a power; the forms only name certificates
    evaluators = [forms.hpf_eval, forms.hpf_polynomial, forms.component_form_specs]
    bound = [name for name, value in vars(varieties).items()
             if any(value is evaluator for evaluator in evaluators)]
    assert bound == []


def test_star_and_transitions_match_the_tuple_oracle():
    # every basis key up to (4,4), then p/q points up to (5,5), one-sided
    # windows and grades 0 and N included
    checked = 0
    for n in range(5):
        for p in range(5):
            window = Window(n, p)
            for grade in range(window.size + 1):
                for key in combinations(window.elements(), grade):
                    e = Multivector.basis(window, key, Fraction(-3, 2))
                    assert hodge_star(e) == oracle.hodge_star(e)
                    checked += 1
    assert checked == 961
    rng = random.Random(2027)
    seen = dict.fromkeys(("one-sided", "grade 0", "grade N", "p/q"), 0)
    for n in range(6):
        for p in range(6):
            window = Window(n, p)
            for grade in {0, window.size, rng.randint(0, window.size)}:
                v = _element(rng, window, grade)
                assert hodge_star(v) == oracle.hodge_star(v)
                assert hodge_star(hodge_star(v)) == oracle.hodge_star(oracle.hodge_star(v))
                for kind in TRANSITION_KINDS:
                    if kind == "i_dagger" and not n or kind == "j_dagger" and not (p and grade):
                        continue
                    assert transition(kind, v) == oracle.transition(kind, v), kind
                seen["one-sided"] += not (n and p)
                seen["grade 0"] += grade == 0
                seen["grade N"] += grade == window.size
                seen["p/q"] += any(c.denominator > 1 for c in v.terms.values())
    assert min(seen.values()) >= 10, seen


def test_only_indices_writes_object_fields():
    # immutability is decided once, by indices.Frozen
    package = Path(multivector.__file__).parent
    writers = [path.name for path in sorted(package.glob("*.py"))
               if path.name != "indices.py"
               and re.search(r"object\.__setattr__|def __setattr__", path.read_text())]
    assert writers == []


def test_only_indices_decides_window_fit():
    # window fit and set size are decided once, by indices.ascending_key
    package = Path(multivector.__file__).parent
    deciders = [path.name for path in sorted(package.glob("*.py"))
                if path.name != "indices.py"
                and re.search(r"outside window|fit window|contains_set", path.read_text())]
    assert deciders == []


def test_only_multivector_maps_labels_to_bits():
    # one label-to-bit map, multivector._frame: every other module asks
    # multivector to encode a key or decode a table
    package = Path(multivector.__file__).parent
    mappers = [path.name for path in sorted(package.glob("*.py"))
               if path.name != "multivector.py"
               and re.search(r"\b_frame\b|\b_labels\b|\{\w+: 1 << |bit\.__getitem__|\.bit_count\(",
                            path.read_text())]
    assert mappers == []


def test_locus_reports_match_the_tuple_kernel():
    rng = random.Random(2025)
    refuted = dict.fromkeys(("gr", "hpf", "dual", "contraction"), 0)
    for _ in range(300):
        window = _window(rng)
        g = rng.randint(0, window.size)
        v = _element(rng, window, g)
        report = in_grassmannian(v)
        assert report == oracle.in_grassmannian(v)
        refuted["gr"] += not report.member
        m = rng.randint(1, 3)
        if 1 <= g and m <= g:
            l = rng.randint(1, 3)
            trials = rng.randint(1, 6)
            seed = rng.randrange(1000)
            report = contraction_membership(m, l, v, trials=trials, seed=seed)
            assert report == oracle.contraction_membership(m, l, v, trials, seed)
            refuted["contraction"] += not report.member
        if g == 3:
            assert pf_contraction_witness(v) == oracle.pf_contraction_witness(v)
    for _ in range(150):
        window = _window(rng)
        m, l = rng.randint(1, min(3, window.size)), rng.randint(1, 3)
        v = _element(rng, window, m)
        u = _element(rng, window, window.size - m)
        fast = (in_hpf(m, l, v), in_dual_hpf(m, l, u))
        assert fast == (oracle.in_hpf(m, l, v), oracle.in_dual_hpf(m, l, u))
        refuted["hpf"] += not fast[0].member
        refuted["dual"] += not fast[1].member
    kinds = dict.fromkeys(("violated_form", "all_forms_vanish", "trivial_region"), 0)
    # a product of dense p/q vectors in a larger window passes every (2, l >= 2)
    # test; a sum of two fails
    points = []
    for window in (Window(3, 3), Window(4, 4), Window(5, 4)):
        for parts in (1, 2):
            v = Multivector.zero(window, window.p)
            for _ in range(parts):
                term = Multivector(window, 0, {(): Fraction(1)})
                for _ in range(window.p):
                    vector = {(x,): _pq(rng) for x in window.elements()}
                    term = wedge(term, Multivector(window, 1, vector))
                v = v + term
            points += [(v, 2, 2, 2, 2), (v, 2, 3, 2, 3)]
    # random points almost never refute at a (K, T) with an odd number of pairs
    # t < k; this one's only violated form, hpf(2,2)@-2,-1,2,4|1,3, has three
    window = Window(2, 4)
    odd = Multivector.basis(window, (-2, -1, 1, 3)) + Multivector.basis(window, (1, 2, 3, 4))
    points.append((odd, 2, 2, 2, 2))
    for _ in range(200):
        window = _window(rng)
        m, l, r, s = (rng.randint(1, 3) for _ in range(4))
        points.append((_element(rng, window, window.p), m, l, r, s))
    for v, m, l, r, s in points:
        report = in_hpf_component(m, l, v)
        assert report == oracle.in_hpf_component(m, l, v)
        both = in_two_sided(m, l, r, s, v)
        assert both == oracle.in_two_sided(m, l, r, s, v)
        for certificate in (report.certificate, both.certificate["dual"]):
            kinds[certificate["kind"]] += not v.is_zero()
    assert min(refuted.values()) >= 15, refuted
    assert min(kinds.values()) >= 15, kinds


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_dense_contraction_refutations_match(seed):
    # dense p/q 3- and 4-vectors in (3,3) and (4,4), refuted at trial 0 or later
    rng = random.Random(seed)
    verdicts = set()
    for n, g, m, l in ((3, 3, 2, 2), (4, 4, 2, 2), (3, 4, 1, 2), (4, 3, 2, 3)):
        window = Window(n, n)
        keys = combinations(window.elements(), g)
        v = Multivector(window, g, {key: _pq(rng) for key in keys})
        report = contraction_membership(m, l, v, trials=4, seed=seed)
        assert report == oracle.contraction_membership(m, l, v, 4, seed)
        verdicts.add(report.member)
    assert False in verdicts


def test_trivector_witnesses_match():
    # sparse +-1 three-forms often need a two-label covector as the witness
    rng = random.Random(2026)
    lengths = []
    for _ in range(300):
        window = Window(rng.randint(0, 3), rng.randint(3, 5))
        keys = list(combinations(window.elements(), 3))
        picks = rng.sample(keys, min(len(keys), rng.randint(2, 5)))
        v = Multivector(window, 3, {key: Fraction(rng.choice((-1, 1))) for key in picks})
        witness = pf_contraction_witness(v)
        assert witness == oracle.pf_contraction_witness(v)
        lengths.append(0 if witness is None else len(witness.items()))
    assert min(lengths.count(k) for k in (0, 1, 2)) >= 5, [lengths.count(k) for k in (0, 1, 2)]
