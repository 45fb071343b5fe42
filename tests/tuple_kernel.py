"""The tuple/Fraction product kernel, kept as the oracle for the bitmask core.

Keys are ascending label tuples and coefficients are Fractions throughout:
every pair of terms builds frozensets, merges the tuples while counting
crossing inversions, and multiplies Fractions.  Each function mirrors the
library routine of the same name as it stood before the integer core; the
component tests mirror the form enumeration that preceded contracted powers,
and hodge_star and transition the label-tuple maps that preceded the star
and the window changes on masks, the star's sign a shuffle sign.
"""
import math
import random
from fractions import Fraction
from itertools import combinations

from hyperwedge.forms import (
    FormSpec,
    component_form_specs,
    hpf_eval,
    plucker_relation,
    trivial_region,
)
from hyperwedge.indices import Window, shuffle_sign
from hyperwedge.multivector import Covector, Multivector
from hyperwedge.varieties import MembershipReport


def merge_sorted(left, right):
    """Merge two ascending disjoint tuples, counting crossing inversions."""
    merged = []
    inversions = 0
    i = j = 0
    while i < len(left) and j < len(right):
        if left[i] < right[j]:
            merged.append(left[i])
            i += 1
        else:
            merged.append(right[j])
            inversions += len(left) - i
            j += 1
    merged.extend(left[i:])
    merged.extend(right[j:])
    return tuple(merged), (1 if inversions % 2 == 0 else -1)


def wedge_terms(left, right):
    """Exterior product of two term tables; cancelled entries stay as zeros."""
    acc = {}
    pairs = [(key, frozenset(key), coeff) for key, coeff in right.items()]
    for key_u, coeff_u in left.items():
        set_u = frozenset(key_u)
        for key_v, set_v, coeff_v in pairs:
            if not set_u.isdisjoint(set_v):
                continue
            merged, sign = merge_sorted(key_u, key_v)
            acc[merged] = acc.get(merged, 0) + coeff_u * coeff_v * sign
    return acc


def wedge(u, v):
    assert u.window == v.window
    return Multivector(u.window, u.grade + v.grade, wedge_terms(u.terms, v.terms))


def wedge_power(v, l):
    out = Multivector(v.window, 0, {(): Fraction(1)})
    for _ in range(l):
        out = wedge(out, v)
    return out


def contract(f, v):
    """Right interior product: removing key[pos] costs (-1)^(labels after it)."""
    assert f.window == v.window and v.grade > 0
    acc = {}
    for key, coeff in v.terms.items():
        for pos in range(len(key) - 1, -1, -1):
            weight = f.coeff(key[pos])
            if weight:
                sign = -1 if (len(key) - 1 - pos) % 2 else 1
                rest = key[:pos] + key[pos + 1:]
                acc[rest] = acc.get(rest, 0) + coeff * weight * sign
    return Multivector(v.window, v.grade - 1, acc)


def gl_apply(m, v):
    total = {}
    for key, coeff in v.terms.items():
        part = {(): coeff}
        for label in key:
            column = {(r,): c for r, c in m.column(label).items()}
            part = {k: c for k, c in wedge_terms(part, column).items() if c}
        for image, c in part.items():
            total[image] = total.get(image, 0) + c
    return Multivector(v.window, v.grade, total)


def nilpotency_degree(v):
    power, degree = v, 1
    while not power.is_zero():
        degree += 1
        power = wedge(power, v)
    return degree


def in_grassmannian(v):
    """(iota_S v) ^ v for every (g-1)-set S in label order, on tuple keys."""
    g = v.grade
    contracted = {}
    for key, coeff in v.terms.items():
        for k, t in enumerate(key):
            sign = -1 if (g - 1 - k) % 2 else 1
            contracted.setdefault(key[:k] + key[k + 1:], {})[(t,)] = sign * coeff
    for small in sorted(contracted):
        product = wedge(Multivector(v.window, 1, contracted[small]), v)
        if not product.is_zero():
            large = product.support()[0]
            label = plucker_relation(small, large, v.window).label
            value = str(product.coeff(large))
            return MembershipReport(False, {"kind": "violated_form", "label": label, "value": value})
    n = v.window.size
    count = math.comb(n, g - 1) * math.comb(n, g + 1) if g else 0
    return MembershipReport(True, {"kind": "all_forms_vanish", "count": count})


def in_hpf(m, l, v):
    """The power's lowest key, min over tuple keys, read as a form value."""
    power = wedge_power(v, l)
    if power.is_zero():
        count = math.comb(v.window.size, m * l)
        return MembershipReport(True, {"kind": "zero_power", "power": l, "forms_checked": count})
    key = min(power.terms)
    coeff = power.coeff(key)
    return MembershipReport(False, {
        "kind": "violated_form",
        "label": FormSpec(m, l, key).label,
        "value": str(coeff / math.factorial(l)),
        "power": l,
        "power_coordinate": list(key),
        "power_value": str(coeff),
    })


def in_dual_hpf(r, s, v):
    power = wedge_power(hodge_star(v), s)
    if power.is_zero():
        return MembershipReport(True, {"kind": "zero_power", "power": s, "side": "dual"})
    key = min(power.terms)
    return MembershipReport(False, {
        "kind": "nonzero_power",
        "power": s,
        "coordinate": list(key),
        "value": str(power.coeff(key)),
        "side": "dual",
    })


def contraction_membership(m, l, v, trials=64, seed=1729):
    """Each trial on Covector and Multivector objects, Fractions throughout."""
    w = v.window
    rng = random.Random(seed)
    for trial in range(trials):
        current, drawn = v, []
        for _ in range(v.grade - m):
            f = Covector(w, {x: Fraction(rng.randrange(-2**19, 2**19)) for x in w.elements()})
            drawn.append(f)
            current = contract(f, current)
        power = wedge_power(current, l)
        if not power.is_zero():
            key = power.support()[0]
            certificate = {
                "kind": "violated_contraction",
                "trial": trial,
                "covectors": [[[x, str(c)] for x, c in f.items()] for f in drawn],
                "power": l,
                "coordinate": list(key),
                "value": str(power.coeff(key)),
            }
            return MembershipReport(False, certificate, trials=trials, seed=seed)
    certificate = {"kind": "trials_passed", "count": trials, "entry_bound": 2**19}
    return MembershipReport(True, certificate, trials=trials, seed=seed)


def pf_contraction_witness(v):
    """The first basis covector, then pair sum, with v ^ (f . v)^2 nonzero."""
    for chosen in [(x,) for x in v.window.elements()] + list(combinations(v.window.elements(), 2)):
        f = Covector(v.window, dict.fromkeys(chosen, Fraction(1)))
        if not wedge(v, wedge_power(contract(f, v), 2)).is_zero():
            return f
    return None


def in_hpf_component(m, l, v, dual=False):
    """Every relative form in turn, member sets outer and tails inner.

    dual=True marks a star image: its trivial-region reason names r, s and
    the sides of the window starred.
    """
    reason = trivial_region(m, l, v.window, dual)
    if reason is not None:
        return MembershipReport(True, {"kind": "trivial_region", "reason": reason})
    count = 0
    for spec in component_form_specs(m, l, v.window):
        value = hpf_eval(spec, v)
        count += 1
        if value:
            return MembershipReport(
                False, {"kind": "violated_form", "label": spec.label, "value": str(value)}
            )
    return MembershipReport(True, {"kind": "all_forms_vanish", "count": count})


def in_two_sided(m, l, r, s, v):
    primal = in_hpf_component(m, l, v)
    dual = in_hpf_component(r, s, hodge_star(v), dual=True)
    certificate = {"kind": "two_sided", "primal": primal.certificate, "dual": dual.certificate}
    return MembershipReport(primal.member and dual.member, certificate)


def star_key(universe, key):
    """sgn(I, I^c) as a shuffle sign, and the sorted negated complement."""
    members = set(key)
    comp = tuple(x for x in universe if x not in members)
    return shuffle_sign([key, comp]), tuple(sorted(-x for x in comp))


def hodge_star(v):
    """Each term e_I to star_key's sign times e_(-I^c), in the mirrored window."""
    w = v.window
    terms = {}
    for key, coeff in v.terms.items():
        sign, image = star_key(w.elements(), key)
        terms[image] = sign * coeff
    return Multivector(Window(w.p, w.n), w.size - v.grade, terms)


def transition(kind, v):
    """The four window changes on label tuples."""
    w, terms = v.window, v.terms
    if kind == "i":
        return Multivector(Window(w.n + 1, w.p), v.grade, terms)
    if kind == "j":
        return Multivector(Window(w.n, w.p + 1), v.grade + 1,
                           {key + (w.p + 1,): c for key, c in terms.items()})
    if kind == "i_dagger":
        return Multivector(Window(w.n - 1, w.p), v.grade,
                           {key: c for key, c in terms.items() if -w.n not in key})
    assert kind == "j_dagger"
    return Multivector(Window(w.n, w.p - 1), v.grade - 1,
                       {key[:-1]: c for key, c in terms.items() if key[-1] == w.p})
