"""Membership tests for wedge-power loci and their duals.

Every test here is exact over the rationals.  Reports carry a certificate:
a violated equation with its value, a nonvanishing power coordinate, or a
note that the window is too small for any equation to exist.  The two
randomized procedures (contraction trials, odd-partition sampling) seed a
generator with a nonnegative int, so equal inputs and seeds give equal output.
"""

import math
import random
from fractions import Fraction
from itertools import chain, combinations
from typing import NamedTuple, Optional

from .forms import FormSpec, plucker_relation, trivial_region
from .indices import DimensionMismatch, Window, checked_record, even_width, plain_int
from .multivector import (
    Covector,
    Multivector,
    _lowest_power_term,
    _plucker_violation,
    contract,
    hodge_star,
    wedge,
    wedge_power,
)

_ENTRY_BOUND = 2**19
_WITNESS_TERMS, _WITNESS_BOUND = 4, 9  # terms per witness factor, |coefficient| cap


class VarietySpec(checked_record("VarietySpec", "kind m l r s")):
    """Tagged choice of locus; build through the classmethods."""

    __slots__ = ()

    def __new__(cls, kind: str, m=None, l=None, r=None, s=None):
        if not isinstance(kind, str) or kind not in _LOCI:
            raise ValueError(f"unknown variety kind {kind!r}")
        params = dict(_LOCI[kind][0])
        for name, value in zip("mlrs", (m, l, r, s)):
            if name in params:
                params[name](name, value)
            elif value is not None:
                raise ValueError(f"{kind} takes no parameter {name}, got {value!r}")
        return tuple.__new__(cls, (kind, m, l, r, s))

    @classmethod
    def grassmannian(cls) -> "VarietySpec":
        return cls("grassmannian")

    @classmethod
    def pf(cls, l: int) -> "VarietySpec":
        return cls("pf", l=l)

    @classmethod
    def hpf(cls, m: int, l: int) -> "VarietySpec":
        return cls("hpf", m=m, l=l)

    @classmethod
    def dual_hpf(cls, r: int, s: int) -> "VarietySpec":
        return cls("dual_hpf", r=r, s=s)

    @classmethod
    def two_sided(cls, m: int, l: int, r: int, s: int) -> "VarietySpec":
        return cls("two_sided", m=m, l=l, r=r, s=s)

    def describe(self) -> str:
        return _LOCI[self.kind][1].format(**self._asdict())


class MembershipReport(NamedTuple):
    """Verdict plus the evidence it rests on."""

    member: bool
    certificate: dict
    trials: Optional[int] = None
    seed: Optional[int] = None

    def to_obj(self) -> dict:
        return self._asdict()


class TypeSpec(checked_record("TypeSpec", "pi k")):
    """Partition of factor grades and a number of summands."""

    __slots__ = ()

    def __new__(cls, pi, k: int):
        pi = tuple(pi)
        if not pi:
            raise ValueError("partition needs at least one part")
        for part in pi:
            plain_int("part", part)
        plain_int("summand count", k)
        return tuple.__new__(cls, (pi, k))

    @property
    def grade(self) -> int:
        return sum(self.pi)


def in_pf(l: int, v: Multivector) -> MembershipReport:
    """Does the l-th wedge power of the two-form vanish?

    Runs through the width-2 locus test so a refutation names a violated
    pf form, not just the surviving power coordinate.
    """
    return in_hpf(2, l, v)


def in_grassmannian(v: Multivector) -> MembershipReport:
    """Decide decomposability from the products (iota_S v) ^ v.

    For a (g-1)-set S, v contracted by S is the vector u_S, the sum over t
    outside S of (-1)^#{s in S : s > t} x_(S+t) e_t, and the coefficient of
    e_T in u_S ^ v is the quadratic exchange relation for (S, T) (Harris,
    Algebraic Geometry, Lect. 6).  A refutation names the lowest S with a
    nonzero product and that product's lowest key T: the first violated
    relation of a scan with S outer and T inner.  A member's count is the
    C(N, g-1) * C(N, g+1) relations that therefore vanish; grade 0 has none.
    """
    violation = _plucker_violation(v)
    if violation is not None:
        small, large, value = violation
        label = plucker_relation(small, large, v.window).label
        return MembershipReport(
            False,
            {"kind": "violated_form", "label": label, "value": str(value)},
        )
    g, n = v.grade, v.window.size
    count = math.comb(n, g - 1) * math.comb(n, g + 1) if g else 0
    return MembershipReport(True, {"kind": "all_forms_vanish", "count": count})


def in_hpf(m: int, l: int, v: Multivector) -> MembershipReport:
    """Power test for the width-m depth-l locus, certified by its forms.

    The coefficient of e_K in v^l is l! * hpf(m, l)@K(v) for every m*l-subset
    K of the window, so the one wedge power decides membership: it vanishes
    iff all C(N, m*l) forms do.  A refutation names the form at the lowest
    surviving coordinate K, the first a lexicographic scan of the forms would
    find, with value coeff(K) / l!.
    """
    plain_int("m", m)
    plain_int("l", l)
    if v.grade != m:
        raise DimensionMismatch(f"locus lives in grade {m}, argument has {v.grade}")
    lowest = next(_lowest_power_term(v, l), None)
    if lowest is None:
        count = math.comb(v.window.size, m * l)
        return MembershipReport(
            True, {"kind": "zero_power", "power": l, "forms_checked": count}
        )
    _, _, key, coeff = lowest
    cert = {
        "kind": "violated_form",
        "label": FormSpec(m, l, key).label,
        "value": str(coeff / math.factorial(l)),
        "power": l,
        "power_coordinate": list(key),
        "power_value": str(coeff),
    }
    return MembershipReport(False, cert)


def in_hpf_component(m: int, l: int, v: Multivector) -> MembershipReport:
    """Relative-form test at top grade: each contracted power (iota_T v)^l vanishes.

    T is a (p - m)-set contracted highest label first, and e_K of the power is
    l! * (-1)^#{t < k in T x K} * hpf(m, l)@K|T(v); a refutation names the least (K, T).

    >>> low, high = (Multivector.basis(Window(2, 2), key) for key in ((-2, -1), (1, 2)))
    >>> in_hpf_component(2, 2, low + high).certificate
    {'kind': 'violated_form', 'label': 'hpf(2,2)@-2,-1,1,2', 'value': '1'}
    >>> in_hpf_component(2, 2, low).certificate
    {'kind': 'all_forms_vanish', 'count': 1}
    """
    plain_int("m", m)
    plain_int("l", l)
    w = v.window
    if v.grade != w.p:
        raise DimensionMismatch(
            f"component test wants grade {w.p} in {w}, argument has {v.grade}"
        )
    reason = trivial_region(m, l, w)
    if reason is not None:
        return MembershipReport(True, {"kind": "trivial_region", "reason": reason})
    tails = list(combinations(w.elements(), w.p - m))
    hits = _lowest_power_term(v, l, ([{t: 1} for t in reversed(tail)] for tail in tails))
    lowest = min(hits, key=lambda hit: (hit[2], hit[0]), default=None)
    if lowest is None:
        count = len(tails) * math.comb(w.size - w.p + m, m * l)
        return MembershipReport(True, {"kind": "all_forms_vanish", "count": count})
    index, _, key, coeff = lowest
    label = FormSpec(m, l, key, tails[index]).label
    value = (-1) ** sum(t < k for t in tails[index] for k in key) * coeff / math.factorial(l)
    return MembershipReport(False, {"kind": "violated_form", "label": label, "value": str(value)})


def in_dual_hpf(r: int, s: int, v: Multivector) -> MembershipReport:
    """Complement-side test: star the element, then take the s-th power."""
    plain_int("r", r)
    plain_int("s", s)
    expected = v.window.size - r
    if v.grade != expected:
        raise DimensionMismatch(
            f"dual locus lives in grade {expected}, argument has {v.grade}"
        )
    lowest = next(_lowest_power_term(hodge_star(v), s), None)
    if lowest is None:
        return MembershipReport(True, {"kind": "zero_power", "power": s, "side": "dual"})
    _, _, key, value = lowest
    cert = {
        "kind": "nonzero_power",
        "power": s,
        "coordinate": list(key),
        "value": str(value),
        "side": "dual",
    }
    return MembershipReport(False, cert)


def in_two_sided(m: int, l: int, r: int, s: int, v: Multivector) -> MembershipReport:
    """Component test on v and on its star image, both reported."""
    primal = in_hpf_component(m, l, v)
    dual = in_hpf_component(r, s, hodge_star(v))
    certificate = {
        "kind": "two_sided",
        "primal": primal.certificate,
        "dual": dual.certificate,
    }
    return MembershipReport(primal.member and dual.member, certificate)


# kind -> (parameters with their checks, report name, test); the test takes
# the parameters in this order, then the element
_LOCI = {
    "grassmannian": ((), "Gr", in_grassmannian),
    "pf": ((("l", plain_int),), "Pf({l})", in_pf),
    "hpf": ((("m", even_width), ("l", plain_int)), "HPf({m},{l})", in_hpf),
    "dual_hpf": ((("r", even_width), ("s", plain_int)), "HPf*({r},{s})", in_dual_hpf),
    "two_sided": (
        (("m", even_width), ("l", plain_int), ("r", even_width), ("s", plain_int)),
        "HPf({m},{l})&HPf*({r},{s})",
        in_two_sided,
    ),
}


def check_membership(spec: VarietySpec, v: Multivector) -> MembershipReport:
    """Run the test for spec's locus on v.

    The width-m locus is tested by wedge power at grade m and by its relative
    equations at full window grade; any other grade is a DimensionMismatch.
    """
    params, _, test = _LOCI[spec.kind]
    if spec.kind == "hpf" and v.grade != spec.m:
        if v.grade != v.window.p:
            raise DimensionMismatch(
                f"grade {v.grade} is neither the locus width {spec.m} "
                f"nor the window grade {v.window.p}"
            )
        test = in_hpf_component
    return test(*(getattr(spec, name) for name, _ in params), v)


def _random_element(rng, window: Window, grade: int) -> Multivector:
    keys = list(combinations(window.elements(), grade))
    data = {}
    for key in rng.sample(keys, min(_WITNESS_TERMS, len(keys))):
        c = rng.randint(-_WITNESS_BOUND, _WITNESS_BOUND)
        if c:
            data[key] = Fraction(c)
    return Multivector(window, grade, data)


def type_witness(ts: TypeSpec, window: Window, seed: int) -> Multivector:
    """Random sum of k products with factor grades given by the partition.

    Factors are arbitrary elements of their grade, not just products of
    vectors.  Each summand is redrawn until its product is nonzero.
    """
    plain_int("seed", seed, 0)
    if ts.grade > window.size:
        raise DimensionMismatch(
            f"total grade {ts.grade} exceeds window size {window.size}"
        )
    rng = random.Random(seed)
    total = Multivector.zero(window, ts.grade)
    for _ in range(ts.k):
        for _ in range(256):
            prod = Multivector(window, 0, {(): Fraction(1)})
            for part in ts.pi:
                prod = wedge(prod, _random_element(rng, window, part))
            if not prod.is_zero():
                break
        else:
            raise RuntimeError("could not draw a nonzero summand")
        total = total + prod
    return total


def odd_partition_check(
    ts: TypeSpec, samples: int, window: Window, seed: int
) -> bool:
    """Sample witnesses and confirm the (k+1)-st power of each vanishes.

    Needs an odd part in the partition; with all parts even the power can
    survive, so the call is refused rather than answered.
    """
    plain_int("samples", samples)
    plain_int("seed", seed, 0)
    if not any(part % 2 for part in ts.pi):
        raise ValueError("partition has no odd part")
    rng = random.Random(seed)
    for _ in range(samples):
        witness = type_witness(ts, window, seed=rng.getrandbits(48))
        if not wedge_power(witness, ts.k + 1).is_zero():
            return False
    return True


def contraction_membership(
    m: int, l: int, v: Multivector, trials: int = 64, seed: int = 0
) -> MembershipReport:
    """Randomized necessary test through repeated contraction.

    Each trial contracts v down to grade m by dense random covectors with
    integer entries in the half-open range [-2**19, 2**19), then checks the
    l-th power of the result.  Passing every trial is strong evidence, not
    proof; a failing trial is an exact refutation and is returned with the
    covectors that produced it.
    """
    plain_int("m", m)
    plain_int("l", l)
    plain_int("trials", trials)
    plain_int("seed", seed, 0)
    if v.grade < m:
        raise DimensionMismatch(f"cannot contract grade {v.grade} down to {m}")
    labels = v.window.elements()
    rng = random.Random(seed)
    draws = (  # lazy: a refutation at trial k draws nothing past it
        [{x: rng.randrange(-_ENTRY_BOUND, _ENTRY_BOUND) for x in labels}
         for _ in range(v.grade - m)]
        for _ in range(trials)
    )
    lowest = next(_lowest_power_term(v, l, draws), None)
    if lowest is not None:
        trial, drawn, key, value = lowest
        certificate = {
            "kind": "violated_contraction",
            "trial": trial,
            "covectors": [
                [[x, str(c)] for x, c in f.items() if c] for f in drawn
            ],
            "power": l,
            "coordinate": list(key),
            "value": str(value),
        }
        return MembershipReport(False, certificate, trials=trials, seed=seed)
    certificate = {
        "kind": "trials_passed",
        "count": trials,
        "entry_bound": _ENTRY_BOUND,
    }
    return MembershipReport(True, certificate, trials=trials, seed=seed)


def pf_contraction_witness(v: Multivector) -> Optional[Covector]:
    """Covector f with v ^ (f . v)^2 nonzero, or None when no such f exists.

    The expression is quadratic in f, so vanishing on all basis covectors
    and all two-element sums forces vanishing everywhere.
    """
    if v.grade != 3:
        raise DimensionMismatch(f"expected a three-form, got grade {v.grade}")
    w = v.window
    labels = w.elements()
    parts = {x: contract(Covector.dual_basis(w, x), v) for x in labels}
    left = {x: wedge(v, part) for x, part in parts.items()}
    # v ^ (e^a . v) ^ (e^b . v) is the polar form: the value at e^a when a = b,
    # and half the value at e^a + e^b once every basis value vanished
    for a, b in chain(zip(labels, labels), combinations(labels, 2)):
        if not wedge(left[a], parts[b]).is_zero():
            return Covector(w, dict.fromkeys((a, b), Fraction(1)))
    return None


def pf_contraction_identically_zero(v: Multivector) -> bool:
    """True when every single contraction of the three-form has rank <= 2."""
    return pf_contraction_witness(v) is None
