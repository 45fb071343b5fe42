"""Deck items as library calls, their canonical results and their verdicts.

Every call goes through an attribute of the `hyperwedge` package looked up
at call time, so the benchmark uses only names in `hyperwedge.__all__` and a
tracing wrapper installed on the package is seen.  A judge compares a result
with the expectation stored in the item and says "ok", "wrong" or "stuck";
raised exceptions are "wrong".
"""
import json
from fractions import Fraction
from itertools import combinations

import gen
import ref


class Op:
    """One timed call plus what is needed to check and digest its result."""

    __slots__ = ("item", "call", "canon", "judge")

    def __init__(self, item, call, canon, judge):
        self.item, self.call, self.canon, self.judge = item, call, canon, judge


def multivector(hw, obj):
    n, p = obj["window"]
    return hw.Multivector(hw.Window(n, p), obj["grade"], gen.terms_of(obj))


def canon_mv(v):
    return gen.canon_terms(v.window.n, v.window.p, v.grade, dict(v.terms))


def canon_report(report):
    verdict = "member" if report.member else "non-member"
    return verdict + " " + json.dumps(report.certificate, sort_keys=True)


def _verdict(hw, item):
    v = multivector(hw, item["point"])
    name, params = item["op"], item["params"]
    expect = item["expect"]
    return Op(
        item,
        lambda: getattr(hw, name)(*params, v),
        canon_report,
        lambda report: "ok" if report.member == expect else "wrong",
    )


def _algebra(hw, item):
    args, name, expect = item["args"], item["op"], item["expect"]
    v = multivector(hw, args["v"]) if "v" in args else None
    canon = canon_mv
    if name == "wedge":
        u = multivector(hw, args["u"])
        call = lambda: hw.wedge(u, v)
    elif name == "wedge_power":
        l = args["l"]
        call = lambda: hw.wedge_power(v, l)
    elif name == "gl_apply":
        matrix = hw.RationalMatrix(v.window, [[Fraction(x) for x in row] for row in args["matrix"]])
        call = lambda: hw.gl_apply(matrix, v)
    elif name == "hodge_star":
        call = lambda: hw.hodge_star(v)
    elif name == "contract":
        f = hw.Covector(v.window, {label: Fraction(c) for label, c in args["covector"]})
        call = lambda: hw.contract(f, v)
    elif name == "transition":
        kind = args["kind"]
        call = lambda: hw.transition(kind, v)
    elif name == "rank_two_form":
        call, canon = (lambda: hw.rank_two_form(v)), str
    else:
        m, l, trials, seed = args["m"], args["l"], args["trials"], args["seed"]
        call = lambda: hw.contraction_membership(m, l, v, trials=trials, seed=seed)
        return Op(item, call, canon_report,
                  lambda report: "ok" if report.member == expect else "wrong")
    return Op(item, call, canon, lambda result: "ok" if canon(result) == expect else "wrong")


def _canon_recovery(result):
    if result.completed is None:
        return f"stuck {list(result.stuck)} after {result.attempts}"
    return f"done {canon_mv(result.completed)} after {result.attempts}"


def _recover(hw, item):
    v = multivector(hw, item["args"]["v"])
    params = hw.GoodParams(*item["args"]["params"])
    expect = item["expect"]

    def call():
        return hw.reconstruct_all(params.m, params.l, hw.good_projection(v, params))

    def judge(result):
        if result.completed is None:
            return "stuck"
        return "ok" if canon_mv(result.completed) == expect else "wrong"

    return Op(item, call, _canon_recovery, judge)


_BUILDERS = {"verdicts": _verdict, "algebra": _algebra, "recover": _recover}


def build(hw, workload, items):
    return [_BUILDERS[workload](hw, item) for item in items]


# ------------------------------------------------------------------ oracle

def _forms_vanish(hw, specs, v):
    return all(hw.poly_eval(hw.hpf_polynomial(spec), v) == 0 for spec in specs)


def _component_member(hw, m, l, v):
    return _forms_vanish(hw, hw.component_form_specs(m, l, v.window), v)


def _mirror(hw, obj):
    """Star of a point, computed by the reference algebra, as a library object."""
    n, p = obj["window"]
    terms = ref.star(gen.terms_of(obj), n, p)
    return hw.Multivector(hw.Window(p, n), n + p - obj["grade"], terms)


def label_oracles(hw, items):
    """Fill in expected verdicts for component, dual and two-sided items.

    These classes have no construction with a known answer, so the verdict
    comes from the slow symbolic route: every defining form built with
    hpf_polynomial and evaluated with poly_eval.  For the dual side the star
    comes from the reference algebra and the s-th power of the starred point
    vanishes exactly when all width-r degree-s forms do (r even).  Verdict
    items get True or False; CLI requests get the exit code and the verdict
    the request must print.
    """
    for item in items:
        if not item.get("oracle"):
            continue
        obj, params = item["point"], item["params"]
        v = multivector(hw, obj)
        if item["op"] == "in_hpf_component":
            member = _component_member(hw, *params, v)
        elif item["op"] == "in_dual_hpf":
            r, s = params
            star = _mirror(hw, obj)
            specs = (hw.FormSpec(r, s, chosen)
                     for chosen in combinations(star.window.elements(), r * s))
            member = _forms_vanish(hw, specs, star)
        else:
            m, l, r, s = params
            member = _component_member(hw, m, l, v) and _component_member(hw, r, s, _mirror(hw, obj))
        if "argv" in item:  # a CLI request: exit code and printed verdict
            item["expect"] = {"code": 0 if member else 1,
                              "verdict": "member" if member else "non-member"}
        else:
            item["expect"] = member


# --------------------------------------------------------------------- cli

def cli_argv(item, paths):
    return [arg.format(**paths) if arg.startswith("{") else arg for arg in item["argv"]]


def cli_judge(item, code, stdout):
    """Check one CLI request on its exit code and its parsed output."""
    expect = item["expect"]
    if code != expect["code"]:
        return "wrong"
    if "verdict" in expect:
        ok = json.loads(stdout)["verdict"] == expect["verdict"]
    elif "text" in expect:
        ok = stdout.strip() == expect["text"]
    elif "point" in expect:
        doc = json.loads(stdout)
        n, p = doc["window"]
        terms = {tuple(t["indices"]): Fraction(t["coeff"]) for t in doc["terms"]}
        ok = gen.canon_terms(n, p, doc["grade"], terms) == expect["point"]
    elif "last" in expect:
        ok = stdout.strip().splitlines()[-1] == expect["last"]
    else:
        doc = json.loads(stdout)
        ok = doc["count"] == expect["count"] == len(doc["equations"])
    return "ok" if ok else "wrong"
