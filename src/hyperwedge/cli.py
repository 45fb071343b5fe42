"""Command line front end.

Commands operate on multivector files in the JSON format of the
multivector module and print exact rationals, equation bundles, or
membership reports.  Exit codes are a stable contract: 0 for success or
a member verdict, 1 for a non-member verdict or a failing demo, 2 for
parse and parameter errors, 3 for dimension mismatches.
"""
import argparse
import itertools
import json
import random
import sys
from fractions import Fraction

from .forms import FormSpec, component_equations, hpf_eval, hpf_polynomial
from .indices import DimensionMismatch, Window
from .multivector import (
    Covector,
    FormatError,
    Multivector,
    RationalMatrix,
    contract,
    gl_apply,
    hodge_star,
    multivector_from_obj,
    multivector_to_obj,
    parse_fraction,
    parse_integer,
    transition,
    wedge,
    wedge_power,
)
from .polynomials import WedgePolynomial, poly_to_obj
from .varieties import (
    DEFAULT_SEED,
    DEFAULT_TRIALS,
    TypeSpec,
    VarietySpec,
    check_membership,
    contraction_membership,
    in_grassmannian,
    in_hpf,
    pf_contraction_identically_zero,
    pf_contraction_witness,
    type_witness,
)

# ------------------------------------------------------------------ helpers

def _load_multivector(source: str) -> Multivector:
    if source == "-":
        text = sys.stdin.read()
    else:
        with open(source) as handle:
            text = handle.read()
    try:
        obj = json.loads(text)
    except RecursionError:
        raise FormatError(f"{source}: JSON nests too deeply") from None
    return multivector_from_obj(obj)


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _parse_labels(text: str) -> tuple:
    return tuple(parse_integer(tok) for tok in text.split(",")) if text else ()


def _parse_covector(window: Window, text: str) -> Covector:
    if not text:
        raise FormatError("empty covector")
    entries: dict[int, Fraction] = {}
    for piece in text.split(","):
        head, sep, rest = piece.partition("=")
        if not sep:
            raise FormatError(f"bad covector entry {piece!r}; want label=value")
        label = parse_integer(head)
        if label in entries:
            raise FormatError(f"covector label {label} is given twice")
        entries[label] = parse_fraction(rest)
    return Covector(window, entries)


def _verdict(report) -> str:
    return "member" if report.member else "non-member"


# ----------------------------------------------------------------- commands

def cmd_eval(args) -> int:
    m, l = args.form
    spec = FormSpec(m, l, _parse_labels(args.members), _parse_labels(args.tail))
    v = _load_multivector(args.source)
    _emit(args, str(hpf_eval(spec, v)))
    return 0


def cmd_ideal(args) -> int:
    m, l = args.form
    n, p = args.window
    window = Window(n, p)
    doc = {
        "window": [n, p],
        "form": [m, l],
        "dual": list(args.dual) if args.dual else None,
    }
    reason, equations = component_equations(m, l, window)
    doc["trivial"] = reason is not None
    doc["reason"] = reason
    if args.dual:
        dual_reason, pulled = component_equations(*args.dual, window, dual=True)
        doc["dual_trivial"] = dual_reason is not None
        doc["dual_reason"] = dual_reason
        equations = itertools.chain(equations, pulled)
    objs = [poly_to_obj(eq) for eq in equations]
    doc["count"] = len(objs)
    doc["equations"] = objs
    _emit(args, json.dumps(doc, indent=2))
    return 0


# the flag sets member takes, each with the locus it names; --max-bound
# with --form runs the randomized contraction test on that locus's m and l
_MEMBER_LOCI = {
    ("gr",): lambda args: VarietySpec.grassmannian(),
    ("pf",): lambda args: VarietySpec.pf(args.pf),
    ("form",): lambda args: VarietySpec.hpf(*args.form),
    ("dual",): lambda args: VarietySpec.dual_hpf(*args.dual),
    ("form", "dual"): lambda args: VarietySpec.two_sided(*args.form, *args.dual),
    ("form", "max_bound"): lambda args: VarietySpec.hpf(*args.form),
}


def cmd_member(args) -> int:
    given = tuple(
        flag for flag in ("gr", "pf", "form", "dual", "max_bound")
        if getattr(args, flag) is not None and getattr(args, flag) is not False
    )
    if given not in _MEMBER_LOCI:
        raise ValueError(
            "pick one locus: --gr, --pf L, --form M L, --dual R S, "
            "--form M L --dual R S, or --form M L --max-bound"
        )
    draws = {k: getattr(args, k) for k in ("trials", "seed") if getattr(args, k) is not None}
    if draws and not args.max_bound:
        raise ValueError("--trials and --seed need --max-bound")
    v = _load_multivector(args.source)
    spec = _MEMBER_LOCI[given](args)
    if args.max_bound:
        spec_text = f"maxbound({spec.m},{spec.l})"
        report = contraction_membership(spec.m, spec.l, v, **draws)
    else:
        spec_text = spec.describe()
        report = check_membership(spec, v)

    doc = {
        "spec": spec_text,
        "verdict": _verdict(report),
        "certificate": report.certificate,
        "trials": report.trials,
        "seed": report.seed,
    }
    _emit(args, json.dumps(doc, indent=2))
    return 0 if report.member else 1


def cmd_wedge(args) -> int:
    left = _load_multivector(args.left)
    right = _load_multivector(args.right)
    _emit(args, json.dumps(multivector_to_obj(wedge(left, right)), indent=2))
    return 0


def cmd_star(args) -> int:
    v = _load_multivector(args.source)
    _emit(args, json.dumps(multivector_to_obj(hodge_star(v)), indent=2))
    return 0


def cmd_contract(args) -> int:
    v = _load_multivector(args.source)
    f = _parse_covector(v.window, args.covector)
    _emit(args, json.dumps(multivector_to_obj(contract(f, v)), indent=2))
    return 0


# -------------------------------------------------------------------- demos

def _demo_gr24(check, say):
    w = Window(0, 4)
    display = WedgePolynomial(
        2,
        {
            ((1, 2), (3, 4)): Fraction(1),
            ((1, 3), (2, 4)): Fraction(-1),
            ((1, 4), (2, 3)): Fraction(1),
        },
        w,
    )
    pf = hpf_polynomial(FormSpec(2, 2, (1, 2, 3, 4))).with_window(w)
    check("pf(2,2) three-term display", str(display), str(pf))

    plane = Multivector.basis(w, (1, 2))
    split = plane + Multivector.basis(w, (3, 4))
    check("decomposable point", "member", _verdict(in_grassmannian(plane)))
    check("pf(2,2) at the split pair", "1", str(hpf_eval(FormSpec(2, 2, (1, 2, 3, 4)), split)))
    check("split pair", "non-member", _verdict(in_grassmannian(split)))

    shear = RationalMatrix.from_function(
        w,
        lambda r, c: Fraction(1) if r == c else (Fraction(1, 2) if (r, c) == (3, 1) else Fraction(0)),
    )
    check("sheared decomposable", "member", _verdict(in_grassmannian(gl_apply(shear, plane))))
    check("sheared split pair", "non-member", _verdict(in_grassmannian(gl_apply(shear, split))))


def _demo_lift42(check, say):
    seed = 1729
    say(f"seed: {seed}")
    rng = random.Random(seed)
    w = Window(4, 3)
    inside = 0
    returned = 0
    for _ in range(20):
        v = type_witness(TypeSpec((3,), 1), w, rng.getrandbits(48))
        lifted = transition("j", v)
        if in_hpf(4, 2, lifted).member:
            inside += 1
        if transition("j_dagger", lifted) == v:
            returned += 1
    check("top-wedge lifts inside HPf(4,2)", "20/20", f"{inside}/20")
    check("contracting the lift returns the point", "20/20", f"{returned}/20")


def _demo_sec5_trivector(check, say):
    w = Window(4, 3)
    core = (
        Multivector.basis(w, (-4, -3))
        + Multivector.basis(w, (-2, -1))
        + Multivector.basis(w, (1, 2))
    )
    t = wedge(core, Multivector.basis(w, (3,)))
    u = Multivector.basis(w, (-4, -3, -2)) + Multivector.basis(w, (-1, 1, 2))

    check("t survives every contraction", "no", "yes" if pf_contraction_identically_zero(t) else "no")
    witness = pf_contraction_witness(t)
    check("refuting covector exists", "yes", "no" if witness is None else "yes")
    if witness is not None:
        say(f"witness: {witness!r}")
        blown = wedge(t, wedge_power(contract(witness, t), 2))
        check("blow-up at the witness", "6*e(-4,-3,-2,-1,1,2,3)", str(blown))
    check("u survives every contraction", "yes", "yes" if pf_contraction_identically_zero(u) else "no")

    mirror = Window(3, 4)
    wanted = (
        Multivector.basis(mirror, (-2, -1, 1, 2))
        + Multivector.basis(mirror, (-2, -1, 3, 4))
        + Multivector.basis(mirror, (1, 2, 3, 4))
    )
    check("star of t", str(wanted), str(hodge_star(t)))


def _demo_sec5_fourvector(check, say):
    w = Window(5, 4)
    omega = (
        Multivector.basis(w, (-5, -4, -3, -2))
        + Multivector.basis(w, (-1, 1, 2, 3))
        + Multivector.basis(w, (-5, -4, -3, -1))
        + Multivector.basis(w, (-2, 1, 2, 3))
        + Multivector.basis(w, (-5, -2, -1, 4))
    )
    check("omega wedge omega", "0", str(wedge(omega, omega)))
    report = in_hpf(4, 2, omega)
    check("omega against HPf(4,2)", "member", _verdict(report))
    check("defining forms checked", "9", str(report.certificate.get("forms_checked")))


def _demo_limit_element(check, say):
    previous = None
    for p in range(2, 7):
        w = Window(6, p)
        chain = Multivector(w, 0, {(): Fraction(1)})
        for k in range(1, p):
            chain = wedge(chain, Multivector.basis(w, (k,)) + Multivector.basis(w, (k + 1,)))
        chain = wedge(chain, Multivector.basis(w, (p,)))
        target = Multivector.basis(w, tuple(range(1, p + 1)))
        check(f"telescoping product at p={p}", str(target), str(chain))
        if previous is not None:
            dropped = transition("j_dagger", chain)
            check(f"truncation from p={p}", str(previous), str(dropped))
        previous = chain


_DEMOS = {
    "gr24": ("the rank-two locus in four coordinates", _demo_gr24),
    "lift42": ("top-wedge lifts land in the width-4 depth-2 locus", _demo_lift42),
    "sec5-trivector": ("a trivector refuted by contraction, one that passes, and a star value", _demo_sec5_trivector),
    "sec5-fourvector": ("a five-term four-vector with vanishing square", _demo_sec5_fourvector),
    "limit-element": ("the telescoping chain and its truncations", _demo_limit_element),
}


def cmd_demo(args) -> int:
    if args.name not in _DEMOS:
        raise ValueError(f"unknown demo {args.name!r}; known: {', '.join(_DEMOS)}")
    blurb, scenario = _DEMOS[args.name]
    print(f"demo {args.name}: {blurb}")
    failures = 0

    def check(label, expected, computed):
        nonlocal failures
        ok = expected == computed
        if not ok:
            failures += 1
        print(f"  {label}: expected {expected} computed {computed} {'ok' if ok else 'FAIL'}")

    def say(text):
        print(f"  {text}")

    scenario(check, say)
    if failures:
        print(f"FAIL ({failures} checks)")
        return 1
    print("PASS")
    return 0


def cmd_list_demos(args) -> int:
    for name, (blurb, _) in _DEMOS.items():
        print(f"{name}: {blurb}")
    return 0


# ------------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperwedge",
        description="exact exterior algebra over two-sided index windows",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def form_flag(p, required=True):
        p.add_argument(
            "--form", nargs=2, type=parse_integer, metavar=("M", "L"), required=required,
            help="locus width and depth",
        )

    def out_flag(p):
        p.add_argument("--out", metavar="PATH", help="write the result to PATH instead of stdout")

    ev = sub.add_parser("eval", help="evaluate one form on a multivector file")
    form_flag(ev)
    ev.add_argument("--set", dest="members", required=True, metavar="LABELS",
                    help="comma separated member labels; spell --set=-2,-1,... "
                         "when the first one is negative")
    ev.add_argument("--tail", default="", metavar="LABELS",
                    help="comma separated tail labels")
    out_flag(ev)
    ev.add_argument("source", help="multivector file, or - for stdin")
    ev.set_defaults(handler=cmd_eval)

    ideal = sub.add_parser("ideal", help="emit the defining equations of one component")
    form_flag(ideal)
    ideal.add_argument("--window", nargs=2, type=parse_integer, metavar=("N", "P"), required=True,
                       help="negative and positive window sizes")
    ideal.add_argument("--dual", nargs=2, type=parse_integer, metavar=("R", "S"),
                       help="also pull back the mirror-side equations")
    out_flag(ideal)
    ideal.set_defaults(handler=cmd_ideal)

    mem = sub.add_parser("member", help="test a point against one locus")
    mem.add_argument("--gr", action="store_true", help="decomposable locus")
    mem.add_argument("--pf", type=parse_integer, metavar="L", help="two-forms with vanishing l-th power")
    form_flag(mem, required=False)
    mem.add_argument("--dual", nargs=2, type=parse_integer, metavar=("R", "S"),
                     help="mirror-side locus; with --form, both sides")
    mem.add_argument("--max-bound", dest="max_bound", action="store_true",
                     help="randomized contraction test against the maximal locus")
    mem.add_argument("--trials", type=parse_integer, metavar="N",
                     help=f"with --max-bound: random draws (default {DEFAULT_TRIALS})")
    mem.add_argument("--seed", type=parse_integer, metavar="S",
                     help=f"with --max-bound: random seed (default {DEFAULT_SEED})")
    out_flag(mem)
    mem.add_argument("source", help="multivector file, or - for stdin")
    mem.set_defaults(handler=cmd_member)

    we = sub.add_parser("wedge", help="wedge two multivector files")
    out_flag(we)
    we.add_argument("left")
    we.add_argument("right")
    we.set_defaults(handler=cmd_wedge)

    st = sub.add_parser("star", help="duality into the mirrored window")
    out_flag(st)
    st.add_argument("source")
    st.set_defaults(handler=cmd_star)

    co = sub.add_parser("contract", help="interior product by a covector")
    co.add_argument("--covector", required=True, metavar="ENTRIES",
                    help="comma separated label=value entries, values as p/q; "
                         "spell --covector=-4=1,... when the first label is negative")
    out_flag(co)
    co.add_argument("source")
    co.set_defaults(handler=cmd_contract)

    de = sub.add_parser("demo", help="run one scripted scenario")
    de.add_argument("name")
    de.set_defaults(handler=cmd_demo)

    ld = sub.add_parser("list-demos", help="list the demo scenarios")
    ld.set_defaults(handler=cmd_list_demos)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except DimensionMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (FormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
