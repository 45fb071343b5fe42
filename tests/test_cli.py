"""End-to-end checks of the command line front end.

Every test drives main(argv) directly and inspects exit codes, stdout,
and written files.  Expected values come from the library calls the
commands wrap, which have their own suites.
"""
import hashlib
import json
import random
from fractions import Fraction

import pytest

from hyperwedge import cli
from hyperwedge.cli import main
from hyperwedge.forms import FormSpec, hpf_eval
from hyperwedge.indices import Window
from hyperwedge.multivector import (
    Multivector,
    contract,
    Covector,
    hodge_star,
    multivector_to_obj,
    transition,
    wedge,
)
from hyperwedge.polynomials import poly_eval, poly_from_obj, poly_to_obj
from hyperwedge.varieties import contraction_membership

from conftest import random_decomposable, random_multivector


def exit_code(argv):
    """main's return value, or the status argparse exits with."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def basis(window, *indices, coeff=1):
    return Multivector.basis(window, indices, coeff)


def save(path, v):
    path.write_text(json.dumps(multivector_to_obj(v)))
    return str(path)


def split_pair(window=None):
    w = window or Window(0, 4)
    return basis(w, 1, 2) + basis(w, 3, 4)


def trivector_t():
    w = Window(4, 3)
    core = basis(w, -4, -3) + basis(w, -2, -1) + basis(w, 1, 2)
    return wedge(core, basis(w, 3)), w


def trivector_u():
    w = Window(4, 3)
    return basis(w, -4, -3, -2) + basis(w, -1, 1, 2), w


def four_vector_omega():
    w = Window(5, 4)
    return (
        basis(w, -5, -4, -3, -2)
        + basis(w, -1, 1, 2, 3)
        + basis(w, -5, -4, -3, -1)
        + basis(w, -2, 1, 2, 3)
        + basis(w, -5, -2, -1, 4)
    ), w


# ----------------------------------------------------------------- eval

def test_eval_prints_exact_rational(tmp_path, capsys):
    src = save(tmp_path / "v.json", split_pair())
    rc = main(["eval", "--form", "2", "2", "--set", "1,2,3,4", src])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "1"


def test_eval_zero_vector(tmp_path, capsys):
    src = save(tmp_path / "z.json", Multivector.zero(Window(0, 4), 2))
    rc = main(["eval", "--form", "2", "2", "--set", "1,2,3,4", src])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "0"


def test_eval_split_eight(tmp_path, capsys):
    w = Window(0, 8)
    v = basis(w, 1, 2, 3, 4) + basis(w, 5, 6, 7, 8)
    src = save(tmp_path / "v.json", v)
    rc = main(["eval", "--form", "4", "2", "--set", "1,2,3,4,5,6,7,8", src])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "1"


def test_eval_relative_form_with_tail(tmp_path, capsys):
    # hpf(1,1) with member {1} and tail {2} is the coordinate x_{1,2}
    src = save(tmp_path / "v.json", basis(Window(0, 3), 1, 2, coeff=Fraction(5, 3)))
    rc = main(["eval", "--form", "1", "1", "--set", "1", "--tail", "2", src])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "5/3"


def test_eval_negative_labels(tmp_path, capsys):
    # leading minus needs the --flag=value spelling
    w = Window(2, 2)
    src = save(tmp_path / "v.json", basis(w, -2, -1) + basis(w, 1, 2))
    rc = main(["eval", "--form", "2", "2", "--set=-2,-1,1,2", src])
    assert rc == 0
    out = capsys.readouterr().out.strip()
    assert Fraction(out) == hpf_eval(
        FormSpec(2, 2, (-2, -1, 1, 2)), basis(w, -2, -1) + basis(w, 1, 2)
    )


def test_eval_error_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["eval", "--form", "2", "2", "--set", "1,2,3,4", str(bad)]) == 2

    wrong_grade = save(tmp_path / "g3.json", basis(Window(0, 4), 1, 2, 3))
    assert main(["eval", "--form", "2", "2", "--set", "1,2,3,4", wrong_grade]) == 3

    ok = save(tmp_path / "v.json", split_pair())
    # member set size must be m*l
    assert main(["eval", "--form", "2", "2", "--set", "1,2", ok]) == 3
    # duplicate labels rejected at parse level
    assert main(["eval", "--form", "2", "2", "--set", "1,1,2,3", ok]) == 2
    # labels outside the window
    assert main(["eval", "--form", "2", "2", "--set", "1,2,3,9", ok]) == 3
    assert main(["eval", "--form", "2", "2", "--set", "1,2,3,4", str(tmp_path / "absent.json")]) == 2
    capsys.readouterr()


def test_eval_out_flag_writes_file(tmp_path, capsys):
    src = save(tmp_path / "v.json", split_pair())
    target = tmp_path / "value.txt"
    rc = main(["eval", "--form", "2", "2", "--set", "1,2,3,4", "--out", str(target), src])
    assert rc == 0
    assert capsys.readouterr().out == ""
    assert target.read_text().strip() == "1"


def test_eval_reads_stdin(tmp_path, capsys, monkeypatch):
    import io

    text = json.dumps(multivector_to_obj(split_pair()))
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    rc = main(["eval", "--form", "2", "2", "--set", "1,2,3,4", "-"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "1"


# ----------------------------------------------------------------- ideal

def run_ideal(capsys, *argv):
    rc = main(["ideal", *argv])
    out = capsys.readouterr().out
    return rc, json.loads(out)


def test_ideal_unique_equation_smallest_window(capsys):
    rc, doc = run_ideal(capsys, "--form", "2", "2", "--window", "2", "2")
    assert rc == 0
    assert doc["trivial"] is False
    assert doc["count"] == 1
    eq = doc["equations"][0]
    assert eq["label"] == "hpf(2,2)@-2,-1,1,2"
    assert eq["window"] == [2, 2]
    # bit-exact round trip through the polynomial text format
    assert poly_to_obj(poly_from_obj(eq)) == eq
    assert json.dumps(poly_to_obj(poly_from_obj(eq))) == json.dumps(eq)


def test_ideal_hypersurface_term_count(capsys):
    rc, doc = run_ideal(capsys, "--form", "4", "2", "--window", "4", "4")
    assert rc == 0
    assert doc["count"] == 1
    eq = doc["equations"][0]
    assert len(eq["terms"]) == 35
    assert poly_to_obj(poly_from_obj(eq)) == eq


def test_ideal_trivial_regions(capsys):
    rc, doc = run_ideal(capsys, "--form", "4", "2", "--window", "3", "4")
    assert rc == 0
    assert doc["trivial"] is True
    assert doc["count"] == 0
    assert doc["equations"] == []
    assert "n" in doc["reason"]

    rc, doc = run_ideal(capsys, "--form", "2", "2", "--window", "4", "1")
    assert rc == 0
    assert doc["trivial"] is True
    assert doc["count"] == 0
    assert "p" in doc["reason"]


def test_ideal_depth_three_boundary(capsys):
    # (m(l-1), m) = (4, 2) for the pair locus of depth 3
    rc, doc = run_ideal(capsys, "--form", "2", "3", "--window", "4", "2")
    assert rc == 0
    assert doc["count"] == 1
    assert doc["equations"][0]["label"].startswith("hpf(2,3)@")


def test_ideal_rejects_odd_width(capsys):
    rc = main(["ideal", "--form", "3", "2", "--window", "3", "3"])
    assert rc == 2
    capsys.readouterr()


def test_ideal_dual_appends_pulled_back_equations(capsys):
    rc, doc = run_ideal(
        capsys, "--form", "2", "2", "--window", "2", "2", "--dual", "2", "2"
    )
    assert rc == 0
    assert doc["dual"] == [2, 2]
    assert doc["count"] == 2
    primal, pulled = doc["equations"]
    assert primal["label"].startswith("hpf(2,2)@")
    assert pulled["label"].startswith("dual(2,2)@")
    # the pulled-back equation lives in primal coordinates
    assert pulled["window"] == [2, 2]
    assert pulled["grade"] == 2

    q = poly_from_obj(pulled)
    w = Window(2, 2)
    dual_spec = FormSpec(2, 2, (-2, -1, 1, 2))
    rng = random.Random(11)
    for _ in range(10):
        v = random_multivector(rng, w, 2)
        assert poly_eval(q, v) == hpf_eval(dual_spec, hodge_star(v))


def test_ideal_dual_bundle_round_trips(capsys):
    rc, doc = run_ideal(
        capsys, "--form", "2", "2", "--window", "3", "3", "--dual", "2", "2"
    )
    assert rc == 0
    labels = {eq["label"].split("(")[0] for eq in doc["equations"]}
    assert labels == {"hpf", "dual"}
    for eq in doc["equations"]:
        assert json.dumps(poly_to_obj(poly_from_obj(eq))) == json.dumps(eq)


def test_ideal_dual_trivial_side(capsys):
    rc, doc = run_ideal(
        capsys, "--form", "2", "2", "--window", "2", "2", "--dual", "4", "2"
    )
    assert rc == 0
    assert doc["dual_trivial"] is True
    assert doc["dual_reason"] == "n = 2 < r = 4"
    assert doc["count"] == 1
    assert doc["equations"][0]["label"].startswith("hpf(2,2)@")


def test_ideal_out_file_matches_stdout(tmp_path, capsys):
    target = tmp_path / "ideal.json"
    rc = main(
        ["ideal", "--form", "2", "2", "--window", "2", "2", "--out", str(target)]
    )
    assert rc == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(target.read_text())
    assert doc["count"] == 1
    eq = doc["equations"][0]
    assert poly_to_obj(poly_from_obj(eq)) == eq


# ----------------------------------------------------------------- member

def run_member(capsys, *argv):
    rc = main(["member", *argv])
    out = capsys.readouterr().out
    return rc, json.loads(out)


def test_member_pf_refutation(tmp_path, capsys):
    src = save(tmp_path / "v.json", split_pair())
    rc, doc = run_member(capsys, "--pf", "2", src)
    assert rc == 1
    assert doc["spec"] == "Pf(2)"
    assert doc["verdict"] == "non-member"
    cert = doc["certificate"]
    assert cert["label"] == "hpf(2,2)@1,2,3,4"
    assert Fraction(cert["value"]) == 1


def test_member_pf_acceptance(tmp_path, capsys):
    src = save(tmp_path / "v.json", split_pair())
    rc, doc = run_member(capsys, "--pf", "3", src)
    assert rc == 0
    assert doc["verdict"] == "member"


def test_member_grassmannian(tmp_path, capsys):
    good = save(tmp_path / "dec.json", basis(Window(0, 4), 1, 2))
    rc, doc = run_member(capsys, "--gr", good)
    assert rc == 0

    bad = save(tmp_path / "split.json", split_pair())
    rc, doc = run_member(capsys, "--gr", bad)
    assert rc == 1
    assert doc["certificate"]["label"].startswith("plucker@")


def test_member_form_grade_m_dispatch(tmp_path, capsys):
    omega, w = four_vector_omega()
    src = save(tmp_path / "omega.json", omega)
    rc, doc = run_member(capsys, "--form", "4", "2", src)
    assert rc == 0
    assert doc["spec"] == "HPf(4,2)"
    assert doc["certificate"]["kind"] == "zero_power"


def test_member_form_component_dispatch(tmp_path, capsys):
    # grade 2 equals the window grade, not the locus width, so the
    # component test runs and lands in a trivial region
    w = Window(2, 2)
    src = save(tmp_path / "v.json", basis(w, -2, -1) + basis(w, 1, 2))
    rc, doc = run_member(capsys, "--form", "4", "2", src)
    assert rc == 0
    assert doc["certificate"]["kind"] == "trivial_region"


def test_member_form_grade_mismatch(tmp_path, capsys):
    src = save(tmp_path / "v.json", basis(Window(0, 4), 1, 2, 3))
    rc = main(["member", "--form", "2", "2", src])
    assert rc == 3
    capsys.readouterr()


def test_member_two_sided(tmp_path, capsys):
    w = Window(2, 2)
    src = save(tmp_path / "v.json", basis(w, -2, -1) + basis(w, 1, 2))
    rc, doc = run_member(capsys, "--form", "4", "2", "--dual", "2", "2", src)
    assert rc == 1
    assert doc["spec"] == "HPf(4,2)&HPf*(2,2)"
    cert = doc["certificate"]
    assert cert["kind"] == "two_sided"
    assert cert["primal"]["kind"] == "trivial_region"
    assert Fraction(cert["dual"]["value"]) == 1


def test_member_two_sided_dual_reason_names_r(tmp_path, capsys):
    # the dual side is the (r, s) component of the star image, in window (p, n)
    src = save(tmp_path / "v.json", basis(Window(0, 0)))
    rc, doc = run_member(capsys, "--form", "4", "2", "--dual", "2", "1", src)
    assert rc == 0
    assert doc["certificate"]["primal"]["reason"] == "p = 0 < m = 4"
    assert doc["certificate"]["dual"]["reason"] == "n = 0 < r = 2"


def test_member_dual_alone(tmp_path, capsys):
    w = Window(0, 4)
    src = save(tmp_path / "star.json", hodge_star(split_pair(w)))
    rc, doc = run_member(capsys, "--dual", "2", "2", src)
    assert rc == 1
    assert doc["spec"] == "HPf*(2,2)"

    zero = save(tmp_path / "zero.json", Multivector.zero(Window(4, 0), 2))
    rc, doc = run_member(capsys, "--dual", "2", "2", zero)
    assert rc == 0


def test_member_dual_names_a_width_beyond_the_window(tmp_path, capsys):
    src = save(tmp_path / "scalar.json", Multivector(Window(0, 0), 0, {(): 1}))
    assert main(["member", "--dual", "2", "1", src]) == 3
    assert capsys.readouterr() == ("", "error: dual width r=2 exceeds window size 0\n")


def test_member_max_bound_refutes_t(tmp_path, capsys):
    t, _ = trivector_t()
    src = save(tmp_path / "t.json", t)
    rc, doc = run_member(
        capsys, "--max-bound", "--form", "2", "3", "--trials", "16", "--seed", "9", src
    )
    assert rc == 1
    assert doc["spec"] == "maxbound(2,3)"
    assert doc["certificate"]["kind"] == "violated_contraction"
    assert doc["seed"] == 9


def test_member_max_bound_passes_u(tmp_path, capsys):
    u, _ = trivector_u()
    src = save(tmp_path / "u.json", u)
    rc, doc = run_member(capsys, "--max-bound", "--form", "2", "3", src)
    assert rc == 0
    assert doc["certificate"]["kind"] == "trials_passed"
    assert doc["trials"] == 64
    assert doc["seed"] == 1729


def test_member_max_bound_defaults_are_the_library_defaults(tmp_path, capsys):
    # member passes --trials and --seed only when given, so without them it
    # prints the report contraction_membership gives with its own defaults
    t, _ = trivector_t()
    src = save(tmp_path / "t.json", t)
    rc, doc = run_member(capsys, "--max-bound", "--form", "2", "3", src)
    report = contraction_membership(2, 3, t)
    assert rc == 1 and not report.member
    assert (doc["trials"], doc["seed"], doc["certificate"]) == (
        report.trials, report.seed, report.certificate
    )


def test_member_flag_validation(tmp_path, capsys):
    src = save(tmp_path / "v.json", split_pair())
    assert main(["member", src]) == 2
    assert main(["member", "--gr", "--pf", "2", src]) == 2
    assert main(["member", "--max-bound", src]) == 2
    assert main(["member", "--gr", "--form", "2", "2", src]) == 2
    assert main(["member", "--pf", "2", "--form", "2", "2", src]) == 2
    assert main(["member", "--form", "2", "2", "--dual", "2", "2", "--max-bound", src]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "flags",
    [
        ["--gr", "--seed=-5", "--trials=0"],
        ["--gr", "--seed", "5"],
        ["--pf", "2", "--seed", "1729"],
        ["--form", "2", "2", "--trials", "4"],
        ["--dual", "2", "2", "--trials", "64", "--seed", "1"],
    ],
)
def test_member_trials_and_seed_need_max_bound(flags, tmp_path, capsys):
    # without --max-bound no draw is made, so a seed would print as null and
    # a bad value would pass unchecked
    src = save(tmp_path / "v.json", split_pair())
    assert main(["member", *flags, src]) == 2
    assert capsys.readouterr() == ("", "error: --trials and --seed need --max-bound\n")


def test_member_rejects_odd_width(tmp_path, capsys):
    # under every --form flag set; an odd-grade element squares to zero, so
    # --max-bound with an odd M would pass every trial vacuously
    u, _ = trivector_u()
    src = save(tmp_path / "u.json", u)
    for extra in [], ["--dual", "2", "2"], ["--max-bound"]:
        assert main(["member", "--form", "3", "2", *extra, src]) == 2, extra
        assert capsys.readouterr() == ("", "error: m must be a positive even integer, got 3\n")


# ------------------------------------------------- wedge, star, contract

def test_wedge_command(tmp_path, capsys):
    w = Window(0, 4)
    left = save(tmp_path / "a.json", basis(w, 1, 2))
    right = save(tmp_path / "b.json", basis(w, 3, 4))
    rc = main(["wedge", left, right])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == multivector_to_obj(wedge(basis(w, 1, 2), basis(w, 3, 4)))


def test_wedge_window_mismatch(tmp_path, capsys):
    left = save(tmp_path / "a.json", basis(Window(0, 4), 1, 2))
    right = save(tmp_path / "b.json", basis(Window(0, 5), 3, 4))
    assert main(["wedge", left, right]) == 3
    capsys.readouterr()


def test_star_command(tmp_path, capsys):
    t, w = trivector_t()
    src = save(tmp_path / "t.json", t)
    rc = main(["star", src])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == multivector_to_obj(hodge_star(t))
    mirror = Window(3, 4)
    expected = (
        basis(mirror, -2, -1, 1, 2)
        + basis(mirror, -2, -1, 3, 4)
        + basis(mirror, 1, 2, 3, 4)
    )
    assert doc == multivector_to_obj(expected)


def test_contract_command(tmp_path, capsys):
    t, w = trivector_t()
    src = save(tmp_path / "t.json", t)
    rc = main(["contract", "--covector", "3=1", src])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    core = basis(w, -4, -3) + basis(w, -2, -1) + basis(w, 1, 2)
    assert doc == multivector_to_obj(core)


def test_contract_fraction_weights(tmp_path, capsys):
    w = Window(4, 3)
    src = save(tmp_path / "v.json", basis(w, -4, -3))
    rc = main(["contract", "--covector=-4=1/2,-3=2", src])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    f = Covector(w, {-4: Fraction(1, 2), -3: Fraction(2)})
    assert doc == multivector_to_obj(contract(f, basis(w, -4, -3)))


def test_contract_error_codes(tmp_path, capsys):
    t, _ = trivector_t()
    src = save(tmp_path / "t.json", t)
    assert main(["contract", "--covector", "x=1", src]) == 2
    assert main(["contract", "--covector", "", src]) == 2
    for repeated in ("3=1,3=2", "3=1,3=-1", "3=0,2=1,3=1"):
        capsys.readouterr()
        assert main(["contract", "--covector", repeated, src]) == 2
        assert "label 3 is given twice" in capsys.readouterr().err
    assert main(["contract", "--covector", "9=1", src]) == 3
    scalar = save(tmp_path / "s.json", Multivector(Window(0, 2), 0, {(): Fraction(7)}))
    assert main(["contract", "--covector", "1=1", scalar]) == 3
    capsys.readouterr()


def test_star_out_flag(tmp_path, capsys):
    w = Window(0, 4)
    src = save(tmp_path / "v.json", basis(w, 1, 2))
    target = tmp_path / "starred.json"
    rc = main(["star", "--out", str(target), src])
    assert rc == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(target.read_text())
    assert doc == multivector_to_obj(hodge_star(basis(w, 1, 2)))


# ----------------------------------------------------------------- demos

DEMO_NAMES = ("gr24", "lift42", "sec5-trivector", "sec5-fourvector", "limit-element")


def test_list_demos(capsys):
    rc = main(["list-demos"])
    assert rc == 0
    out = capsys.readouterr().out
    for name in DEMO_NAMES:
        assert name in out


@pytest.mark.parametrize("name", DEMO_NAMES)
def test_demo_scenarios_pass(name, capsys):
    rc = main(["demo", name])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "FAIL" not in out
    assert "expected" in out and "computed" in out
    assert out.rstrip().endswith("PASS")


def test_demo_prints_seed_when_randomized(capsys):
    rc = main(["demo", "lift42"])
    assert rc == 0
    assert "seed" in capsys.readouterr().out


def test_failing_demo_exits_one(monkeypatch, capsys):
    def scenario(check, say):
        check("one plus one", "2", "3")

    monkeypatch.setattr(cli, "_DEMOS", {"broken": ("a check that fails", scenario)})
    assert main(["demo", "broken"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "demo broken: a check that fails",
        "  one plus one: expected 2 computed 3 FAIL",
        "FAIL (1 checks)",
    ]


def test_demo_unknown_name(capsys):
    assert main(["demo", "nope"]) == 2
    err = capsys.readouterr().err
    assert "nope" in err


ERROR_PATHS = {
    "flag-set": (["member", "--gr", "--pf", "2", "{v}"], 2, "pick one locus: --gr, --pf L"),
    "max-bound-alone": (["member", "--max-bound", "{v}"], 2, "pick one locus"),
    "no-locus": (["member", "{v}"], 2, "pick one locus"),
    "unknown-demo": (["demo", "nope"], 2, "unknown demo 'nope'; known: gr24, lift42"),
    "missing-file": (["star", "{absent}"], 2, "No such file"),
    "directory": (["star", "{dir}"], 2, "directory"),
    "malformed-json": (["star", "{bad}"], 2, "Expecting property name"),
    "negative-seed": (
        ["member", "--max-bound", "--form", "2", "3", "--seed=-1", "{t}"], 2,
        "seed must be a nonnegative integer, got -1",
    ),
    "dimension": (["member", "--pf", "2", "{t}"], 3, "locus lives in grade 2, argument has 3"),
}


@pytest.mark.parametrize("argv, code, message", ERROR_PATHS.values(), ids=ERROR_PATHS)
def test_each_error_prints_one_line_from_main(argv, code, message, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    paths = {
        "v": save(tmp_path / "v.json", split_pair()),
        "t": save(tmp_path / "t.json", trivector_t()[0]),
        "absent": str(tmp_path / "absent.json"),
        "dir": str(tmp_path),
        "bad": str(bad),
    }
    assert main([arg.format(**paths) for arg in argv]) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    assert message in err


# ------------------------------------------------------ strict input rules

@pytest.mark.parametrize("literal", ["1_0", "+1", "\u0661", " 1"])
def test_argv_integers_follow_the_strict_literal_rule(literal, tmp_path, capsys):
    # each of these once read as 1 or 10: int() takes signs, spaces,
    # underscores and non-ASCII digits
    v = save(tmp_path / "v.json", split_pair())
    t = save(tmp_path / "t.json", trivector_t()[0])
    for argv in (
        ["eval", "--form", "2", "2", f"--set={literal},2,3,4", v],
        ["eval", "--form", "2", "1", "--set", "2,3", f"--tail={literal}", v],
        ["contract", f"--covector={literal}=1", t],
        ["eval", "--form", literal, "2", "--set", "1,2,3,4", v],
        ["ideal", "--form", "2", "2", "--window", literal, "2"],
        ["ideal", "--form", "2", "2", "--window", "2", "2", "--dual", "2", literal],
        ["member", "--pf", literal, v],
        ["member", "--max-bound", "--form", "2", "3", "--trials", literal, t],
        ["member", "--max-bound", "--form", "2", "3", "--seed", literal, t],
    ):
        assert exit_code(argv) == 2, argv
    capsys.readouterr()


def test_unsorted_terms_exit_2(tmp_path, capsys):
    obj = multivector_to_obj(split_pair())
    obj["terms"].reverse()
    swapped = tmp_path / "swapped.json"
    swapped.write_text(json.dumps(obj))
    assert main(["star", str(swapped)]) == 2
    assert "sorted" in capsys.readouterr().err


def test_deeply_nested_json_is_a_format_error(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    assert main(["star", str(deep)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


# ------------------------------------------------------ golden output

GOLDEN_STDOUT_SHA256 = {
    ("demo", "gr24"):
        "56c8c3b2878f17948a417bc1cb796f34868a2422bfcd023ebf5a41fbd9c1f251",
    ("demo", "lift42"):
        "4e3aa4555aa48d6290f3c6e3158019ba87321e8dee917fa4c9f79dc32c8dcae9",
    ("demo", "sec5-trivector"):
        "f313e8d44ad31464abc87e557df069b77942fa5134cddd67c82e6aaa74641954",
    ("demo", "sec5-fourvector"):
        "5bc8ad9262f4d4d495a96945ae6aa57a14b334befbdb6210a454e60ff4703796",
    ("demo", "limit-element"):
        "e92ab3d9d1d3cfb9317a320e88c6f560f86c6f2949eeb94c9554802467f52d03",
    ("ideal", "--form", "2", "2", "--window", "3", "3", "--dual", "2", "2"):
        "adcdecc09000eab143793a3b6356f8398c8690fbb6b49f0512a7c47597cc1f9c",
    ("ideal", "--form", "4", "2", "--window", "4", "4", "--dual", "2", "2"):
        "fa87dee9b4b032cf64f8d70b81c190dc65ec307ea3db109c982f0a25e112cde2",
    ("ideal", "--form", "2", "2", "--window", "5", "3", "--dual", "2", "2"):
        "7212ed1069bf0e367a7db57e73ee84e0ebccdfd1b54417c3f27bcba8cced4d87",
}


@pytest.mark.parametrize("argv", list(GOLDEN_STDOUT_SHA256), ids=" ".join)
def test_stdout_is_byte_identical_to_golden(argv, capsys):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT_SHA256[argv]


def _component_points():
    """A seeded decomposable (4,4) point, and a sum of two with no -4 label."""
    decomposable = random_decomposable(random.Random(16), Window(4, 4), 4, bound=3)
    rng = random.Random(61)
    small = Window(3, 4)
    parts = [random_decomposable(rng, small, 4, bound=3) for _ in range(2)]
    return {"decomposable": decomposable,
            "split": transition("i", parts[0] + Fraction(1, 2) * parts[1])}


_MEMBER = """\
{
  "spec": "HPf(2,2)",
  "verdict": "member",
  "certificate": {
    "kind": "all_forms_vanish",
    "count": 420
  },
  "trials": null,
  "seed": null
}
"""

_MEMBER_TWO_SIDED = """\
{
  "spec": "HPf(2,2)&HPf*(2,2)",
  "verdict": "member",
  "certificate": {
    "kind": "two_sided",
    "primal": {
      "kind": "all_forms_vanish",
      "count": 420
    },
    "dual": {
      "kind": "all_forms_vanish",
      "count": 420
    }
  },
  "trials": null,
  "seed": null
}
"""

_SPLIT = """\
{
  "spec": "HPf(2,2)",
  "verdict": "non-member",
  "certificate": {
    "kind": "violated_form",
    "label": "hpf(2,2)@-3,-2,-1,1|2,3",
    "value": "1167"
  },
  "trials": null,
  "seed": null
}
"""

_SPLIT_TWO_SIDED = """\
{
  "spec": "HPf(2,2)&HPf*(2,2)",
  "verdict": "non-member",
  "certificate": {
    "kind": "two_sided",
    "primal": {
      "kind": "violated_form",
      "label": "hpf(2,2)@-3,-2,-1,1|2,3",
      "value": "1167"
    },
    "dual": {
      "kind": "violated_form",
      "label": "hpf(2,2)@-4,-3,-2,-1|1,4",
      "value": "3061"
    }
  },
  "trials": null,
  "seed": null
}
"""


@pytest.mark.parametrize("point, dual, code, expected", [
    ("decomposable", False, 0, _MEMBER),
    ("decomposable", True, 0, _MEMBER_TWO_SIDED),
    ("split", False, 1, _SPLIT),
    ("split", True, 1, _SPLIT_TWO_SIDED),
])
def test_component_member_stdout_is_golden(point, dual, code, expected, tmp_path, capsys):
    # neither certificate is the first (K, T) of the scan: both pin its order
    src = save(tmp_path / "v.json", _component_points()[point])
    argv = ["member", "--form", "2", "2"] + (["--dual", "2", "2"] if dual else []) + [src]
    assert main(argv) == code
    assert capsys.readouterr().out == expected
