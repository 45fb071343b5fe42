"""The seven small records are named tuples: checked, immutable, hashable, picklable."""
import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

import hyperwedge
from hyperwedge import (
    FormSpec,
    GoodParams,
    MembershipReport,
    ReconstructionResult,
    TypeSpec,
    VarietySpec,
    Window,
)

# (build, repr, hashable): a report's certificate is a dict, so a report never hashes
RECORDS = [
    (lambda: Window(4, 3), "Window(n=4, p=3)", True),
    (lambda: GoodParams(2, 3, 2, 2), "GoodParams(m=2, l=3, r=2, s=2)", True),
    (
        lambda: FormSpec(2, 2, (3, 1, 2, 4), [5]),
        "FormSpec(m=2, l=2, indices=(1, 2, 3, 4), tail=(5,))",
        True,
    ),
    (lambda: VarietySpec.pf(2), "VarietySpec(kind='pf', m=None, l=2, r=None, s=None)", True),
    (lambda: TypeSpec([2, 1], 2), "TypeSpec(pi=(2, 1), k=2)", True),
    (
        lambda: MembershipReport(False, {"kind": "violated_form", "value": Fraction(1, 2)}, 3, 7),
        "MembershipReport(member=False, certificate={'kind': 'violated_form',"
        " 'value': Fraction(1, 2)}, trials=3, seed=7)",
        False,
    ),
    (
        lambda: ReconstructionResult(None, ((-1, 2),), 5),
        "ReconstructionResult(completed=None, stuck=((-1, 2),), attempts=5)",
        True,
    ),
]
IDS = [text.split("(")[0] for _, text, _ in RECORDS]


@pytest.mark.parametrize("build, text, hashable", RECORDS, ids=IDS)
def test_equal_records_compare_and_hash_equal(build, text, hashable):
    a, b = build(), build()
    assert a is not b and a == b and not a != b
    if hashable:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)


@pytest.mark.parametrize("build, text, hashable", RECORDS, ids=IDS)
def test_records_are_immutable(build, text, hashable):
    record = build()
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], record[1])
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record == build()


@pytest.mark.parametrize("build, text, hashable", RECORDS, ids=IDS)
def test_record_repr(build, text, hashable):
    assert repr(build()) == text


@pytest.mark.parametrize("build, text, hashable", RECORDS, ids=IDS)
def test_records_pickle_round_trip(build, text, hashable):
    record = build()
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record) and copy == record


@pytest.mark.parametrize(
    "build",
    [
        lambda: GoodParams(0, 2, 2, 2),
        lambda: GoodParams(2, True, 2, 2),
        lambda: GoodParams(2, 2, 2.0, 2),
        lambda: Window(1.0, 2),
        lambda: Window(-1, 2),
        lambda: Window(True, 2),
        lambda: FormSpec(2, 1, (1, 2), (2, 3)),
        lambda: FormSpec(2.0, 1, (1, 2)),
        lambda: FormSpec(2, 1, (1, 2, 3)),
        lambda: TypeSpec((), 1),
        lambda: TypeSpec((2, True), 1),
        lambda: TypeSpec((2,), 1.0),
        lambda: VarietySpec("pf", l=2.0),
        lambda: VarietySpec("pf", l=2, m=3),
        lambda: VarietySpec("nope"),
        # the namedtuple copy routes go through the same checks
        lambda: Window(2, 2)._replace(n=-1),
        lambda: FormSpec(2, 1, (1, 2))._replace(tail=(1,)),
        lambda: GoodParams._make([2, 2, 0, 2]),
        lambda: TypeSpec._make([(), 1]),
        lambda: VarietySpec.pf(2)._replace(kind="hpf"),
    ],
)
def test_invalid_fields_raise(build):
    with pytest.raises(ValueError):
        build()


def test_checked_copies_normalize_like_the_constructor():
    assert FormSpec(2, 1, (1, 2))._replace(indices=[4, 3]) == FormSpec(2, 1, (3, 4))
    assert TypeSpec((2,), 1)._replace(pi=[2, 1]).pi == (2, 1)
    assert Window(2, 2)._replace(p=5) == Window(2, 5)


def test_trusted_form_spec_equals_the_checked_one():
    trusted = FormSpec._trusted(2, 2, (1, 2, 3, 4), (5,))
    assert type(trusted) is FormSpec
    assert trusted == FormSpec(2, 2, (4, 3, 2, 1), [5])
    assert hash(trusted) == hash(FormSpec(2, 2, (1, 2, 3, 4), (5,)))


def test_records_are_plain_tuples_underneath():
    assert Window(4, 3) == (4, 3)
    assert Window(4, 3)._asdict() == {"n": 4, "p": 3}
    report = MembershipReport(True, {"kind": "zero_power"})
    assert report.to_obj() == {"member": True, "certificate": {"kind": "zero_power"},
                               "trials": None, "seed": None}


def test_cli_import_leaves_dataclasses_unloaded():
    src = os.path.dirname(os.path.dirname(hyperwedge.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, hyperwedge.cli; print('dataclasses' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.strip() == "False"
