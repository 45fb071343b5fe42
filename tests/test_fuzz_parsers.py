"""Property tests for the strict parsers: any input is read or rejected.

A file parser may only return or raise FormatError; the argv parsers may
also raise the library's ValueError range checks (DimensionMismatch is one).
Any other exception means malformed input reached code that was not written
for it.  Documents are either arbitrary JSON-like values or a well-formed
document with one node, chosen at random, replaced by such a value, so the
checks deep inside a document run as often as the ones at its top.
"""
import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from hyperwedge.cli import _parse_covector, _parse_labels
from hyperwedge.forms import FormSpec, hpf_polynomial, plucker_relation
from hyperwedge.indices import Window
from hyperwedge.multivector import (
    FormatError,
    multivector_from_obj,
    multivector_to_obj,
    parse_integer,
)
from hyperwedge.polynomials import poly_from_obj, poly_to_obj

from conftest import random_multivector

FUZZ = settings(max_examples=200, deadline=None)

literals = st.sampled_from(["1", "-2/3", "0", "-0", "1/0", "0.5", " 1", "1_0", "+1", "\u0661"])
scalars = (
    st.none() | st.booleans() | st.integers(-3, 4) | st.floats() | literals | st.text(max_size=4)
)
anything = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=12,
)


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _paths(child, path + (key,))


def _replaced(node, path, value):
    if not path:
        return value
    copy = dict(node) if isinstance(node, dict) else list(node)
    copy[path[0]] = _replaced(node[path[0]], path[1:], value)
    return copy


@st.composite
def _corrupted(draw, valid):
    doc = draw(valid)
    path = draw(st.randoms(use_true_random=False)).choice(list(_paths(doc)))
    return _replaced(doc, path, draw(anything))


def documents(valid):
    return anything | _corrupted(valid)


def _multivector(seed):
    rng = random.Random(seed)
    w = Window(rng.randint(0, 3), rng.randint(1, 3))
    return random_multivector(rng, w, rng.randint(0, w.size))


seeds = st.integers(0, 999)
mv_docs = documents(seeds.map(lambda s: multivector_to_obj(_multivector(s))))
poly_docs = documents(st.sampled_from([
    poly_to_obj(hpf_polynomial(FormSpec(2, 2, (1, 2, 3, 4)))),
    poly_to_obj(hpf_polynomial(FormSpec(2, 1, (-1, 1), (2,))).with_window(Window(1, 2))),
    poly_to_obj(plucker_relation((1,), (2, 3, 4), Window(0, 4))),
]))
argv_text = (
    st.text(max_size=12) | st.lists(literals | st.text(max_size=3), max_size=4).map(",".join)
)
covector_text = argv_text | st.lists(
    st.tuples(literals, literals).map("=".join), min_size=1, max_size=3
).map(",".join)


def returns_or_rejects(parse, arg, allowed):
    try:
        parse(arg)
    except allowed:
        pass


@FUZZ
@given(mv_docs)
def test_multivector_parser_returns_or_rejects(obj):
    returns_or_rejects(multivector_from_obj, obj, FormatError)


@FUZZ
@given(poly_docs)
def test_polynomial_parser_returns_or_rejects(obj):
    returns_or_rejects(poly_from_obj, obj, FormatError)


@FUZZ
@given(argv_text)
def test_argv_integer_is_a_canonical_literal(text):
    try:
        value = parse_integer(text)
    except FormatError:
        return
    assert text.lstrip("-") == str(abs(value)) and text.count("-") <= 1


@FUZZ
@given(argv_text)
def test_argv_labels_return_or_reject(text):
    returns_or_rejects(_parse_labels, text, ValueError)


@FUZZ
@given(covector_text)
def test_argv_covector_returns_or_rejects(text):
    returns_or_rejects(lambda t: _parse_covector(Window(3, 3), t), text, ValueError)
