"""Property test of the bitmask core's sign rules on single basis terms."""
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

from hyperwedge.indices import Window, sort_with_sign
from hyperwedge.multivector import _contract_masks, _frame, _labels, _wedge_masks


@given(st.data())
def test_wedge_and_contraction_signs_on_basis_terms(data):
    window = Window(data.draw(st.integers(0, 5)), data.draw(st.integers(1, 5)))
    labels = window.elements()
    bit = _frame(window)

    def key(label_set):
        return tuple(sorted(label_set))

    def mask(k):
        return sum(bit[x] for x in k)

    a = key(data.draw(st.sets(st.sampled_from(labels))))
    b = key(data.draw(st.sets(st.sampled_from(labels))))
    assert _labels(window, mask(a)) == a
    merged, sign = sort_with_sign(a + b)  # sign 0 on a shared label
    assert _wedge_masks({mask(a): 3}, {mask(b): -2}) == ({mask(merged): -6 * sign} if sign else {})
    if len(a) == len(b):
        assert (a < b) == (mask(a) > mask(b))
    t = data.draw(st.sampled_from(labels))
    after = sum(1 for x in a if x > t)
    expected = {mask(tuple(x for x in a if x != t)): 5 * (-1) ** after} if t in a else {}
    assert _contract_masks({bit[t]: 5}, {mask(a): 1}) == expected
