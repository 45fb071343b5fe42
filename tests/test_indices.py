import itertools
import math
import random

import pytest

from hyperwedge.indices import (
    DimensionMismatch,
    GoodParams,
    Window,
    conjugate_partition,
    enumerate_partitions,
    index_set,
    is_good,
    shuffle_sign,
    sort_with_sign,
    young_diagram,
)


# ---------------------------------------------------------------- oracles

def bubble_sign(seq):
    """Permutation parity by literal adjacent-swap sorting.

    Independent of the library's inversion count; 0 on duplicates.
    """
    items = list(seq)
    if len(set(items)) < len(items):
        return 0
    sign = 1
    changed = True
    while changed:
        changed = False
        for j in range(len(items) - 1):
            if items[j] > items[j + 1]:
                items[j], items[j + 1] = items[j + 1], items[j]
                sign = -sign
                changed = True
    return sign


def block_partition_count(total, block):
    l = total // block
    return math.factorial(total) // (math.factorial(block) ** l * math.factorial(l))


def integer_partitions(n, max_part=None):
    """All weakly decreasing tuples of positive ints summing to n."""
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in integer_partitions(n - first, first):
            yield (first,) + rest


# ---------------------------------------------------------------- windows

def test_window_elements_and_membership():
    w = Window(2, 3)
    assert w.elements() == (-2, -1, 1, 2, 3)
    assert w.size == 5
    assert -2 in w and 3 in w
    assert 0 not in w
    assert 4 not in w and -3 not in w


def test_window_rejects_negative_dimensions():
    with pytest.raises(ValueError):
        Window(-1, 2)


def test_window_partial_order():
    assert Window(2, 2).leq(Window(4, 3))
    assert not Window(4, 1).leq(Window(3, 2))


def test_index_set_canonicalization():
    assert index_set([3, -1, 1]) == (-1, 1, 3)
    with pytest.raises(ValueError):
        index_set([1, 1])
    with pytest.raises(ValueError):
        index_set([0, 2])
    with pytest.raises(DimensionMismatch):
        index_set([5], window=Window(1, 2))


@pytest.mark.parametrize("label", [True, False, 1.0, 1.5, "1", None])
def test_labels_are_never_coerced(label):
    with pytest.raises(ValueError):
        index_set([label])
    with pytest.raises(ValueError):
        sort_with_sign([2, label])
    with pytest.raises(ValueError):
        shuffle_sign([(label,), (2,)])


@pytest.mark.parametrize("side", [True, 1.0, 1.5])
def test_window_sides_are_never_coerced(side):
    with pytest.raises(ValueError):
        Window(side, 2)
    with pytest.raises(ValueError):
        Window(2, side)


# ---------------------------------------------------------------- sort sign

def test_sort_with_sign_spec_values():
    assert sort_with_sign((1, 2, 3)) == ((1, 2, 3), 1)
    assert sort_with_sign((2, 1)) == ((1, 2), -1)
    # one inversion under the signed order: (3, 1)
    assert sort_with_sign((-1, 3, 1)) == ((-1, 1, 3), -1)


def test_sort_with_sign_flags_duplicates_with_zero():
    iset, sign = sort_with_sign((3, -1, 3))
    assert sign == 0
    assert iset == (-1, 3, 3)


def test_sort_with_sign_matches_bubble_oracle_exhaustively():
    universe = (-2, -1, 1, 3, 5, 6)
    for k in range(1, 7):
        for perm in itertools.permutations(universe[:k]):
            _, sign = sort_with_sign(perm)
            assert sign == bubble_sign(perm), perm


# ---------------------------------------------------------------- shuffles

def test_shuffle_sign_pfaffian_anchor_terms():
    assert shuffle_sign([(1, 2), (3, 4)]) == 1
    assert shuffle_sign([(1, 3), (2, 4)]) == -1
    assert shuffle_sign([(1, 4), (2, 3)]) == 1


def test_shuffle_sign_rejects_overlap_and_unsorted_blocks():
    with pytest.raises(ValueError):
        shuffle_sign([(1, 2), (2, 3)])
    with pytest.raises(ValueError):
        shuffle_sign([(2, 1), (3, 4)])


def test_shuffle_sign_empty_is_positive():
    assert shuffle_sign([]) == 1


def test_shuffle_sign_composes_under_refinement():
    rng = random.Random(20260817)
    pool = [i for i in range(-9, 10) if i != 0]
    for _ in range(200):
        rng.shuffle(pool)
        sizes = [2, 1, 3, 2]
        blocks, start = [], 0
        for size in sizes:
            blocks.append(tuple(sorted(pool[start:start + size])))
            start += size
        total = shuffle_sign(blocks)
        cut = rng.randint(1, len(blocks) - 1)
        left, right = blocks[:cut], blocks[cut:]
        left_union = tuple(sorted(x for b in left for x in b))
        right_union = tuple(sorted(x for b in right for x in b))
        composed = (
            shuffle_sign(left)
            * shuffle_sign(right)
            * shuffle_sign([left_union, right_union])
        )
        assert total == composed


# ---------------------------------------------------------------- partitions

def test_enumerate_partitions_counts():
    cases = [
        ((1, 2, 3, 4), 2, 3),
        ((1, 2, 3, 4, 5, 6), 2, 15),
        (tuple(range(1, 9)), 4, 35),
        (tuple(range(1, 9)), 2, 105),
        ((1, 2), 2, 1),
    ]
    for elems, m, expected in cases:
        got = list(enumerate_partitions(elems, m))
        assert len(got) == expected
        assert expected == block_partition_count(len(elems), m)


def test_enumerate_partitions_unique_and_canonical():
    seen = set()
    for blocks, sign in enumerate_partitions(tuple(range(1, 9)), 2):
        key = frozenset(frozenset(b) for b in blocks)
        assert key not in seen
        seen.add(key)
        mins = [b[0] for b in blocks]
        assert mins == sorted(mins)
        for b in blocks:
            assert list(b) == sorted(b)
        assert sign == shuffle_sign(blocks)


def test_enumerate_partitions_signed_order_matters():
    # the signed order puts every negative below every positive
    [(blocks, sign)] = list(enumerate_partitions((-2, -1, 1, 2), 4))
    assert blocks == ((-2, -1, 1, 2),)
    assert sign == 1


def test_enumerate_partitions_m_one_is_identity():
    [(blocks, sign)] = list(enumerate_partitions((1, 2, 3), 1))
    assert blocks == ((1,), (2,), (3,))
    assert sign == 1


def test_enumerate_partitions_rejects_indivisible():
    with pytest.raises(ValueError):
        list(enumerate_partitions((1, 2, 3), 2))


# ---------------------------------------------------------------- goodness

def test_vacuum_is_good_for_any_params():
    assert is_good((), (), GoodParams(2, 2, 2, 2))
    assert is_good((), (), GoodParams(4, 3, 2, 5))


def test_two_deep_negatives_are_not_good():
    params = GoodParams(2, 2, 2, 2)
    # deep means <= m - 1 - m*l = -3 here
    assert not is_good((-4, -3), (1, 2), params)
    assert is_good((-3, -1), (1, 2), params)


def test_good_example_single_swap():
    params = GoodParams(2, 2, 2, 2)
    assert is_good((-1,), (1,), params)


def test_mismatched_cardinalities_are_not_good():
    assert not is_good((-1,), (), GoodParams(2, 2, 2, 2))


def test_two_deep_positive_gaps_are_not_good():
    params = GoodParams(2, 2, 2, 2)  # deep positive threshold r*s - r = 2
    assert not is_good((-2, -1), (2, 3), params)
    assert is_good((-2, -1), (1, 2), params)


def test_is_good_rejects_malformed_parts():
    with pytest.raises(ValueError):
        is_good((1,), (1,), GoodParams(2, 2, 2, 2))
    with pytest.raises(ValueError):
        is_good((-1,), (-1,), GoodParams(2, 2, 2, 2))


# ---------------------------------------------------------------- diagrams

def test_young_diagram_anchor_values():
    w = Window(2, 4)
    assert young_diagram((1, 2, 3, 4), w) == ()
    assert young_diagram((-1, 1, 3, 4), w) == (2,)
    assert young_diagram((-2, 1, 3, 4), w) == (2, 1)


def test_young_diagram_requires_charge_zero():
    with pytest.raises(DimensionMismatch):
        young_diagram((1, 2), Window(2, 4))


def test_young_diagram_injective_per_window():
    for w in (Window(2, 2), Window(2, 4), Window(3, 3)):
        seen = {}
        for combo in itertools.combinations(w.elements(), w.p):
            d = young_diagram(combo, w)
            assert d not in seen, (combo, seen.get(d))
            seen[d] = combo
        assert seen[()] == tuple(range(1, w.p + 1))


def test_conjugate_partition_round_trip():
    for n in range(7):
        for parts in integer_partitions(n):
            conj = conjugate_partition(parts)
            assert conjugate_partition(conj) == parts
            assert sum(conj) == n
