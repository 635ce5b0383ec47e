from math import comb, prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import skew_cells
from scpp.partitions import (
    contains,
    horizontal_strips_within,
    part_at,
    partition,
    partitions_in_rectangle,
    rectangle,
    rotated_complement,
    size,
    strip_ranges,
    strips_of,
)


def test_partition_normalizes_trailing_zeros():
    assert partition([3, 2, 0, 0]) == (3, 2)
    assert partition([]) == ()
    assert partition([0, 0]) == ()


def test_partition_rejects_bad_input():
    with pytest.raises(ValueError):
        partition([1, 2])
    with pytest.raises(ValueError):
        partition([2, -1])


@given(st.lists(st.integers(min_value=0, max_value=9), max_size=6))
def test_partition_accepts_any_sorted_input(parts):
    parts.sort(reverse=True)
    lam = partition(parts)
    assert lam == partition(lam)
    assert not lam or lam[-1] > 0


@pytest.mark.parametrize(
    ("alpha", "gamma", "expected"),
    [(0, 5, ()), (3, 2, (2, 2, 2)), (2, 4, (4, 4)), (3, 0, ())],
)
def test_rectangle(alpha, gamma, expected):
    assert rectangle(alpha, gamma) == expected


def test_rectangle_size():
    assert size(rectangle(2, 4)) == 8


@pytest.mark.parametrize(
    ("lam", "mu", "expected"),
    [
        ((4, 2, 1), (2, 2), True),
        ((4, 2, 1), (5,), False),
        ((4, 2, 1), (), True),
        ((), (), True),
        ((2, 2), (2, 2, 1), False),
    ],
)
def test_contains(lam, mu, expected):
    assert contains(lam, mu) is expected


def test_contains_is_a_partial_order_on_4x4():
    universe = list(partitions_in_rectangle(4, 4))
    for lam in universe:
        assert contains(lam, lam)
    for lam in universe:
        for mu in universe:
            if contains(lam, mu) and contains(mu, lam):
                assert lam == mu
    for lam in universe:
        for mu in universe:
            if not contains(lam, mu):
                continue
            for nu in universe:
                if contains(mu, nu):
                    assert contains(lam, nu)


def _strip_by_column_scan(lam, pi):
    # direct definition: no two skew squares in the same column
    if not contains(lam, pi):
        return False
    seen = set()
    for _, c in skew_cells(lam, pi):
        if c in seen:
            return False
        seen.add(c)
    return True


@pytest.mark.parametrize(
    ("lam", "pi", "expected"),
    [
        ((3, 1), (2, 1), True),
        ((2, 2), (1, 1), False),  # squares (0,1) and (1,1) share a column
        ((3, 2), (3, 2), True),
        ((3, 3), (1,), False),
    ],
)
def test_is_horizontal_strip(lam, pi, expected):
    assert _strip_by_column_scan(lam, pi) is expected


@pytest.mark.parametrize(
    ("lam", "alpha", "gamma", "expected"),
    [
        ((2, 1), 2, 3, (2, 1)),
        ((3, 3), 2, 3, ()),
        ((), 2, 2, (2, 2)),
    ],
)
def test_rotated_complement(lam, alpha, gamma, expected):
    assert rotated_complement(lam, alpha, gamma) == expected


def test_rotated_complement_rejects_oversized():
    with pytest.raises(ValueError):
        rotated_complement((4,), 2, 3)
    with pytest.raises(ValueError):
        rotated_complement((1, 1, 1), 2, 3)


def test_rotated_complement_is_an_involution_up_to_6():
    for alpha in range(7):
        for gamma in range(7):
            for lam in partitions_in_rectangle(alpha, gamma):
                assert rotated_complement(
                    rotated_complement(lam, alpha, gamma), alpha, gamma
                ) == lam


def test_partitions_in_rectangle_count_is_binomial():
    for alpha in range(6):
        for gamma in range(6):
            got = list(partitions_in_rectangle(alpha, gamma))
            assert len(got) == comb(alpha + gamma, alpha)
            assert len(set(got)) == len(got)


def test_horizontal_strips_within_agrees_with_filter():
    for lam in partitions_in_rectangle(3, 4):
        direct = set(horizontal_strips_within(lam))
        filtered = {
            pi for pi in partitions_in_rectangle(3, 4) if _strip_by_column_scan(lam, pi)
        }
        assert direct == filtered


def test_horizontal_strips_within_a_row_limit_are_the_filtered_strips():
    # the same strips in the same order as the unrestricted list, filtered by length
    for lam in partitions_in_rectangle(4, 4):
        every = list(horizontal_strips_within(lam))
        for rows in range(6):
            limited = list(strips_of(strip_ranges(lam, rows)))
            assert limited == [pi for pi in every if len(pi) <= rows], (lam, rows)


def test_strip_range_lengths_multiply_to_the_strip_count():
    # the count the Schur descent charges before it lists
    for lam in partitions_in_rectangle(4, 4):
        for rows in [None, *range(6)]:
            count = prod(map(len, strip_ranges(lam, rows)))
            assert count == len(list(strips_of(strip_ranges(lam, rows)))), (lam, rows)
    assert prod(map(len, strip_ranges((2**31 - 1, 5), 1))) == (2**31 - 1 - 5 + 1) * 1


def test_part_at_reads_zero_beyond_length():
    assert part_at((3, 1), 0) == 3
    assert part_at((3, 1), 5) == 0
