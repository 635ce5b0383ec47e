from itertools import permutations

import pytest

from scpp.plane_partitions import count_scpp
from scpp.products import (
    ParityError,
    box_count,
    middle_line_product,
    rising_factorial,
    sc_count,
    signed_enumeration_all_even,
    signed_enumeration_product,
)


@pytest.mark.parametrize(
    ("a", "n", "expected"), [(3, 2, 12), (7, 0, 1), (1, 4, 24), (2, 3, 24)]
)
def test_rising_factorial(a, n, expected):
    assert rising_factorial(a, n) == expected


def test_rising_factorial_rejects_negative_length():
    with pytest.raises(ValueError):
        rising_factorial(2, -1)


@pytest.mark.parametrize(
    ("a", "b", "c", "expected"),
    [
        (1, 1, 1, 2),
        (2, 2, 2, 20),
        (3, 3, 3, 980),
        (4, 4, 4, 232848),
        (4, 0, 9, 1),
        (0, 0, 0, 1),
    ],
)
def test_box_count(a, b, c, expected):
    assert box_count(a, b, c) == expected


def test_box_count_is_symmetric_up_to_8():
    for a in range(9):
        for b in range(9):
            for c in range(9):
                reference = box_count(a, b, c)
                for perm in permutations((a, b, c)):
                    assert box_count(*perm) == reference


@pytest.mark.parametrize(
    ("a", "b", "c", "expected"),
    [
        (2, 2, 2, 4),
        (2, 1, 1, 1),
        (1, 1, 1, 0),
        (3, 3, 3, 0),
        (4, 4, 4, 400),
        (3, 2, 3, 9),
        (0, 7, 3, 1),
    ],
)
def test_sc_count(a, b, c, expected):
    assert sc_count(a, b, c) == expected


def test_sc_count_is_symmetric():
    for a in range(7):
        for b in range(7):
            for c in range(7):
                reference = sc_count(a, b, c)
                for perm in permutations((a, b, c)):
                    assert sc_count(*perm) == reference


@pytest.mark.parametrize(
    ("a", "b", "c1", "c2", "expected"),
    [
        (2, 2, 2, 2, 4),
        (2, 2, 4, 0, 3),  # B(1,1,2) * B(1,1,0)
        (2, 2, 0, 0, 1),
        (1, 2, 2, 2, 2),  # B(0,1,1) * B(1,1,1)
        (3, 2, 6, 2, 12),  # B(1,1,3) * B(2,1,1)
        (3, 3, 4, 2, 18),  # B(1,2,2) * B(2,1,1)
        (5, 3, 4, 2, 80),  # B(2,2,2) * B(3,1,1)
    ],
)
def test_middle_line_product(a, b, c1, c2, expected):
    assert middle_line_product(a, b, c1, c2) == expected


def test_middle_line_product_rejects_bad_parities():
    with pytest.raises(ParityError):
        middle_line_product(2, 3, 4, 2)  # a even, b odd
    with pytest.raises(ParityError):
        middle_line_product(2, 2, 3, 1)  # odd halves
    with pytest.raises(ValueError):
        middle_line_product(2, 2, 2, 4)  # c1 < c2


def test_middle_line_degenerate_equals_sc_count():
    # equal widths c1 = c2 = s give the unconstrained box with third side s
    for a in range(7):
        for b in range(7):
            if a % 2 == 0 and b % 2 == 1:
                continue
            for s in range(0, 13, 2):
                assert middle_line_product(a, b, s, s) == sc_count(a, b, s)


@pytest.mark.parametrize(
    ("a", "b", "c", "expected"),
    [
        (2, 1, 1, 1),  # SC(1,1,0) * SC(1,0,1)
        (1, 2, 2, 0),  # SC(1,1,1) * SC(0,1,1) = 0
        (2, 3, 3, 1),  # SC(1,2,1) * SC(1,1,2)
        (3, 2, 2, 0),  # SC(2,1,1) * SC(1,1,1) = 1 * 0
        (3, 4, 2, 2),  # SC(2,2,1) * SC(1,2,1)
    ],
)
def test_signed_enumeration_product(a, b, c, expected):
    assert signed_enumeration_product(a, b, c) == expected


def test_signed_enumeration_product_rejects_other_parities():
    with pytest.raises(ParityError):
        signed_enumeration_product(2, 2, 2)
    with pytest.raises(ParityError):
        signed_enumeration_product(1, 1, 2)
    with pytest.raises(ParityError):
        signed_enumeration_product(1, 2, 3)


def test_signed_all_even():
    assert signed_enumeration_all_even(2, 2, 2) == 2
    assert signed_enumeration_all_even(4, 2, 2) == 3
    with pytest.raises(ParityError):
        signed_enumeration_all_even(2, 2, 3)


def test_sc_count_matches_enumeration_to_4():
    for a in range(5):
        for b in range(5):
            for c in range(5):
                assert sc_count(a, b, c) == count_scpp(a, b, c)
