"""Closed-form product counts for box-bounded plane partitions.

All arithmetic is exact: the box product is accumulated one row factor
at a time, each partial product an integer, and a factor that leaves a
remainder raises instead of rounding.
"""

from __future__ import annotations

from math import gcd


class ParityError(ValueError):
    """Side-length parities outside the cases a formula covers."""


def rising_factorial(a: int, n: int) -> int:
    """a (a+1) ... (a+n-1); the empty product for n = 0."""
    if n < 0:
        raise ValueError("length must be nonnegative")
    out = 1
    for k in range(n):
        out *= a + k
    return out


def check_box_sides(a: int, b: int, c: int) -> None:
    """The check shared by every count over an a x b x c box."""
    if a < 0 or b < 0 or c < 0:
        raise ValueError("box sides must be nonnegative")


def box_count(a: int, b: int, c: int) -> int:
    """Number of plane partitions inside an a x b x c box.

    Symmetric in the three sides.
    """
    check_box_sides(a, b, c)
    value = 1
    for i in range(1, a + 1):
        # after this factor, value is the box count of an i x b x c box
        up, down = rising_factorial(c + i, b), rising_factorial(i, b)
        common = gcd(up, down)
        value, rest = divmod(value * (up // common), down // common)
        if rest:
            raise ArithmeticError(f"box product for {(a, b, c)} is not an integer")
    return value


def sc_count(a: int, b: int, c: int) -> int:
    """Number of self-complementary plane partitions in an a x b x c box.

    The count is symmetric in the sides, so any parity pattern is first
    relabeled onto one of the three product cases; an all-odd box holds an
    odd number of cubes and admits none.
    """
    check_box_sides(a, b, c)
    odds = [x for x in (a, b, c) if x % 2]
    evens = [x for x in (a, b, c) if x % 2 == 0]
    if len(odds) == 0:
        return box_count(a // 2, b // 2, c // 2) ** 2
    if len(odds) == 1:
        o, (e1, e2) = odds[0], evens
        return box_count((o + 1) // 2, e1 // 2, e2 // 2) * box_count(
            (o - 1) // 2, e1 // 2, e2 // 2
        )
    if len(odds) == 2:
        e, (o1, o2) = evens[0], odds
        return box_count(e // 2, (o1 + 1) // 2, (o2 - 1) // 2) * box_count(
            e // 2, (o1 - 1) // 2, (o2 + 1) // 2
        )
    return 0


def check_line_lengths(a: int, b: int, c1: int, c2: int) -> None:
    """Nonnegative parameters with c1 >= c2, both even: the checks shared by
    every middle-line count and Pfaffian."""
    if a < 0 or b < 0 or c1 < 0 or c2 < 0:
        raise ValueError("parameters must be nonnegative")
    if c1 % 2 or c2 % 2:
        raise ParityError("c1 and c2 must be even")
    if c1 < c2:
        raise ValueError("c1 must be at least c2")


def check_middle_line_params(a: int, b: int, c1: int, c2: int) -> None:
    """The line lengths, and an (a, b) parity that the products cover."""
    check_line_lengths(a, b, c1, c2)
    if a % 2 == 0 and b % 2 == 1:
        raise ParityError("a even with b odd is not a covered case")


def middle_line_product(a: int, b: int, c1: int, c2: int) -> int:
    """Closed-form count of self-complementary plane partitions in an
    a x b x (c1+c2)/2 box whose array carries the fixed middle line of
    length (c1-c2)/2.

    Cases by (a, b) parity: even/even, odd/even, odd/odd.  The odd/even
    pairing of c1 and c2 with the two box factors is the one validated by
    exhaustive enumeration (see tests); the two printed variants of that
    case disagree, and only this one matches the objects being counted.
    """
    check_middle_line_params(a, b, c1, c2)
    if a % 2 == 0 and b % 2 == 0:
        return box_count(a // 2, b // 2, c1 // 2) * box_count(a // 2, b // 2, c2 // 2)
    if a % 2 == 1 and b % 2 == 0:
        return box_count((a - 1) // 2, b // 2, c1 // 2) * box_count(
            (a + 1) // 2, b // 2, c2 // 2
        )
    return box_count((a - 1) // 2, (b + 1) // 2, c1 // 2) * box_count(
        (a + 1) // 2, (b - 1) // 2, c2 // 2
    )


def signed_enumeration_product(a: int, b: int, c: int) -> int:
    """Magnitude of the signed count of self-complementary plane partitions
    in an a x b x c box, for the two parity cases with an odd side."""
    check_box_sides(a, b, c)
    if a % 2 == 0 and b % 2 == 1 and c % 2 == 1:
        return sc_count(a // 2, (b + 1) // 2, (c - 1) // 2) * sc_count(
            a // 2, (b - 1) // 2, (c + 1) // 2
        )
    if a % 2 == 1 and b % 2 == 0 and c % 2 == 0:
        return sc_count((a + 1) // 2, b // 2, c // 2) * sc_count(
            (a - 1) // 2, b // 2, c // 2
        )
    raise ParityError(
        "signed product requires a even with b, c odd, or a odd with b, c even"
    )


def signed_enumeration_all_even(a: int, b: int, c: int) -> int:
    """Magnitude of the signed count when all three sides are even."""
    if a % 2 or b % 2 or c % 2:
        raise ParityError("all sides must be even")
    return box_count(a // 2, b // 2, c // 2)
