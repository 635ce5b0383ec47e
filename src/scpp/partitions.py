"""Integer partitions as canonical tuples.

A partition is a tuple of weakly decreasing positive integers with no
trailing zeros.  Every public operation accepts raw iterables (possibly
with trailing zeros) and normalizes first, so plain tuples can be passed
around freely and used as dict keys.
"""

from __future__ import annotations

from itertools import product as _cartesian
from typing import Iterable, Iterator

Partition = tuple[int, ...]


def partition(parts: Iterable[int]) -> Partition:
    """Canonical form of ``parts``: validated and stripped of trailing zeros."""
    seq = tuple(int(p) for p in parts)
    for p in seq:
        if p < 0:
            raise ValueError(f"negative part {p} in {seq}")
    for prev, nxt in zip(seq, seq[1:]):
        if prev < nxt:
            raise ValueError(f"parts must be weakly decreasing, got {seq}")
    while seq and seq[-1] == 0:
        seq = seq[:-1]
    return seq


def part_at(lam: Partition, i: int) -> int:
    """Part ``i`` (0-indexed); parts beyond the length read as 0."""
    return lam[i] if 0 <= i < len(lam) else 0


def size(lam: Iterable[int]) -> int:
    return sum(lam)


def rectangle(alpha: int, gamma: int) -> Partition:
    """The partition with ``alpha`` parts equal to ``gamma``."""
    if alpha < 0 or gamma < 0:
        raise ValueError("rectangle dimensions must be nonnegative")
    return (gamma,) * alpha if gamma > 0 else ()


def contains(lam: Iterable[int], mu: Iterable[int]) -> bool:
    """True iff mu fits inside lam componentwise."""
    lam, mu = partition(lam), partition(mu)
    if len(mu) > len(lam):
        return False
    return all(m <= l for l, m in zip(lam, mu))


def rotated_complement(lam: Iterable[int], alpha: int, gamma: int) -> Partition:
    """Complement of lam inside the alpha x gamma rectangle, rotated 180 degrees.

    Involutive: applying it twice with the same rectangle returns lam.
    """
    lam = partition(lam)
    if not contains(rectangle(alpha, gamma), lam):
        raise ValueError(f"{lam} does not fit in a {alpha}x{gamma} rectangle")
    return partition(gamma - part_at(lam, alpha - 1 - i) for i in range(alpha))


def partitions_in_rectangle(alpha: int, gamma: int) -> Iterator[Partition]:
    """All partitions with at most ``alpha`` rows and parts at most ``gamma``."""
    if alpha < 0 or gamma < 0:
        raise ValueError("rectangle dimensions must be nonnegative")
    if alpha == 0:
        yield ()
        return
    for first in range(gamma, 0, -1):
        for rest in partitions_in_rectangle(alpha - 1, first):
            yield (first,) + rest
    yield ()


def strip_ranges(lam: Partition, rows: int | None = None) -> list[range]:
    """Row ranges of the strips of lam: [lam_{i+1}, lam_i], or [lam_{i+1}, 0] from row ``rows``."""
    return [
        range(part_at(lam, i + 1), (0 if rows is not None and i >= rows else lam[i]) + 1)
        for i in range(len(lam))
    ]


def horizontal_strips_within(lam: Iterable[int]) -> Iterator[Partition]:
    """All pi inside lam with lam/pi a horizontal strip."""
    return strips_of(strip_ranges(partition(lam)))


def strips_of(ranges: list[range]) -> Iterator[Partition]:
    """The partitions in the product of ``strip_ranges``, a last zero cut."""
    for choice in _cartesian(*ranges) if all(ranges) else ():  # product() copies ranges first
        yield choice[:-1] if choice and not choice[-1] else choice
