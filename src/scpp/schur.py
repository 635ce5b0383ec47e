"""Semistandard tableaux and Schur polynomials.

Schur polynomials are built by the branching rule (Stanley, EC2 7.10):
s_lam(x_1..x_n) is the sum, over the mu with lam/mu a horizontal strip,
of s_mu(x_1..x_{n-1}) * x_n^|lam/mu|, each s_mu taken from a bounded
cache.  Two independent routes serve as its oracles: the walk over
semistandard tableaux (rows weakly increasing, columns strictly
increasing) in ``enumerate_ssyt`` and a determinant of complete
homogeneous polynomials in ``schur_determinant_oracle``.  The rectangular
principal specialization is available as an exactly cancelled product in
a formal variable q.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from typing import Iterable, Iterator

from scpp.partitions import (
    Partition,
    contains,
    horizontal_strips_within,
    part_at,
    partition,
    rectangle,
    size,
)
from scpp.polynomials import MPoly, one_minus_power, upoly_divexact, upoly_mul

# entries kept by each polynomial cache; a verification pass of the largest
# standard shapes touches a few hundred (shape, variable count) pairs
CACHE_SIZE = 384


@dataclass(frozen=True)
class SemistandardTableau:
    """A semistandard filling of a straight shape with entries in [1, max_entry].

    ``rows[r]`` holds the entries of row r.
    """

    shape: Partition
    max_entry: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        shape = partition(self.shape)
        object.__setattr__(self, "shape", shape)
        if self.max_entry < 0:
            raise ValueError("max_entry must be nonnegative")
        if len(self.rows) != len(shape):
            raise ValueError("wrong number of rows")
        for r, width in enumerate(shape):
            row = self.rows[r]
            if len(row) != width:
                raise ValueError(f"row {r} has wrong length")
            for c, v in enumerate(row):
                if not 1 <= v <= self.max_entry:
                    raise ValueError(f"entry {v} out of range [1, {self.max_entry}]")
                if c and row[c - 1] > v:
                    raise ValueError(f"row {r} is not weakly increasing")
                if r and self.rows[r - 1][c] >= v:
                    raise ValueError(f"column {c} is not strictly increasing")

    def content(self) -> tuple[int, ...]:
        """Multiplicity vector: entry i counts occurrences of the value i+1."""
        counts = [0] * self.max_entry
        for row in self.rows:
            for v in row:
                counts[v - 1] += 1
        return tuple(counts)


def _ssyt_row_fillings(shape: Partition, max_entry: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Yield the row tuples of every SSYT of the given shape, exactly once.

    Rows are generated top to bottom; each row is weakly increasing and
    strictly exceeds the row above it column by column.  An entry leaves
    room for the strictly increasing cells below it in its column, so every
    partial filling extends to a tableau.
    """
    nrows = len(shape)
    heights = [sum(1 for width in shape if width > c) for c in range(part_at(shape, 0))]
    acc: list[tuple[int, ...]] = []

    def build_row(r: int, row: list[int]) -> Iterator[tuple[int, ...]]:
        c = len(row)
        if c == shape[r]:
            yield tuple(row)
            return
        floor = row[-1] if row else 1
        if r and acc[r - 1][c] >= floor:
            floor = acc[r - 1][c] + 1
        for v in range(floor, max_entry - heights[c] + r + 2):
            row.append(v)
            yield from build_row(r, row)
            row.pop()

    def rec(r: int) -> Iterator[tuple[tuple[int, ...], ...]]:
        if r == nrows:
            yield tuple(acc)
            return
        for row in build_row(r, []):
            acc.append(row)
            yield from rec(r + 1)
            acc.pop()

    yield from rec(0)


def enumerate_ssyt(shape: Iterable[int], max_entry: int) -> Iterator[SemistandardTableau]:
    """All semistandard tableaux of the given shape with entries <= max_entry."""
    shape = partition(shape)
    if max_entry < 0:
        raise ValueError("max_entry must be nonnegative")
    for rows in _ssyt_row_fillings(shape, max_entry):
        yield SemistandardTableau(shape, max_entry, rows)


def schur_tableau_sum(lam: Iterable[int], n: int) -> MPoly:
    """Schur polynomial of shape lam in n variables.

    Zero when lam has more than n rows.  Built by the branching rule in
    ``_schur_sum``; the tableau walk (``enumerate_ssyt``) and
    ``schur_determinant_oracle`` are its oracles.  The name is kept from
    when the sum ran over tableaux, since benchmark tracing looks the
    Schur layer up by it.
    """
    if n < 0:
        raise ValueError("variable count must be nonnegative")
    lam = partition(lam)
    if len(lam) > n:
        return MPoly.zero(n)
    return _schur_sum(lam, n)


@lru_cache(maxsize=CACHE_SIZE)
def _schur_sum(lam: Partition, n: int) -> MPoly:
    # the branching rule; its coefficients are positive, so no term cancels
    if len(lam) > n:
        return MPoly.zero(n)
    if n == 0:
        return MPoly.const(0, 1)
    acc: dict[tuple[int, ...], int] = {}
    get = acc.get
    lam_size = size(lam)
    for mu in horizontal_strips_within(lam):
        strip = (lam_size - size(mu),)
        for e, c in _schur_sum(mu, n - 1).terms.items():
            e += strip
            acc[e] = get(e, 0) + c
    return MPoly._raw(n, acc)


@lru_cache(maxsize=CACHE_SIZE)
def complete_homogeneous(k: int, n: int) -> MPoly:
    """Sum of all degree-k monomials in n variables; h_0 = 1."""
    if k < 0:
        return MPoly.zero(n)
    if k == 0:
        return MPoly.const(n, 1)
    acc: dict[tuple[int, ...], int] = {}
    for combo in combinations_with_replacement(range(n), k):
        e = [0] * n
        for i in combo:
            e[i] += 1
        acc[tuple(e)] = 1
    return MPoly._raw(n, acc)


def _poly_det(matrix: list[list[MPoly]], n: int) -> MPoly:
    dim = len(matrix)
    if dim == 0:
        return MPoly.const(n, 1)
    if dim == 1:
        return matrix[0][0]
    total = MPoly.zero(n)
    for j in range(dim):
        entry = matrix[0][j]
        if entry.is_zero():
            continue
        minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
        term = entry * _poly_det(minor, n)
        total = total + (term if j % 2 == 0 else -term)
    return total


def schur_determinant_oracle(lam: Iterable[int], n: int) -> MPoly:
    """Schur polynomial via the determinant of complete homogeneous polynomials.

    Independent of the branching rule and of the tableau walk; used to
    cross-check both.
    """
    if n < 0:
        raise ValueError("variable count must be nonnegative")
    lam = partition(lam)
    rows = len(lam)
    if rows == 0:
        return MPoly.const(n, 1)
    matrix = [
        [complete_homogeneous(lam[i] - i + j, n) for j in range(rows)]
        for i in range(rows)
    ]
    return _poly_det(matrix, n)


def lr_coefficient(mu: Iterable[int], nu: Iterable[int], rho: Iterable[int]) -> int:
    """Multiplicity of the shape rho in the product of Schur functions mu and nu.

    Counted by semistandard fillings of rho/mu with content nu whose reading
    word (rows right to left, top to bottom) always has at least as many
    occurrences of i as of i+1 at every prefix.
    """
    mu, nu, rho = partition(mu), partition(nu), partition(rho)
    if not contains(rho, mu):
        return 0
    if size(rho) != size(mu) + size(nu):
        return 0
    nvals = len(nu)
    if nvals == 0:
        return 1 if rho == mu else 0

    # cells in reading order: each row right to left
    cells: list[tuple[int, int]] = []
    for r, width in enumerate(rho):
        lo = part_at(mu, r)
        for c in range(width - 1, lo - 1, -1):
            cells.append((r, c))

    grid: dict[tuple[int, int], int] = {}
    quota = list(nu)
    counts = [0] * (nvals + 1)
    total = 0

    def fill(idx: int) -> None:
        nonlocal total
        if idx == len(cells):
            total += 1
            return
        r, c = cells[idx]
        hi = nvals
        right = grid.get((r, c + 1))
        if right is not None:
            hi = min(hi, right)
        lo_val = 1
        above = grid.get((r - 1, c))
        if above is not None:
            lo_val = above + 1
        for v in range(lo_val, hi + 1):
            if quota[v - 1] == 0:
                continue
            if v > 1 and counts[v] + 1 > counts[v - 1]:
                continue  # reading-word condition would fail
            grid[(r, c)] = v
            quota[v - 1] -= 1
            counts[v] += 1
            fill(idx + 1)
            counts[v] -= 1
            quota[v - 1] += 1
            del grid[(r, c)]

    fill(0)
    return total


def hook_content_rectangular(gamma: int, alpha: int, n: int) -> list[int]:
    """Coefficients in q of the rectangular Schur polynomial at x_i = q^i.

    Computed as q^(gamma*alpha*(alpha+1)/2) times an exactly cancelled
    product of (1 - q^e) factors.  Returns the zero polynomial ([]) when
    n < alpha, where the Schur polynomial itself vanishes.
    """
    if gamma < 0 or alpha < 0 or n < 0:
        raise ValueError("parameters must be nonnegative")
    if gamma == 0 or alpha == 0:
        return [1]
    if n < alpha:
        return []
    num_exps: list[int] = []
    den_exps: list[int] = []
    for i in range(1, alpha + 1):
        for k in range(gamma):
            num_exps.append(i + n - alpha + k)
            den_exps.append(i + k)
    # cancel identical factors before expanding
    for e in list(den_exps):
        if e in num_exps:
            num_exps.remove(e)
            den_exps.remove(e)
    num = [1]
    for e in num_exps:
        num = upoly_mul(num, one_minus_power(e))
    for e in den_exps:
        num = upoly_divexact(num, one_minus_power(e))
    shift = gamma * alpha * (alpha + 1) // 2
    return [0] * shift + num


def alternating_point(m: int) -> tuple[int, ...]:
    """The evaluation point (1, -1, 1, ..., (-1)^(m-1))."""
    return tuple(1 if i % 2 == 0 else -1 for i in range(m))


def specialize_alternating(gamma: int, alpha: int, m: int) -> int:
    """Rectangular Schur polynomial evaluated at alternating signs.

    Primary route: the branching-rule polynomial of ``schur_tableau_sum``
    evaluated at (1, -1, ..., (-1)^(m-1)).
    """
    if gamma < 0 or alpha < 0 or m < 0:
        raise ValueError("parameters must be nonnegative")
    value = schur_tableau_sum(rectangle(alpha, gamma), m).evaluate(alternating_point(m))
    assert isinstance(value, int)
    return value


def alternating_limit_value(gamma: int, alpha: int, m: int) -> int:
    """Oracle for ``specialize_alternating`` via the product formula at q -> -1.

    Factors 1 - q^e with odd e evaluate to 2 at q = -1; even-exponent
    factors vanish and are paired between numerator and denominator, each
    pair contributing the ratio of exponents.  A surplus of vanishing
    numerator factors makes the whole product zero.
    """
    if gamma < 0 or alpha < 0 or m < 0:
        raise ValueError("parameters must be nonnegative")
    if gamma == 0 or alpha == 0:
        return 1
    if m < alpha:
        return 0
    num_exps = [i + m - alpha + k for i in range(1, alpha + 1) for k in range(gamma)]
    den_exps = [i + k for i in range(1, alpha + 1) for k in range(gamma)]
    num_even = [e for e in num_exps if e % 2 == 0]
    den_even = [e for e in den_exps if e % 2 == 0]
    if len(num_even) > len(den_even):
        return 0
    if len(num_even) < len(den_even):
        raise ArithmeticError("specialization diverges; not a polynomial")
    frac = Fraction(1)
    for e in num_even:
        frac *= e
    for e in den_even:
        frac /= e
    if frac.denominator != 1:
        raise ArithmeticError("expected an integer limit")
    ratio = frac.numerator
    # sign: flip all variables to reach the alternating-start point, plus the
    # monomial prefactor of the product formula evaluated at q = -1
    exponent = gamma * alpha + gamma * alpha * (alpha + 1) // 2
    return -ratio if exponent % 2 else ratio
