"""Semistandard tableaux and Schur polynomials.

Schur polynomials are computed primarily as generating functions of
semistandard tableaux (rows weakly increasing, columns strictly
increasing).  A determinant of complete homogeneous symmetric polynomials
serves as an independent oracle, and the rectangular principal
specialization is available as an exactly cancelled product in a formal
variable q.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from typing import Iterable, Iterator

from scpp.budget import WorkBudget
from scpp.partitions import Partition, contains, part_at, partition, rectangle, size
from scpp.polynomials import MPoly, one_minus_power, upoly_divexact, upoly_mul


@dataclass(frozen=True)
class SemistandardTableau:
    """A (possibly skew) semistandard filling with entries in [1, max_entry].

    ``rows[r]`` holds the entries of row r for columns inner_r .. outer_r - 1.
    """

    outer: Partition
    inner: Partition
    max_entry: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        outer = partition(self.outer)
        inner = partition(self.inner)
        object.__setattr__(self, "outer", outer)
        object.__setattr__(self, "inner", inner)
        if self.max_entry < 0:
            raise ValueError("max_entry must be nonnegative")
        if not contains(outer, inner):
            raise ValueError(f"inner shape {inner} not contained in outer {outer}")
        if len(self.rows) != len(outer):
            raise ValueError("wrong number of rows")
        for r, width in enumerate(outer):
            lo = part_at(inner, r)
            row = self.rows[r]
            if len(row) != width - lo:
                raise ValueError(f"row {r} has wrong length")
            for t, v in enumerate(row):
                if not 1 <= v <= self.max_entry:
                    raise ValueError(f"entry {v} out of range [1, {self.max_entry}]")
                if t and row[t - 1] > v:
                    raise ValueError(f"row {r} is not weakly increasing")
                col = lo + t
                if r and part_at(inner, r - 1) <= col < part_at(outer, r - 1):
                    above = self.rows[r - 1][col - part_at(inner, r - 1)]
                    if above >= v:
                        raise ValueError(f"column {col} is not strictly increasing")

    def content(self) -> tuple[int, ...]:
        """Multiplicity vector: entry i counts occurrences of the value i+1."""
        counts = [0] * self.max_entry
        for row in self.rows:
            for v in row:
                counts[v - 1] += 1
        return tuple(counts)

    def entry(self, r: int, c: int) -> int:
        """Entry at 0-indexed row r, absolute column c."""
        return self.rows[r][c - part_at(self.inner, r)]


def _ssyt_row_fillings(
    outer: Partition,
    inner: Partition,
    max_entry: int,
    budget: WorkBudget | None = None,
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Yield the row tuples of every SSYT of the given skew shape, exactly once.

    Rows are generated top to bottom; each row is a weakly increasing
    sequence compatible with strict increase below the previous row.
    """
    nrows = len(outer)
    inn = [part_at(inner, r) for r in range(nrows)]
    acc: list[tuple[int, ...]] = []

    def build_row(r: int, c: int, row: list[int]) -> Iterator[tuple[int, ...]]:
        if c == outer[r]:
            yield tuple(row)
            return
        floor = 1
        if row:
            floor = max(floor, row[-1])
        if r > 0 and inn[r - 1] <= c < outer[r - 1]:
            floor = max(floor, acc[r - 1][c - inn[r - 1]] + 1)
        for v in range(floor, max_entry + 1):
            row.append(v)
            yield from build_row(r, c + 1, row)
            row.pop()

    def rec(r: int) -> Iterator[tuple[tuple[int, ...], ...]]:
        if r == nrows:
            yield tuple(acc)
            return
        for row in build_row(r, inn[r], []):
            if budget is not None:
                budget.charge()
            acc.append(row)
            yield from rec(r + 1)
            acc.pop()

    yield from rec(0)


def enumerate_ssyt(
    outer: Iterable[int],
    inner: Iterable[int],
    max_entry: int,
    budget: WorkBudget | None = None,
) -> Iterator[SemistandardTableau]:
    """All semistandard tableaux of shape outer/inner with entries <= max_entry."""
    outer = partition(outer)
    inner = partition(inner)
    if max_entry < 0:
        raise ValueError("max_entry must be nonnegative")
    if not contains(outer, inner):
        raise ValueError(f"inner shape {inner} not contained in outer {outer}")
    for rows in _ssyt_row_fillings(outer, inner, max_entry, budget):
        yield SemistandardTableau(outer, inner, max_entry, rows)


def _content_sum(outer: Partition, inner: Partition, n: int) -> MPoly:
    acc: dict[tuple[int, ...], int] = {}
    for rows in _ssyt_row_fillings(outer, inner, n):
        counts = [0] * n
        for row in rows:
            for v in row:
                counts[v - 1] += 1
        e = tuple(counts)
        acc[e] = acc.get(e, 0) + 1
    return MPoly._raw(n, acc)


@lru_cache(maxsize=None)
def _schur_sum_cached(lam: Partition, n: int) -> MPoly:
    return _content_sum(lam, (), n)


def schur_tableau_sum(lam: Iterable[int], n: int) -> MPoly:
    """Schur polynomial of shape lam in n variables, summed over tableaux.

    Zero when lam has more than n rows.
    """
    if n < 0:
        raise ValueError("variable count must be nonnegative")
    lam = partition(lam)
    if len(lam) > n:
        return MPoly.zero(n)
    return _schur_sum_cached(lam, n)


@lru_cache(maxsize=None)
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

    Independent of the tableau enumeration; used to cross-check it.
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

    Primary route: direct evaluation of the tableau sum at
    (1, -1, ..., (-1)^(m-1)).
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
