"""Named test oracles: independent routes that only the tests call.

Each one is compared in the tests against the production route in ``scpp``
that it checks: the tableau walk and the Jacobi-Trudi determinant against
the branching rule, the gluing sum built shape by shape against its one
descent, the strips listed level by level against the descent's charges,
the limit at q -> -1 against ``specialize_alternating``,
the q-substitution against ``hook_content_rectangular``, the middle-line
condition on one array against ``count_scpp_middle_line``, the move graph
built from whole validated neighbour arrays against ``check_move_graph``,
the validated arrays of ``enumerate_scpp`` against the move graph's flat
walk, the closing condition on one row (``_closing_row``) against the
closing tables, ``flipped_pair_count`` of the half-full array against the
arithmetic reference parity, the tuple-keyed polynomial against the
packed ``MPoly``, against the fold of ``substitute_first`` and against
the values of the evaluation sweep's walk, the binomial inner
products of ``core_rows_oracle`` against the packed core build of
``scpp.pfaffian``, and so on.

``pack`` and ``unpack_key`` convert between exponent tuples and packed
``MPoly`` keys.  They are written from the key layout (x_1 in the most
significant 32-bit field, x_n in the least), not from the production
decoder, so tests that state facts in exponent tuples go through them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from operator import add, mul
from typing import Callable, Iterable, Iterator, Sequence

from scpp.budget import WorkBudget
from scpp.partitions import (
    Partition,
    contains,
    horizontal_strips_within,
    part_at,
    partition,
    rectangle,
    size,
)
from scpp.pfaffian import binomial_safe
from scpp.plane_partitions import MoveGraphReport, Row, _decreasing_rows
from scpp.polynomials import FIELD_BITS, MPoly, Value
from scpp.products import ParityError, check_box_sides
from scpp.schur import schur_tableau_sum


def skew_cells(lam: Iterable[int], mu: Iterable[int]) -> Iterator[tuple[int, int]]:
    """(row, col) pairs of the squares of lam/mu, 0-indexed, row-major."""
    lam, mu = partition(lam), partition(mu)
    if not contains(lam, mu):
        raise ValueError(f"{mu} is not contained in {lam}")
    for r, width in enumerate(lam):
        for c in range(part_at(mu, r), width):
            yield (r, c)


# one exponent field of a packed key holds 0 <= e < FIELD
FIELD = 2**32


def pack(exps: Sequence[int]) -> int:
    """The packed key of an exponent tuple: the digits of exps in base
    2^32, x_1 the most significant."""
    key = 0
    for e in exps:
        if not 0 <= e < FIELD:
            raise ValueError(f"exponent {e} does not fit a field")
        key = key * FIELD + e
    return key


def unpack_key(key: int, nvars: int) -> tuple[int, ...]:
    """The exponent tuple of a packed key in nvars variables."""
    digits = []
    for _ in range(nvars):
        key, e = divmod(key, FIELD)
        digits.append(e)
    if key:
        raise ValueError("key has more fields than variables")
    return tuple(reversed(digits))


def packed(nvars: int, terms: dict[tuple[int, ...], int]) -> MPoly:
    """The ``MPoly`` of a tuple-keyed term map without zero coefficients."""
    return MPoly(nvars, {pack(e): c for e, c in terms.items()})


def tuple_terms(poly: MPoly) -> dict[tuple[int, ...], int]:
    """The term map of poly keyed by exponent tuples."""
    return {unpack_key(k, poly.nvars): c for k, c in poly.terms.items()}


class TupleMPoly:
    """Oracle for the packed ``MPoly``: the same operations on a term map
    keyed by exponent tuples, with exponent-wise sums for products, each
    monomial's powers for evaluation and the tuples' own order for the
    digest."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict[tuple[int, ...], int]):
        self.nvars = nvars
        self.terms = terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TupleMPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    __hash__ = None

    def __mul__(self, other: "TupleMPoly") -> "TupleMPoly":
        if self.nvars != other.nvars:
            raise ValueError(f"variable count mismatch: {self.nvars} vs {other.nvars}")
        acc: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                acc[e] = acc.get(e, 0) + c1 * c2
        return TupleMPoly(self.nvars, {e: c for e, c in acc.items() if c})

    def evaluate(self, point: Sequence[int | Fraction]) -> int | Fraction:
        if len(point) != self.nvars:
            raise ValueError(
                f"point has {len(point)} coordinates, polynomial has {self.nvars} variables"
            )
        total: int | Fraction = 0
        for exps, coeff in self.terms.items():
            value: int | Fraction = coeff
            for base, e in zip(point, exps):
                if e:
                    value *= base**e
            total += value
        return total

    def lift(self, nvars: int) -> "TupleMPoly":
        if nvars < self.nvars:
            raise ValueError("cannot lift to fewer variables")
        pad = (0,) * (nvars - self.nvars)
        return TupleMPoly(nvars, {e + pad: c for e, c in self.terms.items()})

    def restrict_last_zero(self) -> "TupleMPoly":
        if self.nvars == 0:
            raise ValueError("no variable to restrict")
        return TupleMPoly(
            self.nvars - 1,
            {e[:-1]: c for e, c in self.terms.items() if e[-1] == 0},
        )

    def digest(self) -> str:
        parts = [str(self.nvars)]
        for exps in sorted(self.terms):
            parts.append(",".join(map(str, exps)) + ":" + str(self.terms[exps]))
        blob = ";".join(parts).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def substitute_first(terms: dict[int, Value], nvars: int, value: Value) -> dict[int, Value]:
    """The term map left when x_1 := value in a term map in x_1..x_nvars.

    The result is keyed by the packed monomials in x_2..x_nvars; its
    coefficients are exact (``Fraction`` when value is) and may be zero.
    Each power of value is computed once, and terms whose power is zero
    are skipped.
    """
    shift = FIELD_BITS * (nvars - 1)
    low = (1 << shift) - 1
    powers: dict[int, Value] = {}
    out: dict[int, Value] = {}
    get = out.get
    for key, coeff in terms.items():
        e = key >> shift
        power = powers.get(e)
        if power is None:
            power = powers[e] = value**e
        if power:
            rest = key & low
            out[rest] = get(rest, 0) + coeff * power
    return out


def substituted(poly: MPoly, point: Sequence[int | Fraction]) -> int | Fraction:
    """poly at point, by folding ``substitute_first`` over the coordinates,
    x_1 first.  The tests compare it with ``TupleMPoly.evaluate``."""
    if len(point) != poly.nvars:
        raise ValueError(
            f"point has {len(point)} coordinates, polynomial has {poly.nvars} variables"
        )
    terms: dict[int, int | Fraction] = poly.terms
    for nvars, value in zip(range(poly.nvars, 0, -1), point):
        terms = substitute_first(terms, nvars, value)
    return terms.get(0, 0)


def to_q_coeffs(poly: MPoly, powers: Sequence[int]) -> list[int]:
    """Coefficients of the univariate polynomial obtained by x_i := q^powers[i]."""
    if len(powers) != poly.nvars:
        raise ValueError("powers vector has wrong length")
    acc: dict[int, int] = {}
    for exps, coeff in tuple_terms(poly).items():
        d = sum(p * e for p, e in zip(powers, exps))
        acc[d] = acc.get(d, 0) + coeff
    acc = {d: c for d, c in acc.items() if c}
    out = [0] * (max(acc, default=-1) + 1)
    for d, c in acc.items():
        out[d] = c
    return out


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


def complete_homogeneous(k: int, n: int) -> MPoly:
    """Sum of all degree-k monomials in n variables; h_0 = 1."""
    if k < 0:
        return constant(n, 0)
    if k == 0:
        return constant(n, 1)
    acc: dict[tuple[int, ...], int] = {}
    for combo in combinations_with_replacement(range(n), k):
        e = [0] * n
        for i in combo:
            e[i] += 1
        acc[tuple(e)] = 1
    return packed(n, acc)


def glue_sum_by_shapes(terms: Iterable[tuple[Partition, int]], n: int) -> MPoly:
    """The gluing sum of ``scpp.verify`` shape by shape: the sum of
    ``schur_tableau_sum(shape, n)`` times x_{n+1}^strip over the terms,
    each term added on its own."""
    acc: dict[int, int] = {}
    for shape, strip in terms:
        for key, coeff in schur_tableau_sum(shape, n).terms.items():
            key = (key << FIELD_BITS) + strip  # x_{n+1} is the new lowest field
            acc[key] = acc.get(key, 0) + coeff
    return MPoly(n + 1, acc)


def descent_strip_count(lam: Iterable[int], n: int) -> int:
    """The strips the Schur descent of lam in n variables lists: level m
    lists, for each distinct shape mu that reaches it, the strips of mu with
    at most m - 1 rows, and passes those on to level m - 1."""
    level, listed = {partition(lam)}, 0
    for m in range(n, 0, -1):
        strips = [[nu for nu in horizontal_strips_within(mu) if len(nu) <= m - 1] for mu in level]
        listed += sum(map(len, strips))
        level = {nu for found in strips for nu in found}
    return listed


def constant(nvars: int, value: int) -> MPoly:
    """The constant polynomial ``value`` in nvars variables."""
    return MPoly(nvars, {0: value} if value else {})


def poly_add(p: MPoly, q: MPoly) -> MPoly:
    """The sum of two polynomials in the same variables; keys of the same
    monomial are equal, so the term maps add key by key."""
    if p.nvars != q.nvars:
        raise ValueError(f"variable count mismatch: {p.nvars} vs {q.nvars}")
    acc = dict(p.terms)
    for e, c in q.terms.items():
        s = acc.get(e, 0) + c
        if s:
            acc[e] = s
        else:
            acc.pop(e, None)
    return MPoly(p.nvars, acc)


def _poly_det(matrix: list[list[MPoly]], n: int) -> MPoly:
    dim = len(matrix)
    if dim == 0:
        return constant(n, 1)
    if dim == 1:
        return matrix[0][0]
    total = constant(n, 0)
    minus_one = constant(n, -1)
    for j in range(dim):
        entry = matrix[0][j]
        if not entry.terms:
            continue
        minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
        term = entry * _poly_det(minor, n)
        total = poly_add(total, term if j % 2 == 0 else term * minus_one)
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
        return constant(n, 1)
    matrix = [
        [complete_homogeneous(lam[i] - i + j, n) for j in range(rows)]
        for i in range(rows)
    ]
    return _poly_det(matrix, n)


def core_rows_oracle(
    a: int, b: int, kmax: int, top_row: int, top_col: int
) -> list[tuple[int, ...]]:
    """The a x a core block P - P^T of a bordered binomial matrix, where
    P[i][j] sums over k = 1..kmax the products C(top_row, b+i-k) *
    C(top_col, j+k-a-1) (i, j from 1), as a^2 inner products of binomial
    lists."""
    ks = range(1, kmax + 1)
    rows = [[binomial_safe(top_row, b + i - k) for k in ks] for i in range(1, a + 1)]
    cols = [[binomial_safe(top_col, j + k - a - 1) for k in ks] for j in range(1, a + 1)]
    p = [[sum(map(mul, r, c)) for c in cols] for r in rows]
    return [tuple(p[i][j] - p[j][i] for j in range(a)) for i in range(a)]


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


# ---------------------------------------------------------------------------
# plane partitions as validated objects

Grid = tuple[Row, ...]


@dataclass(frozen=True)
class PlanePartition:
    """Array form of a plane partition in a rows x height_bound x cols box."""

    rows: int
    cols: int
    height_bound: int
    entries: Grid

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0 or self.height_bound < 0:
            raise ValueError("box dimensions must be nonnegative")
        entries = tuple(tuple(int(v) for v in row) for row in self.entries)
        object.__setattr__(self, "entries", entries)
        if len(entries) != self.rows:
            raise ValueError("wrong number of rows")
        if not _is_valid_grid(entries, self.rows, self.cols, self.height_bound):
            raise ValueError(f"not a valid plane partition array: {entries}")


def _is_valid_grid(grid: Grid, a: int, c: int, b: int) -> bool:
    if len(grid) != a:
        return False
    for i, row in enumerate(grid):
        if len(row) != c:
            return False
        for j, v in enumerate(row):
            if not 0 <= v <= b:
                return False
            if j and row[j - 1] < v:
                return False
            if i and grid[i - 1][j] < v:
                return False
    return True


def _pp_grids(a: int, b: int, c: int, budget: WorkBudget) -> Iterator[Grid]:
    """The arrays of the box; charges one unit per node of the row tree."""
    check_box_sides(a, b, c)
    acc: list[Row] = []

    def rec(r: int) -> Iterator[Grid]:
        budget.charge()
        if r == a:
            yield tuple(acc)
            return
        for row in _decreasing_rows(acc[-1] if acc else (b,) * c):
            acc.append(row)
            yield from rec(r + 1)
            acc.pop()

    yield from rec(0)


def is_self_complementary(pp: PlanePartition) -> bool:
    """True iff every entry and its 180-degree-opposite entry sum to the height bound."""
    g, b = pp.entries, pp.height_bound
    return all(
        v + w == b for row, mirror in zip(g, reversed(g)) for v, w in zip(row, reversed(mirror))
    )


def half_full(a: int, b: int, c: int) -> PlanePartition:
    """Canonical self-complementary reference array of weight +1.

    Splits along the first even dimension in the preference order b, c, a.
    """
    if a % 2 and b % 2 and c % 2:
        raise ParityError("no self-complementary plane partition fits an all-odd box")
    if b % 2 == 0:
        grid = tuple(((b // 2,) * c) for _ in range(a))
    elif c % 2 == 0:
        row = ((b + 1) // 2,) * (c // 2) + ((b - 1) // 2,) * (c // 2)
        grid = tuple(row for _ in range(a))
    else:
        hi = ((b + 1) // 2,) * c
        lo = ((b - 1) // 2,) * c
        grid = tuple(hi for _ in range(a // 2)) + tuple(lo for _ in range(a - a // 2))
    return PlanePartition(a, c, b, grid)


def flipped_pair_count(pp: PlanePartition) -> int:
    """Number of opposite-position cube pairs whose occupied member is the
    lexicographically larger one.

    For a self-complementary array each pair {(i,j,k), opposite} holds
    exactly one cube; grouping pairs by column shows the count equals the
    sum of (height bound - entry) over the positions that lexicographically
    precede their own opposite: the upper a//2 rows, and the left c//2
    entries of a central row.
    """
    a, c, b = pp.rows, pp.cols, pp.height_bound
    total = sum(b * c - sum(row) for row in pp.entries[: a // 2])
    if a % 2:
        total += sum(b - v for v in pp.entries[a // 2][: c // 2])
    return total


def weight(pp: PlanePartition, reference: int | None = None) -> int:
    """The +-1 weight of a self-complementary plane partition.

    Normalized so the half-full reference array has weight +1; each single
    move of a cube to its opposite position flips the sign.  ``reference``
    is ``flipped_pair_count`` of the box's ``half_full`` array, for callers
    that weigh many arrays of one box; it is computed when not given.
    """
    if not is_self_complementary(pp):
        raise ValueError("weight is defined only for self-complementary arrays")
    if reference is None:
        reference = flipped_pair_count(half_full(pp.rows, pp.height_bound, pp.cols))
    return -1 if (flipped_pair_count(pp) - reference) % 2 else 1


def _closing_row(a: int, b: int, c: int) -> Callable[[Row], int]:
    """The condition on the last of the upper (a+1)//2 rows.

    With a even it is the last upper row, and the row below it is its
    reversed complement, so mirrored entries sum to at least b.  With a odd
    it is the central row, which is its own reversed complement.  The
    closing tables (``_RowTable.closing``) list the rows that meet it, and
    the bounds of the move graph's walk (``_scpp_flats``) try only those.
    """
    if a % 2:
        return lambda w: all(w[j] + w[c - 1 - j] == b for j in range(c))
    return lambda w: all(w[j] + w[c - 1 - j] >= b for j in range(c))


def enumerate_scpp(
    a: int, b: int, c: int, budget: WorkBudget | None = None
) -> Iterator[PlanePartition]:
    """Every self-complementary plane partition of the box, exactly once.

    Walks the free upper rows, then the rows below each whose mirrored
    entries sum to at least b, and keeps those that meet the closing
    condition (``_closing_row``): the last upper row for a even, the
    central row for a odd.  The remaining rows are the reversed complements
    of the upper rows.  Charges one unit per node it walks.
    """
    budget = budget or WorkBudget()
    check_box_sides(a, b, c)
    if a == 0:
        yield PlanePartition(0, c, b, ())
        return
    closes = _closing_row(a, b, c)
    for free in _pp_grids((a - 1) // 2, b, c, budget):
        for row in _decreasing_rows(free[-1] if free else (b,) * c, b):
            budget.charge()
            if closes(row):
                upper = free + (row,) if a % 2 == 0 else free
                lower = tuple(tuple(b - v for v in reversed(r)) for r in reversed(upper))
                yield PlanePartition(a, c, b, free + (row,) + lower)


def pp_from_rows(rows, height_bound: int, cols: int | None = None) -> PlanePartition:
    """The array with the given rows; ``cols`` defaults to the first row's length."""
    grid = tuple(tuple(int(v) for v in row) for row in rows)
    if cols is None:
        cols = len(grid[0]) if grid else 0
    return PlanePartition(len(grid), cols, height_bound, grid)


def enumerate_pp(a: int, b: int, c: int, budget: WorkBudget | None = None) -> Iterator[PlanePartition]:
    """Every plane partition in the a x b x c box, exactly once."""
    for grid in _pp_grids(a, b, c, budget or WorkBudget()):
        yield PlanePartition(a, c, b, grid)


def pp_to_tableau(pp: PlanePartition) -> SemistandardTableau:
    """Rotate the array 180 degrees and add i to row i.

    Gives a semistandard filling of the a x c rectangle with entries in
    [1, a+b]; for self-complementary arrays, entries at opposite positions
    sum to a+b+1.
    """
    a, c, b = pp.rows, pp.cols, pp.height_bound
    if a == 0 or c == 0:
        return SemistandardTableau((), a + b, ())
    rows = tuple(
        tuple(pp.entries[a - 1 - i][c - 1 - j] + i + 1 for j in range(c))
        for i in range(a)
    )
    return SemistandardTableau(rectangle(a, c), a + b, rows)


def tableau_to_pp(t: SemistandardTableau) -> PlanePartition:
    """Inverse of :func:`pp_to_tableau` for rectangular shapes."""
    a = len(t.shape)
    if any(w != t.shape[0] for w in t.shape):
        raise ValueError("expected a rectangular shape")
    c = t.shape[0] if a else 0
    b = t.max_entry - a
    if b < 0:
        raise ValueError("max_entry smaller than the number of rows")
    grid = tuple(
        tuple(t.rows[a - 1 - i][c - 1 - j] - (a - i) for j in range(c))
        for i in range(a)
    )
    return PlanePartition(a, c, b, grid)


def middle_line_constraint(pp: PlanePartition, c1: int, c2: int) -> bool:
    """Whether a self-complementary array carries the fixed middle line
    encoded by (c1, c2).

    The array must have (c1+c2)/2 columns; the conditions are those of
    ``count_scpp_middle_line``.  With a and b odd the constrained arrays
    are punctured, so no integer array carries a middle line unless it is
    empty (c1 == c2).
    """
    a, c, b = pp.rows, pp.cols, pp.height_bound
    if c1 % 2 or c2 % 2:
        raise ParityError("c1 and c2 must be even")
    if c1 < c2:
        raise ValueError("c1 must be at least c2")
    if (c1 + c2) // 2 != c:
        raise ValueError("array has the wrong number of columns for (c1, c2)")
    if not is_self_complementary(pp):
        raise ValueError("middle-line constraints apply to self-complementary arrays")
    if a % 2 == 0 and b % 2 == 0:
        if a == 0 or c1 == 0:
            return True
        return pp.entries[a // 2 - 1][c1 // 2 - 1] >= b // 2
    if a % 2 == 1 and b % 2 == 0:
        mid = pp.entries[(a - 1) // 2]
        return all(mid[j] == b // 2 for j in range(c2 // 2, c1 // 2))
    if a % 2 == 1 and b % 2 == 1:
        if c1 == c2:
            return True
        raise ParityError(
            "odd/odd middle lines are carried by punctured arrays; "
            "use count_scpp_middle_line"
        )
    raise ParityError("a even with b odd is not a covered case")


def move_neighbors(pp: PlanePartition) -> Iterator[PlanePartition]:
    """Arrays reachable by removing one cube and adding the opposite one.

    Tries the move from every cell, copies the whole grid and validates
    it; each edge of the move graph is found from both of its ends.
    """
    a, c, b = pp.rows, pp.cols, pp.height_bound
    for i in range(a):
        for j in range(c):
            oi, oj = a - 1 - i, c - 1 - j
            if (i, j) == (oi, oj):
                continue
            if pp.entries[i][j] == 0:
                continue
            grid = [list(row) for row in pp.entries]
            grid[i][j] -= 1
            grid[oi][oj] += 1
            new = tuple(tuple(row) for row in grid)
            if _is_valid_grid(new, a, c, b):
                yield PlanePartition(a, c, b, new)


def move_graph_oracle(a: int, b: int, c: int) -> MoveGraphReport:
    """Oracle for ``check_move_graph``: the neighbours of every array by
    ``move_neighbors``, the edges deduplicated in a set, and ``weight``
    of each array with its own reference array."""
    arrays = list(enumerate_scpp(a, b, c))
    index = {pp.entries: k for k, pp in enumerate(arrays)}
    n = len(arrays)
    if n == 0:
        return MoveGraphReport(0, 0, 0, True)
    weights = [weight(pp) for pp in arrays]
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    edges = set()
    flips_ok = True
    for k, pp in enumerate(arrays):
        for nb in move_neighbors(pp):
            m = index[nb.entries]
            edges.add((min(k, m), max(k, m)))
            if weights[k] * weights[m] != -1:
                flips_ok = False
            ra, rb = find(k), find(m)
            if ra != rb:
                parent[ra] = rb
    components = len({find(k) for k in range(n)})
    return MoveGraphReport(n, len(edges), components, flips_ok)
