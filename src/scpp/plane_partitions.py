"""Plane partitions in a box, in the array representation.

A plane partition in an a x b x c box is an a x c matrix of integers in
[0, b] with weakly decreasing rows and columns; entry (i, j) is the height
of the cube stack there.  Self-complementary plane partitions (entries at
180-degree-opposite positions sum to b) are enumerated through their
determining half, carry a +-1 weight, and support the middle-line
constraints whose counts the product formulas predict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from scpp.budget import WorkBudget
from scpp.partitions import rectangle
from scpp.products import ParityError, check_middle_line_params
from scpp.schur import SemistandardTableau

Grid = tuple[tuple[int, ...], ...]


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

    @classmethod
    def from_rows(cls, rows, height_bound: int, cols: int | None = None) -> "PlanePartition":
        grid = tuple(tuple(int(v) for v in row) for row in rows)
        if cols is None:
            cols = len(grid[0]) if grid else 0
        return cls(len(grid), cols, height_bound, grid)

    def volume(self) -> int:
        return sum(sum(row) for row in self.entries)


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


def enumerate_pp(a: int, b: int, c: int, budget: WorkBudget | None = None) -> Iterator[PlanePartition]:
    """Every plane partition in the a x b x c box, exactly once."""
    for grid in _pp_grids(a, b, c, budget):
        yield PlanePartition(a, c, b, grid)


def count_pp(a: int, b: int, c: int, budget: WorkBudget | None = None) -> int:
    """Brute-force count of plane partitions in the box (no closed form used)."""
    return sum(1 for _ in _pp_grids(a, b, c, budget))


def _decreasing_rows(bound: tuple[int, ...], c: int) -> Iterator[tuple[int, ...]]:
    """Weakly decreasing rows of length c, bounded entrywise by ``bound``."""

    def rec(j: int, row: list[int]) -> Iterator[tuple[int, ...]]:
        if j == c:
            yield tuple(row)
            return
        hi = min(bound[j], row[-1]) if row else bound[j]
        for v in range(hi, -1, -1):
            row.append(v)
            yield from rec(j + 1, row)
            row.pop()

    yield from rec(0, [])


def _pp_grids(a: int, b: int, c: int, budget: WorkBudget | None = None) -> Iterator[Grid]:
    if a < 0 or b < 0 or c < 0:
        raise ValueError("box sides must be nonnegative")
    acc: list[tuple[int, ...]] = []

    def rec(r: int) -> Iterator[Grid]:
        if budget is not None:
            budget.charge()
        if r == a:
            yield tuple(acc)
            return
        bound = acc[-1] if acc else (b,) * c
        for row in _decreasing_rows(bound, c):
            acc.append(row)
            yield from rec(r + 1)
            acc.pop()

    yield from rec(0)


def is_self_complementary(pp: PlanePartition) -> bool:
    """True iff every entry and its 180-degree-opposite entry sum to the height bound."""
    a, c, b = pp.rows, pp.cols, pp.height_bound
    g = pp.entries
    return all(
        g[i][j] + g[a - 1 - i][c - 1 - j] == b for i in range(a) for j in range(c)
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
    precede their own opposite.
    """
    a, c, b = pp.rows, pp.cols, pp.height_bound
    total = 0
    for i in range(a):
        for j in range(c):
            if (i, j) < (a - 1 - i, c - 1 - j):
                total += b - pp.entries[i][j]
    return total


def weight(pp: PlanePartition) -> int:
    """The +-1 weight of a self-complementary plane partition.

    Normalized so the half-full reference array has weight +1; each single
    move of a cube to its opposite position flips the sign.
    """
    if not is_self_complementary(pp):
        raise ValueError("weight is defined only for self-complementary arrays")
    reference = half_full(pp.rows, pp.height_bound, pp.cols)
    diff = flipped_pair_count(pp) - flipped_pair_count(reference)
    return -1 if diff % 2 else 1


def move_neighbors(pp: PlanePartition) -> Iterator[PlanePartition]:
    """Arrays reachable by removing one cube and adding the opposite one."""
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


@dataclass(frozen=True)
class SignedCount:
    """Tally of +1 and -1 weights over a family of arrays."""

    positive: int
    negative: int

    @property
    def signed_total(self) -> int:
        return self.positive - self.negative

    @property
    def total(self) -> int:
        return self.positive + self.negative


# ---------------------------------------------------------------------------
# enumeration of self-complementary arrays through the determining half

def _constrained_row(
    bound: tuple[int, ...],
    c: int,
    b: int,
    mode: str,
) -> Iterator[tuple[int, ...]]:
    """Rows of length c, entrywise <= bound, weakly decreasing, with the
    complementarity condition against themselves.

    mode "wrap":  v[j] + v[c-1-j] >= b (boundary row of an even-height stack
    of free rows).
    mode "exact": v[j] + v[c-1-j] == b (the central row when the row count
    is odd); the right half is forced by the left.
    """

    def rec(j: int, row: list[int]) -> Iterator[tuple[int, ...]]:
        if j == c:
            yield tuple(row)
            return
        partner = c - 1 - j
        hi = min(bound[j], row[-1]) if row else bound[j]
        if j < partner:
            lo = (b + 1) // 2 if mode == "exact" else 0
            for v in range(hi, lo - 1, -1):
                row.append(v)
                yield from rec(j + 1, row)
                row.pop()
        elif j == partner:
            if mode == "exact":
                if b % 2:
                    return
                v = b // 2
                if v <= hi:
                    row.append(v)
                    yield from rec(j + 1, row)
                    row.pop()
            else:
                lo = (b + 1) // 2
                for v in range(hi, lo - 1, -1):
                    row.append(v)
                    yield from rec(j + 1, row)
                    row.pop()
        else:
            v = b - row[partner]
            if mode == "wrap":
                for w in range(hi, max(v, 0) - 1, -1):
                    row.append(w)
                    yield from rec(j + 1, row)
                    row.pop()
            else:
                if 0 <= v <= hi:
                    row.append(v)
                    yield from rec(j + 1, row)
                    row.pop()

    yield from rec(0, [])


def _scpp_halves(
    a: int, b: int, c: int, budget: WorkBudget | None = None
) -> Iterator[tuple[tuple[tuple[int, ...], ...], tuple[int, ...] | None]]:
    """Determining data of each self-complementary array, exactly once.

    Yields (upper rows, middle row or None); the remaining rows are the
    reversed complements of the upper rows.
    """
    if a < 0 or b < 0 or c < 0:
        raise ValueError("box sides must be nonnegative")
    if a == 0:
        yield ((), None)
        return
    # the free upper rows, then the boundary row (a even) or central row (a odd)
    mode = "exact" if a % 2 else "wrap"
    for upper in _pp_grids((a - 1) // 2, b, c, budget):
        bound = upper[-1] if upper else (b,) * c
        for row in _constrained_row(bound, c, b, mode):
            yield (upper, row) if a % 2 else (upper + (row,), None)


def _assemble(
    a: int, b: int, c: int, upper: tuple[tuple[int, ...], ...], mid: tuple[int, ...] | None
) -> Grid:
    lower = tuple(tuple(b - v for v in reversed(row)) for row in reversed(upper))
    middle = (mid,) if mid is not None else ()
    return upper + middle + lower


def enumerate_scpp(
    a: int, b: int, c: int, budget: WorkBudget | None = None
) -> Iterator[PlanePartition]:
    """Every self-complementary plane partition of the box, exactly once."""
    for upper, mid in _scpp_halves(a, b, c, budget):
        yield PlanePartition(a, c, b, _assemble(a, b, c, upper, mid))


def count_scpp(a: int, b: int, c: int, budget: WorkBudget | None = None) -> int:
    """Brute-force count of self-complementary plane partitions."""
    return sum(1 for _ in _scpp_halves(a, b, c, budget))


def _half_flip_count(
    b: int, c: int, upper: tuple[tuple[int, ...], ...], mid: tuple[int, ...] | None
) -> int:
    total = 0
    for row in upper:
        for v in row:
            total += b - v
    if mid is not None:
        for j in range(c // 2):
            total += b - mid[j]
    return total


def count_scpp_signed(
    a: int, b: int, c: int, budget: WorkBudget | None = None
) -> SignedCount:
    """Signed brute-force count, weighting each array by its +-1 weight."""
    if a % 2 and b % 2 and c % 2:
        return SignedCount(0, 0)
    reference = half_full(a, b, c)
    base = flipped_pair_count(reference) % 2
    pos = neg = 0
    for upper, mid in _scpp_halves(a, b, c, budget):
        if (_half_flip_count(b, c, upper, mid) - base) % 2:
            neg += 1
        else:
            pos += 1
    return SignedCount(pos, neg)


# ---------------------------------------------------------------------------
# middle-line constraints

def middle_line_constraint(pp: PlanePartition, c1: int, c2: int) -> bool:
    """Whether a self-complementary array carries the fixed middle line
    encoded by (c1, c2).

    The array must have (c1+c2)/2 columns.  For an even number of rows (and
    even height bound) the condition is that the entry in the last upper row
    at column c1/2 is at least half the height bound; for an odd row count
    with even height bound the central row is pinned to exactly half the
    height bound along columns c2/2+1 .. c1/2.  With both the row count and
    the height bound odd the constrained objects carry no integer entries on
    that column range (the central stacks are fractional), so no full
    integer array satisfies the constraint unless it is vacuous (c1 == c2);
    use :func:`count_scpp_middle_line` for that case.
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


def count_scpp_middle_line(
    a: int, b: int, c1: int, c2: int, budget: WorkBudget | None = None
) -> int:
    """Brute-force count of self-complementary arrays carrying the middle line.

    Dispatches on the parity of (a, b); the odd/odd case counts punctured
    arrays whose central segment has no integer entries.
    """
    check_middle_line_params(a, b, c1, c2)
    c = (c1 + c2) // 2
    if a % 2 == 1 and b % 2 == 1:
        return _count_punctured_middle_line(a, b, c1, c2, budget)
    if a % 2 == 0 and b % 2 == 0:
        if a == 0 or c1 == 0:
            return count_scpp(a, b, c, budget)
        col = c1 // 2 - 1
        threshold = b // 2
        return sum(
            1
            for upper, _ in _scpp_halves(a, b, c, budget)
            if upper[a // 2 - 1][col] >= threshold
        )
    # a odd, b even: central row pinned to b/2 along the segment
    lo, hi = c2 // 2, c1 // 2
    half = b // 2
    return sum(
        1
        for _, mid in _scpp_halves(a, b, c, budget)
        if all(mid[j] == half for j in range(lo, hi))
    )


def _count_punctured_middle_line(
    a: int, b: int, c1: int, c2: int, budget: WorkBudget | None = None
) -> int:
    """Count middle-line objects for odd row count and odd height bound.

    The central row's segment (columns c2/2+1 .. c1/2) holds no integer
    entry; the integer cells around it must satisfy, with h = height bound:
    entries directly above the segment at least (h-1)/2, entries directly
    below at most (h+1)/2 (equivalent to the above condition by
    complementarity), and the central-row entries left of the segment at
    least (h+1)/2.  These inequalities were calibrated against the closed
    product by exhaustive enumeration.
    """
    c = (c1 + c2) // 2
    seg_lo, seg_hi = c2 // 2, c1 // 2
    left_len = c2 // 2
    above_min = (b - 1) // 2
    left_min = (b + 1) // 2
    free = (a - 1) // 2

    def count_middles(above: tuple[int, ...] | None) -> int:
        if above is not None and any(above[t] < above_min for t in range(seg_lo, seg_hi)):
            return 0
        count = 0

        def rec(t: int, left: list[int]) -> None:
            nonlocal count
            if t == left_len:
                for j in range(seg_hi, c):
                    w = b - left[c - 1 - j]
                    if above is not None and w > above[j]:
                        return
                count += 1
                return
            hi_v = left[-1] if left else b
            if above is not None:
                hi_v = min(hi_v, above[t])
            for v in range(hi_v, left_min - 1, -1):
                left.append(v)
                rec(t + 1, left)
                left.pop()

        rec(0, [])
        return count

    if free == 0:
        return count_middles(None)

    return sum(count_middles(upper[-1]) for upper in _pp_grids(free, b, c, budget))


# ---------------------------------------------------------------------------
# bijection with rectangular tableaux

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


# ---------------------------------------------------------------------------
# move-graph consistency

@dataclass(frozen=True)
class MoveGraphReport:
    """Connectivity and sign behaviour of the cube-move graph on one box."""

    vertices: int
    edges: int
    components: int
    sign_flips_consistent: bool


def check_move_graph(a: int, b: int, c: int, budget: WorkBudget | None = None) -> MoveGraphReport:
    """Build the graph of single cube moves on all self-complementary arrays.

    Confirms that the closed-form weight flips sign across every edge and
    reports how many connected components the graph has (0 or 1 expected).
    """
    arrays = list(enumerate_scpp(a, b, c, budget))
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
            edge = (min(k, m), max(k, m))
            if edge in edges:
                continue
            edges.add(edge)
            if weights[k] * weights[m] != -1:
                flips_ok = False
            ra, rb = find(k), find(m)
            if ra != rb:
                parent[ra] = rb
    components = len({find(k) for k in range(n)})
    return MoveGraphReport(n, len(edges), components, flips_ok)
