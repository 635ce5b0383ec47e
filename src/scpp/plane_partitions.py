"""Plane partitions in a box, in the array representation.

A plane partition in an a x b x c box is an a x c matrix of integers in
[0, b] with weakly decreasing rows and columns; entry (i, j) is the height
of the cube stack there.  Self-complementary plane partitions (entries at
180-degree-opposite positions sum to b) are determined by their upper
(a+1)//2 rows, carry a +-1 weight, and support the middle-line
constraints whose counts the product formulas predict.

Every count is a chain of weakly decreasing rows, each entrywise at most
the one before, closed by a condition on its last row: none for the box,
mirrored entries summing to at least b (a even) or to exactly b (the
central row, a odd) for the self-complementary arrays, plus a pinned
segment for the middle lines.  The counts sum over these chains with the
transfer-matrix method (Stanley, EC1 4.7), whose states are the rows; they
are exhaustive and use no closed form.  ``enumerate_scpp`` builds the
self-complementary arrays themselves, for the move graph, which joins two
arrays when one cube moves to its 180-degree-opposite position;
``check_move_graph`` finds each edge once, by checks at the two cells it
changes, and checks that the weight, computed for each array from its own
entries, flips across every edge.  The object-level
oracles (every box array, the bijection with rectangular tableaux, the
middle-line condition on one array) live in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations_with_replacement
from math import comb
from typing import Callable, Iterator

from scpp.budget import WorkBudget
from scpp.products import ParityError, check_box_sides, check_middle_line_params

Row = tuple[int, ...]
Grid = tuple[Row, ...]
RowWeight = Callable[[Row], int]


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


def count_pp(a: int, b: int, c: int, budget: WorkBudget | None = None) -> int:
    """Exhaustive count of plane partitions in the box (no closed form used)."""
    check_box_sides(a, b, c)
    return sum(_row_chains(a, b, c, budget=budget)[1])


def _rows_above(counts: list[int], raised: list[list[int]]) -> list[int]:
    """For each row w, the sum of ``counts`` over the rows r >= w entrywise.

    Sums one column at a time, from the last to the first: after column j,
    w holds the sum over the rows that agree with w before column j and are
    at least w from there on, that is, its sum after column j+1 plus the sum
    at w + e_j when that is a decreasing row.
    """
    sums = list(counts)
    for column in reversed(raised):
        for i, r in enumerate(column):
            if r >= 0:  # r < i: the raised row comes first and is already summed
                sums[i] += sums[r]
    return sums


def _row_chains(
    k: int, b: int, c: int, signed: bool = False, budget: WorkBudget | None = None
) -> tuple[list[Row], list[int]]:
    """Chains of k weakly decreasing rows in [0, b]^c, each entrywise at most
    the one before, counted by their last row: the rows and their counts.
    ``signed`` weights each row by (-1)^(b*c - its sum), the parity of the
    cubes it leaves out of the box.  Charges its k*C(b+c, c) units before
    it lists the rows, to ``budget`` or else to a fresh ``WorkBudget()``,
    so a cap stops it before they fill memory.
    """
    if k == 0:
        return [(b,) * c], [1]  # the full row (b, ..., b) stands for the lid of the box
    (WorkBudget() if budget is None else budget).charge(k * comb(b + c, c))
    rows = list(combinations_with_replacement(range(b, -1, -1), c))  # decreasing lex order
    index = {row: i for i, row in enumerate(rows)}
    # per column j, the index of each row with entry j raised by one (-1: none)
    raised = [[index.get(row[:j] + (row[j] + 1,) + row[j + 1:], -1) for row in rows] for j in range(c)]
    counts = [1] + [0] * (len(rows) - 1)  # the lid
    for _ in range(k):
        counts = _rows_above(counts, raised)
        if signed:
            counts = [-n if (b * c - sum(row)) % 2 else n for n, row in zip(counts, rows)]
    return rows, counts


def _decreasing_rows(bound: Row, mirrored: int = 0, row: Row = ()) -> Iterator[Row]:
    """The weakly decreasing rows w that begin with ``row``, are bounded
    entrywise by ``bound`` and have w[j] + w[c-1-j] >= ``mirrored`` for
    each two mirrored columns j != c-1-j, in decreasing lexicographic order."""
    j, c = len(row), len(bound)
    if j == c:
        yield row
        return
    hi = min(bound[j], row[-1]) if row else bound[0]
    lo = mirrored - row[c - 1 - j] if 2 * j >= c else 0  # once the mirror is placed
    for v in range(hi, max(lo, 0) - 1, -1):
        yield from _decreasing_rows(bound, mirrored, row + (v,))


def _pp_grids(a: int, b: int, c: int, budget: WorkBudget | None = None) -> Iterator[Grid]:
    check_box_sides(a, b, c)
    acc: list[Row] = []

    def rec(r: int) -> Iterator[Grid]:
        if budget is not None:
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
# self-complementary arrays through the determining half

def _closing_row(a: int, b: int, c: int) -> RowWeight:
    """The condition on the last of the upper (a+1)//2 rows.

    With a even it is the last upper row, and the row below it is its
    reversed complement, so mirrored entries sum to at least b.  With a odd
    it is the central row, which is its own reversed complement.
    """
    if a % 2:
        return lambda w: all(w[j] + w[c - 1 - j] == b for j in range(c))
    return lambda w: all(w[j] + w[c - 1 - j] >= b for j in range(c))


def _closed_chains(
    a: int, b: int, c: int, closes: RowWeight, signed: bool = False, budget: WorkBudget | None = None
) -> int:
    """Chains of the upper (a+1)//2 rows, each counted with the weight
    ``closes`` gives its last row (a bool counts as 0 or 1)."""
    rows, counts = _row_chains((a + 1) // 2, b, c, signed, budget)
    return sum(n * closes(row) for n, row in zip(counts, rows) if n)


def enumerate_scpp(
    a: int, b: int, c: int, budget: WorkBudget | None = None
) -> Iterator[PlanePartition]:
    """Every self-complementary plane partition of the box, exactly once.

    Walks the free upper rows, then the closing row below each (the last
    upper row for a even, the central row for a odd), whose mirrored
    entries sum to at least b; the remaining rows are the reversed
    complements of the upper rows.
    """
    check_box_sides(a, b, c)
    if a == 0:
        yield PlanePartition(0, c, b, ())
        return
    closes = _closing_row(a, b, c)
    for free in _pp_grids((a - 1) // 2, b, c, budget):
        for row in _decreasing_rows(free[-1] if free else (b,) * c, b):
            if budget is not None:
                budget.charge()
            if closes(row):
                upper = free + (row,) if a % 2 == 0 else free
                lower = tuple(tuple(b - v for v in reversed(r)) for r in reversed(upper))
                yield PlanePartition(a, c, b, free + (row,) + lower)


def count_scpp(a: int, b: int, c: int, budget: WorkBudget | None = None) -> int:
    """Exhaustive count of self-complementary plane partitions."""
    check_box_sides(a, b, c)
    return _closed_chains(a, b, c, _closing_row(a, b, c), budget=budget)


def count_scpp_signed(
    a: int, b: int, c: int, budget: WorkBudget | None = None
) -> SignedCount:
    """Signed exhaustive count, weighting each array by its +-1 weight.

    The weight's parity is the number of cubes missing from the upper rows,
    counting only the left half of a central row (the positions that
    precede their opposite); a plain and a signed run give the tally.
    """
    check_box_sides(a, b, c)
    if a % 2 and b % 2 and c % 2:
        return SignedCount(0, 0)
    base = flipped_pair_count(half_full(a, b, c)) % 2
    closes = _closing_row(a, b, c)
    total = _closed_chains(a, b, c, closes, budget=budget)
    # the signed run weighs a whole central row; take its right half back out
    right = c // 2 if a % 2 else c
    weighted = lambda w: closes(w) * (-1) ** sum(b - v for v in w[right:])
    signed = (-1) ** base * _closed_chains(a, b, c, weighted, True, budget)
    positive = (total + signed) // 2
    return SignedCount(positive, total - positive)


# ---------------------------------------------------------------------------
# middle-line constraints

def count_scpp_middle_line(
    a: int, b: int, c1: int, c2: int, budget: WorkBudget | None = None
) -> int:
    """Exhaustive count of self-complementary arrays carrying the middle line.

    The segment is columns c2/2+1 .. c1/2 of the box with (c1+c2)/2
    columns.  With a and b even the last upper row has entry at least b/2
    at column c1/2; with a odd and b even the central row is b/2 along the
    segment.  With a and b odd the arrays are punctured: the segment of the
    central row holds the half-integer height b/2.  They are counted as
    central rows whose segment is (b-1)/2 and whose other columns pair with
    their mirror to b, so the rows above stand at least (b-1)/2 over the
    segment and their complements at most (b+1)/2.
    """
    check_middle_line_params(a, b, c1, c2)
    c = (c1 + c2) // 2
    if a % 2 == 0:
        closes = _closing_row(a, b, c)
        carries = lambda w: closes(w) and (c1 == 0 or w[c1 // 2 - 1] >= b // 2)
    else:
        # b // 2 is b/2, or (b-1)/2 under the puncture
        segment = range(c2 // 2, c1 // 2)
        carries = lambda w: all(
            w[j] == b // 2 if j in segment else w[j] + w[c - 1 - j] == b for j in range(c)
        )
    return _closed_chains(a, b, c, carries, budget=budget)


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

    A move takes the top cube off one stack and puts it on the stack at the
    180-degree-opposite position, which keeps the array self-complementary.
    With the a*c cells read row by row, cell p is opposite a*c-1-p, and the
    moves tried take a cube from a cell p that precedes its opposite, so
    each edge is found once, from its end with the cube at p.  The new
    array differs from the old at p (lowered) and its opposite q (raised).
    It is self-complementary, so the conditions at p mirror those at q,
    and the move is valid iff the raised entry stays at most its left
    neighbour and at most the entry above it, both read in the new array
    (either may be p).  That also keeps it at most b: q follows its
    opposite, so it is not the corner cell and has one of the two.  The
    new array is then looked up among the listed ones; a miss means the
    enumerator is incomplete and raises ``KeyError``.

    Each array's weight comes from its own entries, by ``weight`` against
    the reference count of the box, never from a neighbour's, so the check
    that every edge joins weights +1 and -1 can fail.  Also reports how
    many connected components the graph has (0 or 1 expected).

    Before it lists any array it charges its dominant work, to ``budget``
    or else to a fresh ``WorkBudget()``: the units of ``count_scpp``, then
    (a*c)//2 moves for each array counted.  ``enumerate_scpp`` then charges
    its nodes to the same budget.
    """
    budget = WorkBudget() if budget is None else budget
    cells = a * c
    counted = count_scpp(a, b, c, budget)
    budget.charge(counted * (cells // 2))
    if counted == 0:
        return MoveGraphReport(0, 0, 0, True)
    reference = flipped_pair_count(half_full(a, b, c))
    weights, flats = [], []
    for pp in enumerate_scpp(a, b, c, budget):
        weights.append(weight(pp, reference))
        flats.append(tuple(chain.from_iterable(pp.entries)))
    n = len(flats)
    index = {f: k for k, f in enumerate(flats)}
    # per move: the cell p that loses its top cube, its opposite q, and the
    # left neighbour and the cell above q (negative: none)
    moves = []
    for p in range(cells // 2):
        q = cells - 1 - p
        moves.append((p, q, q - 1 if q % c else -1, q - c))
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    edges = 0
    flips_ok = True
    for k, f in enumerate(flats):
        for p, q, left, above in moves:
            raised = f[q] + 1
            if left >= 0 and raised > f[left] - (left == p):
                continue
            if above >= 0 and raised > f[above] - (above == p):
                continue
            m = index[f[:p] + (f[p] - 1,) + f[p + 1 : q] + (raised,) + f[q + 1 :]]
            edges += 1
            if weights[k] == weights[m]:
                flips_ok = False
            ra, rb = find(k), find(m)
            if ra != rb:
                parent[ra] = rb
    components = len({find(k) for k in range(n)})
    return MoveGraphReport(n, edges, components, flips_ok)
