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
are exhaustive and use no closed form.  The rows of [0, b]^c form one row
table per (b, c), shared by every count (``_RowTable``).  Beside its rows
the table keeps what the counts read from them: the live pairs of the
transfer steps, per column the rows whose entry can be raised and the
rows they become; the sign column of the signed steps; and two closing
tables, the indices of the rows whose mirrored entries sum to at least b
and of those that sum to exactly b, each listed once from the table's
columns.  A count sums its chain counts at the indices of the closing
table; a middle line filters that list by a column, or in the punctured
case selects its rows in one pass over the columns.  The tables and the
chain counts of each step run, plain and signed, are kept in
``scpp.budget.KEPT``, sized by their rows, so a count runs each step once
while it stays kept (``_row_table``, ``_row_chains``).

Each count charges its row states once per transfer step before it reads
the table (``_charged_table``), whether it runs the steps or reads them
kept, so no charge depends on what earlier counts ran.  The table is built
when first read, and each of its lists when first used, so a cap stops a
count before any of them fills memory.  The signed count charges its two
runs to one budget and makes both on one table.

The move graph joins two self-complementary arrays when one cube moves to
its 180-degree-opposite position.  ``check_move_graph`` lists the arrays
as flat tuples, the a*c entries row by row, by a walk whose row bounds
are the closing condition (``_scpp_flats``).  It finds each edge once, by
checks at the two cells it changes, and checks that the weight, computed
for each array from its own entries (``_flipped_parity``), flips across
every edge.  The object-level oracles (the validated array type, every
box array, the self-complementary arrays as objects, their weight and
closing row, the bijection with rectangular tableaux, the middle-line
condition on one array) live in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations_with_replacement, compress, repeat
from math import comb
from operator import add, and_, eq, ge, gt, itemgetter, mul, sub
from typing import Iterable, Iterator

from scpp.budget import KEPT, WorkBudget
from scpp.products import check_box_sides, check_middle_line_params

Row = tuple[int, ...]


def count_pp(a: int, b: int, c: int, budget: WorkBudget | None = None) -> int:
    """Exhaustive count of plane partitions in the box (no closed form used)."""
    check_box_sides(a, b, c)
    return sum(_row_chains(_charged_table(a, b, c, budget or WorkBudget()), a))


def _rows_above(counts: list[int], pairs: list[tuple[list[int], list[int]]]) -> list[int]:
    """For each row w, the sum of ``counts`` over the rows r >= w entrywise.

    Sums one column at a time, from the last to the first: after column j,
    w holds the sum over the rows that agree with w before column j and are
    at least w from there on, that is, its sum after column j+1 plus the sum
    at w + e_j when that is a decreasing row.  ``pairs`` lists, per column,
    those rows w and the rows w + e_j, which come first and are summed first.
    """
    sums = list(counts)
    for dst, src in reversed(pairs):
        for i, r in zip(dst, src):
            sums[i] += sums[r]
    return sums


def _where(n: int, *tests: Iterable[bool]) -> list[int]:
    """The indices below n at which every one of ``tests`` holds."""
    keep: Iterable[bool] = repeat(True, n)
    for test in tests:
        keep = map(and_, keep, test)
    return list(compress(range(n), keep))


class _RowTable:
    """Weakly decreasing rows of length c in [0, b], in decreasing
    lexicographic order, and what the counts read from them.  Every caller
    shares the lists and only reads them.

    Past the rows, each list is built on its first use and kept with them:
    the live pairs of the transfer steps (``pairs``), the columns, the sign
    column of the signed steps, and the closing tables, the indices of the
    rows that close a chain of upper rows (``closing``).  A count reads them
    only after it has charged its units (``_charged_table``).
    """

    def __init__(self, b: int, c: int, rows: list[Row]) -> None:
        self.b, self.c, self.rows = b, c, rows
        self._closing: dict[int, list[int]] = {}  # by the parity of a

    @cached_property
    def pairs(self) -> list[tuple[list[int], list[int]]]:
        """Per column j the live pairs, as two parallel lists: ``dst``, the
        rows w whose entry j can be raised by one, w[j] < w[j-1] (w[-1] =
        b), and ``src``, the index of w + e_j, which comes first.

        The rows that precede w are, for each j, those that agree with w
        before column j and are larger at j: N(c-j, w[j-1]) - N(c-j, w[j])
        of them, where N(n, m) = C(m+n, n) counts the decreasing rows of length
        n in [0, m].  Raising w[j] = v changes only the terms j and j+1, so
        w + e_j comes N(c-j-1, v+1) - N(c-j-2, v+1) rows before w, with
        N(-1, m) = 0: an offset per column and value, and no lookup.
        """
        b, c, rows = self.b, self.c, self.rows

        def decreasing(n: int, m: int) -> int:  # N(n, m)
            return comb(m + n, n) if n >= 0 else 0

        indices = list(range(len(rows)))  # one int per row, shared by the lists
        out, above = [], repeat(b)
        for j in range(c):
            n = c - j - 1  # the entries after column j
            gap = [decreasing(n, v + 1) - decreasing(n - 1, v + 1) for v in range(b + 1)]
            column = list(map(itemgetter(j), rows))
            live = list(map(gt, above, column))
            dst = list(compress(indices, live))
            gaps = compress(map(gap.__getitem__, column), live)
            out.append((dst, list(map(indices.__getitem__, map(sub, dst, gaps)))))
            above = column
        return out

    @cached_property
    def columns(self) -> list[Row]:
        return list(zip(*self.rows))

    @cached_property
    def signs(self) -> list[int]:
        """(-1)^(b*c - the row's sum) per row, the parity of the cubes it
        leaves out of the box."""
        full = self.b * self.c
        return [-1 if (full - s) % 2 else 1 for s in map(sum, self.rows)]

    def pair_sums(self, j: int) -> Iterator[int]:
        """w[j] + w[c-1-j] for each row w."""
        return map(add, self.columns[j], self.columns[self.c - 1 - j])

    def closing(self, a: int) -> list[int]:
        """The rows that close a chain of the upper (a+1)//2 rows of an
        a x b x c array: mirrored entries summing to at least b for a even,
        where the row below is the reversed complement, and to exactly b
        for a odd, where the row is central."""
        parity = a % 2
        if parity not in self._closing:
            test = eq if parity else ge
            pairs = range((self.c + 1) // 2)
            tests = (map(test, self.pair_sums(j), repeat(self.b)) for j in pairs)
            self._closing[parity] = _where(len(self.rows), *tests)
        return self._closing[parity]


def _row_table(b: int, c: int) -> _RowTable:
    """The row table of (b, c), kept in ``KEPT`` sized by its rows."""
    table = KEPT.get(("rows", b, c))
    if table is None:
        rows = list(combinations_with_replacement(range(b, -1, -1), c))
        table = KEPT.put(("rows", b, c), _RowTable(b, c, rows), len(rows))
    return table


def _charged_table(k: int, b: int, c: int, budget: WorkBudget, runs: int = 1) -> _RowTable:
    """The row table for ``runs`` runs of ``_row_chains`` over k steps.
    Charges their runs*k*C(b+c, c) units to ``budget`` before it reads the
    table, so a cap stops a count before the rows fill memory.  With k = 0
    the table is the lid alone, the full row (b, ..., b).
    """
    if k == 0:
        return _RowTable(b, c, [(b,) * c])
    budget.charge(runs * k * comb(b + c, c))
    return _row_table(b, c)


def _row_chains(table: _RowTable, k: int, signed: bool = False) -> list[int]:
    """Chains of k rows from ``table``, each entrywise at most the one
    before, counted by their last row.  ``signed`` weights each row by its
    sign in ``table.signs``.

    Step s of the run, s > 0, is kept in ``KEPT`` under ("chains", b, c,
    signed, s), sized by its rows; a run goes on from the highest step kept
    at or below k, or from the lid, and keeps each step it runs.  Callers
    only read the list returned.
    """
    key = ("chains", table.b, table.c, signed)
    for s in range(k, 0, -1):
        counts = KEPT.get(key + (s,))
        if counts is not None:
            break
    else:
        s, counts = 0, [1] + [0] * (len(table.rows) - 1)  # the lid
    for s in range(s + 1, k + 1):
        counts = _rows_above(counts, table.pairs)
        if signed:
            counts = list(map(mul, counts, table.signs))
        KEPT.put(key + (s,), counts, len(counts))
    return counts


def _decreasing_rows(
    bound: Row, mirrored: int = 0, exact: bool = False, row: Row = ()
) -> Iterator[Row]:
    """The weakly decreasing rows w that begin with ``row``, are bounded
    entrywise by ``bound`` and have w[j] + w[c-1-j] >= ``mirrored`` for
    every j, the middle column of an odd c included, in decreasing
    lexicographic order.  An entry is not tried when its mirror, placed
    later, cannot lift the pair to ``mirrored``: that mirror is at most the
    entry and at most its bound.  With ``mirrored`` 0 these are all the
    decreasing rows under ``bound``.

    ``exact`` asks for w[j] + w[c-1-j] == ``mirrored`` for every j: the
    walk places the left half and tries one value for each later entry, the
    one that completes its pair.
    """
    j, c = len(row), len(bound)
    if j == c:
        yield row
        return
    hi = min(bound[j], row[-1]) if row else bound[0]
    if 2 * j >= c:  # the mirror is placed
        lo = mirrored - row[c - 1 - j]
        if exact:
            hi = min(hi, lo)
    elif 2 * j + 1 < c:  # the mirror comes later
        lo = max(mirrored - bound[c - 1 - j], (mirrored + 1) // 2)
    else:  # the middle column is its own mirror
        lo = (mirrored + 1) // 2
        if exact:
            hi = min(hi, mirrored // 2)
    for v in range(hi, max(lo, 0) - 1, -1):
        yield from _decreasing_rows(bound, mirrored, exact, row + (v,))


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

def _upper_chains(
    a: int, b: int, c: int, budget: WorkBudget, runs: int = 1
) -> tuple[_RowTable, list[int]]:
    """The row table, charged for ``runs`` runs, and the plain run of the
    chains of the upper (a+1)//2 rows."""
    k = (a + 1) // 2
    table = _charged_table(k, b, c, budget, runs)
    return table, _row_chains(table, k)


def _sum_at(counts: list[int], indices: Iterable[int]) -> int:
    return sum(map(counts.__getitem__, indices))


def _upper_cells(a: int, c: int) -> int:
    """h, the number of cells of an a x c array read row by row that
    precede their opposite: the upper a//2 rows and the left c//2 cells of
    a central row."""
    return (a // 2) * c + (a % 2) * (c // 2)


def _reference_parity(a: int, b: int, c: int) -> int:
    """The weight parity of the box's half-full reference array, the array
    of weight +1, for a box that is not all odd: the cubes missing from the
    positions that precede their opposite (see ``_flipped_parity``).

    The reference splits along the first even side in the order b, c, a:
    every entry b/2; or rows of c/2 entries (b+1)/2 then c/2 entries
    (b-1)/2; or the upper a/2 rows (b+1)/2 and the lower ones (b-1)/2.
    """
    h = _upper_cells(a, c)
    if b % 2 == 0:
        missing = h * (b // 2)
    elif c % 2 == 0:
        missing = (a // 2) * (c // 2) * b + (a % 2) * (c // 2) * ((b - 1) // 2)
    else:
        missing = h * ((b - 1) // 2)
    return missing % 2


def count_scpp(a: int, b: int, c: int, budget: WorkBudget | None = None) -> int:
    """Exhaustive count of self-complementary plane partitions."""
    check_box_sides(a, b, c)
    table, counts = _upper_chains(a, b, c, budget or WorkBudget())
    return _sum_at(counts, table.closing(a))


def count_scpp_signed(
    a: int, b: int, c: int, budget: WorkBudget | None = None
) -> SignedCount:
    """Signed exhaustive count, weighting each array by its +-1 weight.

    The weight's parity is the number of cubes missing from the upper rows,
    counting only the left half of a central row (the positions that
    precede their opposite); a plain and a signed run give the tally.
    """
    budget = budget or WorkBudget()
    check_box_sides(a, b, c)
    if a % 2 and b % 2 and c % 2:
        return SignedCount(0, 0)
    table, counts = _upper_chains(a, b, c, budget, runs=2)
    closing = table.closing(a)
    total = _sum_at(counts, closing)
    counts = _row_chains(table, (a + 1) // 2, signed=True)
    if a % 2:
        # the signed run weighs a whole central row; take its right half back out
        half, rows = c // 2, table.rows
        full = b * (c - half)
        signed = sum(-counts[i] if (full - sum(rows[i][half:])) % 2 else counts[i] for i in closing)
    else:
        signed = _sum_at(counts, closing)
    signed *= (-1) ** _reference_parity(a, b, c)
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

    The rows are weakly decreasing, so a segment is constant once its two
    ends are, and a central row's segment once its first entry is.
    """
    check_middle_line_params(a, b, c1, c2)
    c = (c1 + c2) // 2
    table, counts = _upper_chains(a, b, c, budget or WorkBudget())
    columns, half = table.columns, b // 2  # b/2, or (b-1)/2 under the puncture
    if a % 2 == 0:
        closing = table.closing(a)
        if c1:
            column = columns[c1 // 2 - 1]
            closing = [i for i in closing if column[i] >= half]
    elif b % 2 == 0:
        closing = table.closing(a)
        if c1 > c2:
            first = columns[c2 // 2]
            closing = [i for i in closing if first[i] == half]
    else:
        pairs = (map(eq, table.pair_sums(j), repeat(b)) for j in range(c2 // 2))
        ends = [c2 // 2, c - 1 - c2 // 2] if c1 > c2 else []
        segment = (map(eq, columns[j], repeat(half)) for j in ends)
        closing = _where(len(table.rows), *pairs, *segment)
    return _sum_at(counts, closing)


# ---------------------------------------------------------------------------
# move-graph consistency

@dataclass(frozen=True)
class MoveGraphReport:
    """Connectivity and sign behaviour of the cube-move graph on one box."""

    vertices: int
    edges: int
    components: int
    sign_flips_consistent: bool


def _scpp_flats(a: int, b: int, c: int, budget: WorkBudget) -> Iterator[Row]:
    """Every self-complementary array of the box exactly once, as a flat
    tuple of its a*c entries read row by row.

    Walks the free upper rows, then the closing row below them, whose
    bounds are the closing rule: for a even the last upper row, whose
    mirrored entries sum to at least b, and for a odd the central row,
    whose mirrored entries sum to exactly b (``_decreasing_rows`` with
    ``mirrored`` b).  Every closing row the walk tries closes.  The lower
    rows are the reversed complements of the upper ones, which flattened
    is the reversed complement of the flat upper half.  Charges one unit
    per node of the free-row tree and one per array.
    """
    if a == 0:
        yield ()
        return
    exact = a % 2 == 1
    free = (a - 1) // 2

    def walk(r: int, upper: Row, bound: Row) -> Iterator[Row]:
        budget.charge()
        if r < free:
            for row in _decreasing_rows(bound):
                yield from walk(r + 1, upper + row, row)
            return
        for row in _decreasing_rows(bound, b, exact):
            budget.charge()
            half = upper if exact else upper + row
            yield upper + row + tuple(b - v for v in reversed(half))

    yield from walk(0, (), (b,) * c)


def _flipped_parity(flat: Row, b: int, h: int) -> int:
    """The parity of the cubes missing from the first h cells of a flat
    self-complementary array, h = ``_upper_cells(a, c)``: the positions
    that precede their opposite.  Each opposite pair of cube positions
    holds one cube, so this counts, mod 2, the pairs whose occupied member
    is the lexicographically larger one, the weight's parity before the
    box's reference."""
    return (b * h - sum(flat[:h])) % 2


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
    new array is then looked up among the listed ones.

    The arrays come from ``_scpp_flats``, a walk independent of the
    transfer-matrix count; a walk that lists another number of arrays than
    ``count_scpp`` counts raises ``RuntimeError``, and a neighbour missing
    from the listing raises ``KeyError``.  Each array's weight comes from its own
    entries, by ``_flipped_parity`` against the reference parity of the
    box, never from a neighbour's, so the check that every edge joins
    weights +1 and -1 can fail.  Also reports how many connected
    components the graph has (0 or 1 expected).

    Before it lists any array it charges its dominant work: the units of
    ``count_scpp``, then (a*c)//2 moves for each array counted.  The walk
    then charges its nodes to the same budget.
    """
    budget = budget or WorkBudget()
    cells = a * c
    counted = count_scpp(a, b, c, budget)
    budget.charge(counted * (cells // 2))
    if counted == 0:
        return MoveGraphReport(0, 0, 0, True)
    flats = list(_scpp_flats(a, b, c, budget))
    n = len(flats)
    if n != counted:
        raise RuntimeError(f"the move-graph walk listed {n} arrays, count_scpp counted {counted}")
    h = _upper_cells(a, c)
    reference = _reference_parity(a, b, c)
    # 0 for weight +1, 1 for weight -1
    weights = [_flipped_parity(f, b, h) ^ reference for f in flats]
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
