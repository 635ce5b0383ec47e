"""Exact Pfaffians and the bordered binomial matrices they evaluate.

Both kernels take integer entries and return an ``int``, in O(n^3) steps
of exact integer arithmetic: the Pfaffian by fraction-free skew
elimination over index pairs (Parlett-Reid, as in Wimmer, ACM TOMS 2012),
and the determinant for the Pf(M)^2 = det(M) cross-check by Bareiss
elimination, a second and separate elimination over the full matrix.
Each rejects a non-integer entry before it eliminates, since its exact
divisions are floor divisions, which would silently round a rational
entry.

The Pfaffian keeps only the strict upper triangle: row i holds
m[i][i+1:], and m[i][0], m[i][1] are read as -m[0][i], -m[1][i].  That
suffices because each step's update maps a skew-symmetric block to a
skew-symmetric one: exchanging i and j negates p*m[i][j] and turns each
product term into minus the other.  The core block of a bordered binomial
matrix is built from big-integer products, one per row and block of
min(a, kmax) summands (Kronecker substitution; see ``_core_rows``).

``corollary_pfaffian`` gives a case's matrix and its sign-adjusted
Pfaffian to ``scpp pfaffian`` and to the ``pfaffian`` row of
``scpp.verify.IDENTITIES``, which also takes the matrix's determinant.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from operator import sub
from typing import Iterable, Sequence

from scpp.budget import WorkBudget
from scpp.polynomials import field_reader
from scpp.products import ParityError, check_line_lengths


@dataclass(frozen=True)
class SkewSymmetricMatrix:
    """Even-dimensional exact matrix with entry(i,j) = -entry(j,i)."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        entries = tuple(tuple(row) for row in self.entries)
        object.__setattr__(self, "entries", entries)
        n = len(entries)
        if n % 2:
            raise ValueError("dimension must be even")
        for i, row in enumerate(entries):
            if len(row) != n:
                raise ValueError("matrix must be square")
            for j in range(i, n):
                if entries[i][j] != -entries[j][i]:
                    raise ValueError(f"entries ({i},{j}) and ({j},{i}) are not opposite")

    @property
    def dim(self) -> int:
        return len(self.entries)


def _integer_rows(rows: Iterable[Sequence[int]]) -> list[list[int]]:
    """The rows as lists, to eliminate in place; every entry must be an int."""
    m = [list(row) for row in rows]
    if not all(isinstance(v, int) for row in m for v in row):
        raise ValueError("matrix entries must be integers")
    return m


def _swap_second(m: list[list[int]], j: int) -> None:
    """Exchange indices 1 and j > 1 of the skew matrix whose strict upper
    triangle is m, in place, touching only the entries that move."""
    r0, r1, rj = m[0], m[1], m[j]
    r0[0], r0[j - 1] = r0[j - 1], r0[0]
    for i in range(2, j):
        ri = m[i]
        ri[j - i - 1], r1[i - 2] = -r1[i - 2], -ri[j - i - 1]
    r1[j - 2] = -r1[j - 2]
    r1[j - 1:], m[j] = rj, r1[j - 1:]


def pfaffian(matrix: SkewSymmetricMatrix) -> int:
    """Pfaffian by fraction-free skew elimination; satisfies Pf(M)^2 = det(M).

    Eliminates the index pairs (0, 1), (2, 3), ... of M.  Each step moves a
    nonzero entry of the first row into the second column, swapping two
    indices (which flips the sign), and replaces the trailing block by
    (p*m[i][j] - m[i][1]*m[0][j] + m[i][0]*m[1][j]) // q, for p the new
    pivot m[0][1] and q the one before.  The entries are then Pfaffians of
    principal minors of M, so the division is exact (the Pfaffian form of
    Sylvester's identity), and the last pivot is Pf(M) up to the swaps'
    sign.

    Only the strict upper triangle is kept and updated, with m[i][0] and
    m[i][1] read as -m[0][i] and -m[1][i]: exchanging i and j negates
    p*m[i][j] and turns each product term into minus the other, so the new
    block is skew-symmetric too.  A row whose two multipliers are 0 is only
    scaled by p/q, and kept as it is when p == q.
    """
    m = _integer_rows(row[i + 1:] for i, row in enumerate(matrix.entries))
    sign, prev = 1, 1
    while m:
        j = next((j for j, v in enumerate(m[0], 1) if v), None)
        if j is None:
            return 0
        if j != 1:
            _swap_second(m, j)
            sign = -sign
        p, first, second = m[0][0], m[0][1:], m[1]
        rest = []
        for r, row in enumerate(m[2:]):
            y, z = second[r], first[r]
            if y or z:
                row = [(p * x + y * f - z * s) // prev
                       for x, f, s in zip(row, first[r + 1:], second[r + 1:])]
            elif p != prev:
                row = [p * x // prev for x in row]
            rest.append(row)
        m, prev = rest, p
    return sign * prev


def exact_determinant(rows: Sequence[Sequence[int]]) -> int:
    """Determinant by fraction-free (Bareiss) elimination with row swaps.

    Eliminates column by column, replacing the trailing block by
    (p*m[i][j] - m[i][0]*m[0][j]) // q, for p the pivot and q the one
    before; the entries are then minors of M, so the division is exact, and
    det(M) is the last pivot up to the swaps' sign.

    Rows are scaled lazily: each is kept as (R, s), the true row being
    R * q / s.  A row whose first entry is 0 only drops it and keeps s, so
    it is not rescaled at each step it waits.  A row that is eliminated
    becomes ((p*R[j] - R[0]*m[0][j]) // s, p): those are the true entries,
    so the division is exact, and p is the next q.  The pivot row is made
    true, as R * q // s, when s != q.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix must be square")
    m = [(row, 1) for row in _integer_rows(rows)]
    sign, prev = 1, 1
    while m:
        r = next((r for r, (row, _) in enumerate(m) if row[0]), None)
        if r is None:
            return 0
        if r:
            m[0], m[r] = m[r], m[0]
            sign = -sign
        (pivot, scale), rest = m[0], m[1:]
        if scale != prev:
            pivot = [x * prev // scale for x in pivot]
        p, top = pivot[0], pivot[1:]
        m = [([(p * x - row[0] * y) // s for x, y in zip(row[1:], top)], p) if row[0]
             else (row[1:], s) for row, s in rest]
        prev = p
    return sign * prev


def binomial_safe(n: int, k: int) -> int:
    """C(n, k), with out-of-range k giving 0; negative n is rejected."""
    if n < 0:
        raise ValueError("negative upper binomial argument")
    if k < 0 or k > n:
        return 0
    return comb(n, k)


# the (a, b) parities each case covers, as its error message names them
CASE_PARITY = {
    "even-even": ((0, 0), "a and b even"),
    "a-odd": ((1, 0), "a odd and b even"),
    "ab-odd": ((1, 1), "a and b odd"),
}
CASES = tuple(CASE_PARITY)


def _check_case(case: str, a: int, b: int, c1: int, c2: int) -> None:
    if case not in CASES:
        raise ValueError(f"unknown case {case!r}; expected one of {CASES}")
    check_line_lengths(a, b, c1, c2)
    parity, needs = CASE_PARITY[case]
    if (a % 2, b % 2) != parity:
        raise ParityError(f"case {case} requires {needs}")


def _core_rows(
    a: int, b: int, kmax: int, top_row: int, top_col: int
) -> list[tuple[int, ...]]:
    """The a x a core block P - P^T, where P[i][j] sums over k = 1..kmax the
    products C(top_row, b+i-k) * C(top_col, j+k-a-1) (i, j from 1).

    Each row of P is a sum of big-integer products (Kronecker substitution),
    one per block of h = min(a, kmax) consecutive k, the last block ending
    at kmax; terms with k < 1 vanish, as j+k-a-1 < 0 there.  Integers are
    packed in little-endian fields of wb bytes, and each row of P is read
    from the bytes of its sum in one pass: for the block from k0 the
    window holds C(top_row, b+i-k0-d) in field h-1-d and the columns hold
    C(top_col, k0-a+e) in field e, so field h+j-2 of their product is the
    block's part of P[i][j].  Only binomials that some entry reads are
    packed, so the work grows with a, kmax and the entries' size, not with
    top_row or top_col.  No field read, nor one below it, carries: each sums
    at most kmax products of a row and a column binomial, so stays below
    2^w, w the bit lengths of the largest of each plus that of kmax.
    """
    if not (a and kmax):
        return [(0,) * a] * a
    r = [binomial_safe(top_row, b + m) for m in range(1 - kmax, a)]
    c = [binomial_safe(top_col, t) for t in range(kmax)]
    bits = max(r).bit_length() + max(c).bit_length() + kmax.bit_length()
    wb, read = field_reader((bits + 7) // 8, a)
    h = min(a, kmax)
    blocks = -(-kmax // h)
    pad = blocks * h - kmax  # the first block starts at k = 1 - pad
    r = b"".join(v.to_bytes(wb, "little") for v in r) + bytes(pad * wb)
    c = bytes((a - 1 + pad) * wb) + b"".join(v.to_bytes(wb, "little") for v in c)
    # block B (from k = kmax - h + 1 - B*h) reads columns from field (blocks-1-B)*h
    cols = [int.from_bytes(c[s * wb:(s + a + h - 1) * wb], "little")
            for s in range((blocks - 1) * h, -1, -h)]
    p = []
    for i in range(a):
        x = sum(int.from_bytes(r[s * wb:(s + h) * wb], "little") * col
                for s, col in zip(range(i, i + blocks * h, h), cols))
        x = x.to_bytes(max((x.bit_length() + 7) // 8, (h + a - 1) * wb), "little")
        p.append(read(x, (h - 1) * wb))
    return [tuple(map(sub, row, col)) for row, col in zip(p, zip(*p))]


def corollary_matrix(
    case: str, a: int, b: int, c1: int, c2: int
) -> tuple[SkewSymmetricMatrix, int]:
    """The bordered binomial matrix for the given parity case, with its sign.

    Returns (matrix, prefactor); the Pfaffian times the prefactor equals the
    middle-line product.  Entry (i, j) for i, j within the core block is an
    antisymmetrized sum of products of two binomials; the bordered cases
    append one extra row and column of single binomials with a zero corner.

    For the a-odd case the two binomial tops are (b+c2)/2 for the factor
    indexed like the rows and (b+c1)/2 for the factor indexed like the
    columns; the pairing is fixed numerically so the Pfaffian reproduces the
    enumeration (the transposed pairing reproduces a product that exceeds
    the total count on small boxes).
    """
    _check_case(case, a, b, c1, c2)
    if case == "even-even":
        rows = _core_rows(a, b, (a + b) // 2, (b + c1) // 2, (b + c2) // 2)
        return SkewSymmetricMatrix(tuple(rows)), 1
    if case == "a-odd":
        top_row = (b + c2) // 2
        rows = _core_rows(a, b, (a + b - 1) // 2, top_row, (b + c1) // 2)
        shift = (a + b + 1) // 2
        border = [binomial_safe(top_row, b + i - shift) for i in range(1, a + 1)]
        prefactor = (-1) ** ((a - 1) // 2)
    else:  # ab-odd
        top_row = (b + c2 - 1) // 2
        rows = _core_rows(a, b, (a + b) // 2, top_row, (b + c1 + 1) // 2)
        shift = (a + b) // 2 + 1
        border = [-binomial_safe(top_row, b + i - shift) for i in range(1, a + 1)]
        prefactor = (-1) ** ((a + 1) // 2)
    rows = [row + (x,) for row, x in zip(rows, border)]
    rows.append(tuple(-x for x in border) + (0,))
    return SkewSymmetricMatrix(tuple(rows)), prefactor


def corollary_pfaffian(
    case: str, a: int, b: int, c1: int, c2: int, budget: WorkBudget
) -> tuple[SkewSymmetricMatrix, int]:
    """The case's bordered binomial matrix and its sign-adjusted Pfaffian,
    which the corollary equates with the middle-line product.

    After the parameter checks, charges dim^3 units for the elimination,
    dim the matrix's dimension, before it builds the matrix.
    """
    _check_case(case, a, b, c1, c2)
    budget.charge((a + a % 2) ** 3)
    matrix, prefactor = corollary_matrix(case, a, b, c1, c2)
    return matrix, prefactor * pfaffian(matrix)
