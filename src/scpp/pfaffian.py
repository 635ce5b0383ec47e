"""Exact Pfaffians and the bordered binomial matrices they evaluate.

Both kernels take integer entries and return an ``int``, in O(n^3) steps
of exact integer arithmetic: the Pfaffian by fraction-free skew
elimination over index pairs (Parlett-Reid, as in Wimmer, ACM TOMS 2012),
and the determinant for the Pf(M)^2 = det(M) cross-check by Bareiss
elimination, a second and separate elimination.  Each rejects a
non-integer entry before it eliminates, since its exact divisions are
floor divisions, which would silently round a rational entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from operator import mul
from typing import Sequence

from scpp.products import ParityError, check_line_lengths, middle_line_product


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


def _integer_rows(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """The rows as lists, to eliminate in place; every entry must be an int."""
    m = [list(row) for row in rows]
    if not all(isinstance(v, int) for row in m for v in row):
        raise ValueError("matrix entries must be integers")
    return m


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
    """
    m = _integer_rows(matrix.entries)
    sign, prev = 1, 1
    while m:
        j = next((j for j, v in enumerate(m[0]) if v), None)
        if j is None:
            return 0
        if j != 1:
            m[1], m[j] = m[j], m[1]
            for row in m:
                row[1], row[j] = row[j], row[1]
            sign = -sign
        p, first, second = m[0][1], m[0][2:], m[1][2:]
        m = [[(p * x - row[1] * y + row[0] * z) // prev for x, y, z in zip(row[2:], first, second)]
             for row in m[2:]]
        prev = p
    return sign * prev


def exact_determinant(rows: Sequence[Sequence[int]]) -> int:
    """Determinant by fraction-free (Bareiss) elimination with row swaps.

    Eliminates column by column, replacing the trailing block by
    (p*m[i][j] - m[i][0]*m[0][j]) // q, for p the pivot and q the one
    before; the entries are then minors of M, so the division is exact, and
    det(M) is the last pivot up to the swaps' sign.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix must be square")
    m = _integer_rows(rows)
    sign, prev = 1, 1
    while m:
        r = next((r for r, row in enumerate(m) if row[0]), None)
        if r is None:
            return 0
        if r:
            m[0], m[r] = m[r], m[0]
            sign = -sign
        (p, *top), rest = m[0], m[1:]
        m = [[(p * x - row[0] * y) // prev for x, y in zip(row[1:], top)] for row in rest]
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
    products C(top_row, b+i-k) * C(top_col, j+k-a-1) (i, j from 1)."""
    ks = range(1, kmax + 1)
    rows = [[binomial_safe(top_row, b + i - k) for k in ks] for i in range(1, a + 1)]
    cols = [[binomial_safe(top_col, j + k - a - 1) for k in ks] for j in range(1, a + 1)]
    p = [[sum(map(mul, r, c)) for c in cols] for r in rows]
    return [tuple(p[i][j] - p[j][i] for j in range(a)) for i in range(a)]


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


@dataclass(frozen=True)
class PfaffianCheck:
    """Comparison of a sign-adjusted Pfaffian with the closed-form product."""

    case: str
    a: int
    b: int
    c1: int
    c2: int
    pfaffian: int
    product: int
    match: bool


def pfaffian_check(case: str, a: int, b: int, c1: int, c2: int) -> PfaffianCheck:
    """Evaluate the case's Pfaffian and compare with the middle-line product."""
    matrix, prefactor = corollary_matrix(case, a, b, c1, c2)
    value = prefactor * pfaffian(matrix)
    product = middle_line_product(a, b, c1, c2)
    return PfaffianCheck(case, a, b, c1, c2, value, product, value == product)
