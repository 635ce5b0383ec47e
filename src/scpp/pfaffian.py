"""Exact Pfaffians and the bordered binomial matrices they evaluate.

The Pfaffian is computed by recursive expansion along the first remaining
index, memoized over index subsets, entirely in exact arithmetic.  An
independent fraction-based determinant is provided for the Pf(M)^2 =
det(M) cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Sequence

from scpp.products import ParityError, check_line_lengths, middle_line_product

Scalar = int | Fraction


@dataclass(frozen=True)
class SkewSymmetricMatrix:
    """Even-dimensional exact matrix with entry(i,j) = -entry(j,i)."""

    entries: tuple[tuple[Scalar, ...], ...]

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


def pfaffian(matrix: SkewSymmetricMatrix) -> Scalar:
    """Pfaffian via first-row expansion; satisfies Pf(M)^2 = det(M)."""
    # the memo is reachable only from this call chain, so it is freed as soon
    # as the call returns, without waiting for the cyclic collector
    return _pf((1 << matrix.dim) - 1, matrix.entries, {})


def _pf(
    indices: int, entries: tuple[tuple[Scalar, ...], ...], cache: dict[int, Scalar]
) -> Scalar:
    """Pfaffian of the principal submatrix on the bit set ``indices``,
    expanded along its lowest index and memoized in ``cache``."""
    if not indices:
        return 1
    if indices in cache:
        return cache[indices]
    first_bit = indices & -indices
    row = entries[first_bit.bit_length() - 1]
    rest = indices ^ first_bit
    total: Scalar = 0
    sign = 1
    others = rest
    while others:
        bit = others & -others
        others ^= bit
        coeff = row[bit.bit_length() - 1]
        if coeff:
            term = coeff * _pf(rest ^ bit, entries, cache)
            total = total + term if sign > 0 else total - term
        sign = -sign
    cache[indices] = total
    return total


def exact_determinant(rows: Sequence[Sequence[Scalar]]) -> Fraction:
    """Determinant by Gaussian elimination over exact rationals.

    Independent of the Pfaffian recursion; used to check Pf(M)^2 = det(M).
    """
    n = len(rows)
    m = [[Fraction(v) for v in row] for row in rows]
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col] * inv
            if factor:
                for k in range(col, n):
                    m[r][k] -= factor * m[col][k]
    return det


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
    """The a x a core block: entry (i, j) antisymmetrizes a sum over k of
    products of two binomials with tops ``top_row`` and ``top_col``."""

    def entry(i: int, j: int) -> int:
        total = 0
        for k in range(1, kmax + 1):
            total += binomial_safe(top_row, b + i - k) * binomial_safe(
                top_col, j + k - a - 1
            )
            total -= binomial_safe(top_row, b + j - k) * binomial_safe(
                top_col, i + k - a - 1
            )
        return total

    return [tuple(entry(i, j) for j in range(1, a + 1)) for i in range(1, a + 1)]


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
