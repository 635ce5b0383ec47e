import gc
import random
import tracemalloc
from fractions import Fraction

import pytest

from scpp.pfaffian import (
    SkewSymmetricMatrix,
    binomial_safe,
    corollary_matrix,
    exact_determinant,
    pfaffian,
    pfaffian_check,
)
from scpp.products import ParityError, middle_line_product


@pytest.mark.parametrize(
    ("n", "k", "expected"),
    [(4, 2, 6), (3, -1, 0), (3, 5, 0), (0, 0, 1), (5, 0, 1)],
)
def test_binomial_safe(n, k, expected):
    assert binomial_safe(n, k) == expected


def test_binomial_safe_rejects_negative_n():
    with pytest.raises(ValueError):
        binomial_safe(-1, 0)


def _skew(rows):
    return SkewSymmetricMatrix(tuple(tuple(r) for r in rows))


def test_matrix_validation():
    with pytest.raises(ValueError):
        _skew([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])  # odd dimension
    with pytest.raises(ValueError):
        _skew([[0, 1], [1, 0]])  # not antisymmetric
    with pytest.raises(ValueError):
        _skew([[1, 1], [-1, 0]])  # nonzero diagonal


def test_pfaffian_base_cases():
    assert pfaffian(_skew([])) == 1
    assert pfaffian(_skew([[0, 7], [-7, 0]])) == 7


def test_pfaffian_three_term_expansion():
    # distinct primes catch any sign slip: a12 a34 - a13 a24 + a14 a23
    a12, a13, a14, a23, a24, a34 = 2, 3, 5, 7, 11, 13
    m = _skew(
        [
            [0, a12, a13, a14],
            [-a12, 0, a23, a24],
            [-a13, -a23, 0, a34],
            [-a14, -a24, -a34, 0],
        ]
    )
    assert pfaffian(m) == a12 * a34 - a13 * a24 + a14 * a23 == 28


def _random_skew(rng, dim, denominators=True):
    rows = [[Fraction(0)] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            v = Fraction(rng.randint(-9, 9), rng.randint(1, 4) if denominators else 1)
            rows[i][j] = v
            rows[j][i] = -v
    return _skew(rows)


def test_pfaffian_squared_is_determinant():
    rng = random.Random(990817)
    for dim in (2, 4, 6, 8):
        for _ in range(6):
            m = _random_skew(rng, dim)
            assert pfaffian(m) ** 2 == exact_determinant(m.entries)


def test_pfaffian_frees_its_memo_on_return():
    # with the cyclic collector off, a memo caught in a reference cycle would
    # outlive the call: tens of KB for this matrix of dimension 14
    matrix = corollary_matrix("even-even", 14, 14, 4, 2)[0]
    pfaffian(matrix)
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        pfaffian(matrix)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        gc.enable()
    assert retained < 2048


def test_determinant_of_odd_skew_matrix_vanishes():
    rng = random.Random(5)
    rows = [[Fraction(0)] * 3 for _ in range(3)]
    rows[0][1], rows[1][0] = Fraction(2), Fraction(-2)
    rows[0][2], rows[2][0] = Fraction(1), Fraction(-1)
    rows[1][2], rows[2][1] = Fraction(4), Fraction(-4)
    assert exact_determinant(rows) == 0


def test_pfaffian_block_diagonal_multiplies():
    rng = random.Random(424242)
    for _ in range(50):
        d1, d2 = rng.choice([2, 4]), rng.choice([2, 4])
        m1 = _random_skew(rng, d1)
        m2 = _random_skew(rng, d2)
        dim = d1 + d2
        rows = [[Fraction(0)] * dim for _ in range(dim)]
        for i in range(d1):
            for j in range(d1):
                rows[i][j] = m1.entries[i][j]
        for i in range(d2):
            for j in range(d2):
                rows[d1 + i][d1 + j] = m2.entries[i][j]
        assert pfaffian(_skew(rows)) == pfaffian(m1) * pfaffian(m2)


def test_pfaffian_row_column_scaling():
    rng = random.Random(7321)
    for dim in (2, 4, 6):
        for _ in range(4):
            m = _random_skew(rng, dim)
            i = rng.randrange(dim)
            s = Fraction(rng.randint(1, 5), rng.randint(1, 3))
            rows = [list(r) for r in m.entries]
            for j in range(dim):
                rows[i][j] *= s
                if j != i:
                    rows[j][i] *= s
            assert pfaffian(_skew(rows)) == s * pfaffian(m)


def test_corollary_matrix_diagonal_zero_and_antisymmetry():
    m, sign = corollary_matrix("even-even", 4, 2, 4, 2)
    assert sign == 1
    for i in range(m.dim):
        assert m.entries[i][i] == 0


@pytest.mark.parametrize(
    ("case", "a", "b", "c1", "c2", "value"),
    [
        ("even-even", 2, 2, 2, 2, 4),
        ("even-even", 2, 2, 6, 2, 8),
        ("a-odd", 1, 2, 2, 2, 2),
        ("a-odd", 3, 2, 6, 2, 12),
        ("ab-odd", 1, 1, 2, 0, 1),
        ("ab-odd", 3, 3, 4, 2, 18),
    ],
)
def test_pfaffian_check_frozen_values(case, a, b, c1, c2, value):
    check = pfaffian_check(case, a, b, c1, c2)
    assert check.match
    assert check.pfaffian == value == check.product
    assert check.product == middle_line_product(a, b, c1, c2)


def test_corollary_matrix_rejects_bad_parities():
    with pytest.raises(ParityError):
        corollary_matrix("even-even", 3, 2, 2, 2)  # odd dimension
    with pytest.raises(ParityError):
        corollary_matrix("a-odd", 2, 2, 2, 2)
    with pytest.raises(ParityError):
        corollary_matrix("ab-odd", 3, 2, 2, 2)
    with pytest.raises(ParityError):
        corollary_matrix("even-even", 2, 2, 3, 1)
    with pytest.raises(ValueError):
        corollary_matrix("even-even", 2, 2, 2, 4)  # c1 < c2
    with pytest.raises(ValueError):
        corollary_matrix("mystery", 2, 2, 2, 2)


def test_pfaffian_check_small_grid():
    for case, apar, bpar in (("even-even", 0, 0), ("a-odd", 1, 0), ("ab-odd", 1, 1)):
        for a in range(apar, 5, 2):
            for b in range(bpar, 5, 2):
                for c1 in range(0, 7, 2):
                    for c2 in range(0, c1 + 1, 2):
                        check = pfaffian_check(case, a, b, c1, c2)
                        assert check.match, check
