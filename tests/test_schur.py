import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    SemistandardTableau,
    TupleMPoly,
    alternating_limit_value,
    complete_homogeneous,
    enumerate_ssyt,
    lr_coefficient,
    pack,
    packed,
    poly_add,
    schur_determinant_oracle,
    substituted,
    to_q_coeffs,
    tuple_terms,
)
from scpp.partitions import partitions_in_rectangle, rectangle, size
from scpp.polynomials import MPoly
from scpp.schur import (
    CACHE_SIZE,
    _schur_sum,
    _stride_quotient,
    alternating_point,
    hook_content_rectangular,
    schur_tableau_sum,
    schur_value,
    specialize_alternating,
)


def test_tableau_validation():
    SemistandardTableau((2, 1), 2, ((1, 1), (2,)))
    with pytest.raises(ValueError):  # weak row violated
        SemistandardTableau((2,), 2, ((2, 1),))
    with pytest.raises(ValueError):  # strict column violated
        SemistandardTableau((1, 1), 2, ((1,), (1,)))
    with pytest.raises(ValueError):  # entry out of range
        SemistandardTableau((1,), 2, ((3,),))


def test_tableau_content():
    t = SemistandardTableau((2, 1), 3, ((1, 3), (2,)))
    assert t.content() == (1, 1, 1)


@pytest.mark.parametrize(
    ("shape", "max_entry", "expected"),
    [
        ((1,), 2, 2),
        ((2, 2), 2, 1),  # exhaustive listing: only rows 11/22
        ((1, 1, 1), 2, 0),  # a strict column of height 3 needs 3 values
        ((), 3, 1),  # the empty shape has exactly one (empty) filling
    ],
)
def test_enumerate_ssyt_counts(shape, max_entry, expected):
    assert sum(1 for _ in enumerate_ssyt(shape, max_entry)) == expected


def test_enumerate_ssyt_yields_distinct_valid_tableaux():
    for shape, max_entry in [((3, 2), 3), ((2, 2, 1), 4), ((3, 1, 1), 3), ((2, 1), 1)]:
        # every filling of the cells with values in [1, max_entry] that the
        # tableau class accepts, listed without the generator's pruning
        valid = set()
        for values in product(range(1, max_entry + 1), repeat=sum(shape)):
            it = iter(values)
            rows = tuple(tuple(next(it) for _ in range(width)) for width in shape)
            try:
                SemistandardTableau(shape, max_entry, rows)
            except ValueError:
                continue
            valid.add(rows)
        tableaux = list(enumerate_ssyt(shape, max_entry))
        assert all(t.shape == shape for t in tableaux)
        listed = [t.rows for t in tableaux]
        assert len(listed) == len(set(listed))
        assert set(listed) == valid, shape


def test_schur_examples():
    assert schur_tableau_sum((1,), 2) == packed(2, {(1, 0): 1, (0, 1): 1})
    assert schur_tableau_sum((2, 1), 2) == packed(2, {(2, 1): 1, (1, 2): 1})
    assert schur_tableau_sum((1, 1, 1), 2) == MPoly.zero(2)
    assert schur_tableau_sum((), 0) == MPoly.const(0, 1)


def test_schur_sum_matches_tableau_monomials():
    # the branching rule against the generating function of the tableau
    # stream itself, for every shape in the 4x4 box and n <= 6
    for lam, n in product(partitions_in_rectangle(4, 4), range(7)):
        contents = Counter(pack(t.content()) for t in enumerate_ssyt(lam, n))
        assert contents == schur_tableau_sum(lam, n).terms, (lam, n)


def test_shape_parts_stay_below_the_exponent_limit():
    # the largest part is the largest exponent; fields hold exponents below 2**31
    with pytest.raises(ValueError):
        schur_tableau_sum((2**31,), 1)
    with pytest.raises(ValueError):
        schur_tableau_sum((2**31, 1), 1)  # refused even where the polynomial is zero
    assert schur_tableau_sum((40000,), 1) == packed(1, {(40000,): 1})


def test_polynomial_caches_are_bounded():
    assert _schur_sum.cache_info().maxsize == CACHE_SIZE


@pytest.mark.parametrize("lam", [(), (1,), (2, 1), (2, 2), (3, 1, 1)])
@pytest.mark.parametrize("n", [0, 2, 3])
def test_determinant_oracle_sample(lam, n):
    assert schur_determinant_oracle(lam, n) == schur_tableau_sum(lam, n)


def test_complete_homogeneous():
    assert complete_homogeneous(0, 2) == MPoly.const(2, 1)
    assert complete_homogeneous(2, 2) == packed(2, {(2, 0): 1, (1, 1): 1, (0, 2): 1})
    assert complete_homogeneous(-1, 2) == MPoly.zero(2)
    assert complete_homogeneous(3, 0) == MPoly.zero(0)


@pytest.mark.parametrize(
    ("mu", "nu", "rho", "expected"),
    [
        ((1,), (1,), (2,), 1),
        ((1,), (1,), (1, 1), 1),
        ((2, 1), (2, 1), (3, 2, 1), 2),  # brute force over lattice-word fillings
        ((2,), (1,), (1, 1), 0),  # mu not contained
        ((1,), (1,), (3,), 0),  # size mismatch
        ((2, 1), (), (2, 1), 1),
    ],
)
def test_lr_coefficient(mu, nu, rho, expected):
    assert lr_coefficient(mu, nu, rho) == expected


def test_lr_product_expansion_3x3_grid():
    # s_mu * s_nu == sum of LR multiplicities times s_rho, in 4 variables
    n = 4
    shapes = list(partitions_in_rectangle(3, 3))
    for mu in shapes:
        for nu in shapes:
            lhs = schur_tableau_sum(mu, n) * schur_tableau_sum(nu, n)
            total = sum(mu) + sum(nu)
            width = (mu[0] if mu else 0) + (nu[0] if nu else 0)
            rhs = MPoly.zero(n)
            for rho in partitions_in_rectangle(n, width):
                if size(rho) != total:
                    continue
                mult = lr_coefficient(mu, nu, rho)
                if mult:
                    rhs = poly_add(rhs, MPoly.const(n, mult) * schur_tableau_sum(rho, n))
            assert lhs == rhs, (mu, nu)


def test_lr_product_expansion_small_n():
    for n in range(4):
        shapes = list(partitions_in_rectangle(2, 2))
        for mu in shapes:
            for nu in shapes:
                lhs = schur_tableau_sum(mu, n) * schur_tableau_sum(nu, n)
                total = sum(mu) + sum(nu)
                rhs = MPoly.zero(n)
                for rho in partitions_in_rectangle(n, 4):
                    if size(rho) != total:
                        continue
                    mult = lr_coefficient(mu, nu, rho)
                    if mult:
                        rhs = poly_add(rhs, MPoly.const(n, mult) * schur_tableau_sum(rho, n))
                assert lhs == rhs, (mu, nu, n)


def test_hook_content_examples():
    assert hook_content_rectangular(1, 1, 2) == [0, 1, 1]  # q + q^2
    assert hook_content_rectangular(0, 3, 1) == [1]
    assert hook_content_rectangular(3, 0, 0) == [1]
    assert hook_content_rectangular(2, 3, 2) == []  # fewer variables than rows
    assert sum(hook_content_rectangular(2, 2, 4)) == 20


def test_hook_content_matches_principal_substitution():
    for gamma in range(5):
        for alpha in range(5):
            for n in range(8):
                product_form = hook_content_rectangular(gamma, alpha, n)
                substituted = to_q_coeffs(
                    schur_tableau_sum(rectangle(alpha, gamma), n), list(range(1, n + 1))
                )
                assert product_form == substituted, (gamma, alpha, n)


def test_stride_quotient_divides_exactly():
    # (1 - q^6) / (1 - q^2) = 1 + q^2 + q^4
    assert _stride_quotient([6], [2]) == [1, 0, 1, 0, 1]
    # (1 - q^2)(1 - q^3) / ((1 - q)(1 - q)) = (1 + q)(1 + q + q^2)
    assert _stride_quotient([2, 3], [1, 1]) == [1, 2, 2, 1]
    assert _stride_quotient([], []) == [1]


def test_stride_quotient_rejects_an_inexact_division():
    with pytest.raises(ValueError, match="division is not exact"):
        _stride_quotient([3], [2])
    # a divisor of higher degree than the dividend
    with pytest.raises(ValueError, match="division is not exact"):
        _stride_quotient([2], [3])


def test_alternating_point():
    assert alternating_point(4) == (1, -1, 1, -1)
    assert alternating_point(0) == ()


@pytest.mark.parametrize(
    ("gamma", "alpha", "m", "expected"),
    [
        (0, 2, 5, 1),
        (2, 2, 4, 4),
        (1, 1, 2, 0),
        (1, 2, 3, -1),  # sign is genuinely negative here
    ],
)
def test_specialize_alternating(gamma, alpha, m, expected):
    assert specialize_alternating(gamma, alpha, m) == expected


def test_alternating_limit_oracle_agrees_on_grid():
    for gamma in range(4):
        for alpha in range(4):
            for m in range(8):
                assert specialize_alternating(gamma, alpha, m) == alternating_limit_value(
                    gamma, alpha, m
                ), (gamma, alpha, m)


def test_schur_symmetry_at_permuted_points():
    rng = random.Random(20250809)
    for lam, n in [((2, 1), 3), ((2, 2), 4), ((3, 1), 3)]:
        poly = schur_tableau_sum(lam, n)
        for _ in range(20):
            point = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
            shuffled = point[:]
            rng.shuffle(shuffled)
            assert substituted(poly, point) == substituted(poly, shuffled)
            assert schur_value(lam, point) == schur_value(lam, shuffled) == substituted(poly, point)


# the value kernel against the polynomial route

coordinates = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.fractions(min_value=-3, max_value=3, max_denominator=5),
)


@given(
    st.sampled_from(list(partitions_in_rectangle(4, 4))),
    st.lists(coordinates, min_size=0, max_size=6),
)
def test_schur_value_matches_the_polynomial_at_a_point(lam, point):
    n = len(point)
    oracle = TupleMPoly(n, tuple_terms(schur_tableau_sum(lam, n))).evaluate(point)
    value = schur_value(lam, point)
    assert value == oracle
    if all(isinstance(x, int) for x in point):
        assert isinstance(value, int)


def test_schur_value_at_ones_counts_tableaux():
    for lam, n in product(partitions_in_rectangle(3, 3), range(6)):
        assert schur_value(lam, (1,) * n) == sum(1 for _ in enumerate_ssyt(lam, n)), (lam, n)


def test_schur_value_edge_cases():
    assert schur_value((), ()) == 1
    assert schur_value((), (Fraction(1, 2), -3)) == 1
    assert schur_value((1, 1, 1), (1, 2)) == 0  # more rows than variables
    assert schur_value((2, 1, 0), (1, 1)) == schur_value((2, 1), (1, 1)) == 2
    assert schur_value((1,), (Fraction(1, 2), Fraction(1, 3))) == Fraction(5, 6)


@pytest.mark.parametrize(
    ("lam", "n"),
    [((-1,), 1), ((1, 2), 2), ((2**31,), 1), ((2**31, 1), 1), ((2**31, 1), 0), ((1, 0, 1), 3)],
)
def test_both_entry_points_refuse_the_same_shapes(lam, n):
    with pytest.raises(ValueError) as by_poly:
        schur_tableau_sum(lam, n)
    with pytest.raises(ValueError) as by_value:
        schur_value(lam, (1,) * n)
    assert str(by_value.value) == str(by_poly.value)
