import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import fresh_kept
from oracles import (
    SemistandardTableau,
    TupleMPoly,
    alternating_limit_value,
    complete_homogeneous,
    constant,
    descent_strip_count,
    enumerate_ssyt,
    lr_coefficient,
    pack,
    packed,
    poly_add,
    schur_determinant_oracle,
    skew_cells,
    substituted,
    to_q_coeffs,
    tuple_terms,
)
from scpp.budget import BudgetExceededError, WorkBudget
from scpp.partitions import contains, partitions_in_rectangle, rectangle, size
from scpp.schur import (
    _strips,
    _stride_quotient,
    alternating_point,
    hook_content_rectangular,
    schur_combination,
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
    assert schur_tableau_sum((1, 1, 1), 2) == constant(2, 0)
    assert schur_tableau_sum((), 0) == constant(0, 1)


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
    # the store bounds the terms kept, each polynomial costing its terms + 1,
    # and drops the least recently used; the descent keeps nothing between calls
    with fresh_kept(10) as store:
        for k in range(1, 6):
            schur_tableau_sum((k,), 1)  # one term each
        schur_tableau_sum((1,), 1)  # now the most recently used
        schur_tableau_sum((6,), 1)
        assert store.held == 10
        assert store.get(("schur", (1,), 1)) is not None
        assert store.get(("schur", (2,), 1)) is None
    # a polynomial with more terms than the bound is built again, and its
    # second build charges what the first did
    with fresh_kept(100) as store:
        kept = schur_tableau_sum((2, 1), 3)  # 7 terms
        builds = [WorkBudget() for _ in range(2)]
        first, second = (schur_tableau_sum((4, 2), 5, budget) for budget in builds)
        assert len(first.terms) == 185 and first == second and first is not second
        assert [budget.used for budget in builds] == [descent_strip_count((4, 2), 5)] * 2
        assert store.held == len(kept.terms) + 1
        assert schur_tableau_sum((2, 1), 3) is kept


def test_a_kept_polynomial_charges_the_strips_of_its_build(kept):
    # so no charge, and no budget-exceeded outcome, depends on earlier calls
    listed = descent_strip_count((3, 2, 1), 4)
    built, warm = WorkBudget(), WorkBudget()
    assert schur_tableau_sum((3, 2, 1), 4, built) is schur_tableau_sum((3, 2, 1), 4, warm)
    assert built.used == warm.used == listed
    with pytest.raises(BudgetExceededError, match=f"{listed} nodes > cap {listed - 1}"):
        schur_tableau_sum((3, 2, 1), 4, WorkBudget(listed - 1))
    with fresh_kept():
        with pytest.raises(BudgetExceededError, match=f"{listed} nodes > cap {listed - 1}"):
            schur_tableau_sum((3, 2, 1), 4, WorkBudget(listed - 1))


def test_combination_is_the_weighted_sum_of_its_shapes():
    # s_(2,1) * (3 x_4 + x_4^2) + s_(1,1) * x_4 in x_1..x_3, then x_4
    weights = {(2, 1): {1: 3, 2: 1}, (1, 1): {1: 1}}
    terms = schur_combination(weights, 3, trailing=1)
    expected = {}
    for shape, weight in weights.items():
        for key, coeff in schur_tableau_sum(shape, 3).terms.items():
            for e, c in weight.items():
                expected[(key << 32) + e] = expected.get((key << 32) + e, 0) + coeff * c
    assert terms == expected
    assert weights == {(2, 1): {1: 3, 2: 1}, (1, 1): {1: 1}}  # read, not changed
    assert schur_combination({(1, 1, 1): {0: 1}}, 2) == {}  # more rows than variables
    assert schur_combination({}, 3) == {}


def test_the_descent_charges_every_strip_it_lists():
    for lam, n in product(partitions_in_rectangle(3, 3), range(6)):
        listed = descent_strip_count(lam, n)
        by_terms, by_value = WorkBudget(), WorkBudget()
        terms = schur_combination({lam: {0: 1}}, n, budget=by_terms)
        assert terms == schur_tableau_sum(lam, n).terms
        schur_value(lam, (1,) * n, by_value)
        assert by_terms.used == by_value.used == listed, (lam, n)
        if listed > 1:
            with pytest.raises(BudgetExceededError):
                schur_combination({lam: {0: 1}}, n, budget=WorkBudget(listed - 1))
            with pytest.raises(BudgetExceededError):
                schur_value(lam, (1,) * n, WorkBudget(listed - 1))


def test_a_level_lists_the_strips_it_charges():
    # the one strip listing of the descent and of the evaluation sweep: the
    # nu inside mu with mu/nu a horizontal strip and at most m - 1 rows
    for mu, m in product(partitions_in_rectangle(4, 3), range(1, 6)):
        budget = WorkBudget()
        listed = _strips(mu, m, budget)
        # no two cells of mu/nu in one column
        expected = [
            nu for nu in partitions_in_rectangle(m - 1, 3)
            if contains(mu, nu) and len({c for _, c in skew_cells(mu, nu)}) == size(mu) - size(nu)
        ]
        assert sorted(listed) == sorted((nu, size(mu) - size(nu)) for nu in expected), (mu, m)
        assert budget.used == len(expected)


@pytest.mark.parametrize("lam", [(), (1,), (2, 1), (2, 2), (3, 1, 1)])
@pytest.mark.parametrize("n", [0, 2, 3])
def test_determinant_oracle_sample(lam, n):
    assert schur_determinant_oracle(lam, n) == schur_tableau_sum(lam, n)


def test_complete_homogeneous():
    assert complete_homogeneous(0, 2) == constant(2, 1)
    assert complete_homogeneous(2, 2) == packed(2, {(2, 0): 1, (1, 1): 1, (0, 2): 1})
    assert complete_homogeneous(-1, 2) == constant(2, 0)
    assert complete_homogeneous(3, 0) == constant(0, 0)


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
            rhs = constant(n, 0)
            for rho in partitions_in_rectangle(n, width):
                if size(rho) != total:
                    continue
                mult = lr_coefficient(mu, nu, rho)
                if mult:
                    rhs = poly_add(rhs, constant(n, mult) * schur_tableau_sum(rho, n))
            assert lhs == rhs, (mu, nu)


def test_lr_product_expansion_small_n():
    for n in range(4):
        shapes = list(partitions_in_rectangle(2, 2))
        for mu in shapes:
            for nu in shapes:
                lhs = schur_tableau_sum(mu, n) * schur_tableau_sum(nu, n)
                total = sum(mu) + sum(nu)
                rhs = constant(n, 0)
                for rho in partitions_in_rectangle(n, 4):
                    if size(rho) != total:
                        continue
                    mult = lr_coefficient(mu, nu, rho)
                    if mult:
                        rhs = poly_add(rhs, constant(n, mult) * schur_tableau_sum(rho, n))
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


def test_schur_value_matches_the_polynomial_at_rational_points():
    # every shape in the 4 x 4 box, n <= 5, at points mixing signs and fractions
    points = [(Fraction(1, 2), -2, Fraction(-3, 5), 1, Fraction(7, 3)), (-1, Fraction(2, 3), 3, 0, -1)]
    for lam, n in product(partitions_in_rectangle(4, 4), range(6)):
        poly = schur_tableau_sum(lam, n)
        for point in points:
            assert schur_value(lam, point[:n]) == substituted(poly, point[:n]), (lam, point[:n])


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
