from itertools import permutations, product

import pytest

from scpp.budget import BudgetExceededError, WorkBudget
from scpp.partitions import rectangle
from scpp.plane_partitions import (
    PlanePartition,
    SignedCount,
    check_move_graph,
    count_pp,
    count_scpp,
    count_scpp_middle_line,
    count_scpp_signed,
    enumerate_pp,
    enumerate_scpp,
    flipped_pair_count,
    half_full,
    is_self_complementary,
    middle_line_constraint,
    move_neighbors,
    pp_to_tableau,
    tableau_to_pp,
    weight,
)
from scpp.products import ParityError, box_count, sc_count
from scpp.schur import enumerate_ssyt

# 4x5 array with height bound 3 whose opposite entries sum to 3
SC_4x5 = PlanePartition.from_rows(
    [
        (3, 3, 2, 2, 2),
        (3, 2, 2, 1, 0),
        (3, 2, 1, 1, 0),
        (1, 1, 1, 0, 0),
    ],
    height_bound=3,
)

# 2x8 array with height bound 4; the middle line for (c1, c2) = (10, 6)
# pins entry (0, 4) to be at least 2
SC_2x8 = PlanePartition.from_rows(
    [(4, 3, 3, 3, 3, 3, 2, 1), (3, 2, 1, 1, 1, 1, 1, 0)],
    height_bound=4,
)


def test_validation_rejects_bad_grids():
    with pytest.raises(ValueError):
        PlanePartition.from_rows([(1, 2)], 2)  # row increases
    with pytest.raises(ValueError):
        PlanePartition.from_rows([(1,), (2,)], 2)  # column increases
    with pytest.raises(ValueError):
        PlanePartition.from_rows([(3,)], 2)  # above height bound
    with pytest.raises(ValueError):
        PlanePartition.from_rows([(1, 0), (1,)], 2)  # ragged


@pytest.mark.parametrize(
    ("a", "b", "c", "expected"),
    [(1, 1, 1, 2), (2, 2, 2, 20), (3, 0, 4, 1), (0, 5, 5, 1), (3, 3, 3, 980)],
)
def test_enumerate_pp_counts(a, b, c, expected):
    arrays = list(enumerate_pp(a, b, c))
    assert len(arrays) == expected
    assert len({pp.entries for pp in arrays}) == expected
    assert count_pp(a, b, c) == expected


def test_count_pp_matches_box_product_up_to_3():
    for a in range(4):
        for b in range(4):
            for c in range(4):
                assert count_pp(a, b, c) == box_count(a, b, c)


def test_is_self_complementary():
    assert is_self_complementary(SC_4x5)
    assert is_self_complementary(SC_2x8)
    zero = PlanePartition.from_rows([(0, 0), (0, 0)], 2)
    assert not is_self_complementary(zero)
    flat = PlanePartition.from_rows([(1, 1), (1, 1)], 2)
    assert is_self_complementary(flat)


def test_half_full():
    assert half_full(2, 2, 2).entries == ((1, 1), (1, 1))
    assert half_full(2, 3, 2).entries == ((2, 1), (2, 1))
    assert half_full(2, 3, 1).entries == ((2,), (1,))  # splits along the rows
    with pytest.raises(ParityError):
        half_full(1, 1, 1)


def test_half_full_is_self_complementary_and_weight_one():
    for a in range(5):
        for b in range(5):
            for c in range(5):
                if a % 2 and b % 2 and c % 2:
                    continue
                reference = half_full(a, b, c)
                assert is_self_complementary(reference)
                assert weight(reference) == 1


def _flipped_pairs_by_cubes(pp):
    # independent oracle: build the cube set and inspect each opposite pair
    a, c, b = pp.rows, pp.cols, pp.height_bound
    cubes = {
        (i, j, k)
        for i in range(1, a + 1)
        for j in range(1, c + 1)
        for k in range(1, pp.entries[i - 1][j - 1] + 1)
    }
    count = 0
    for i in range(1, a + 1):
        for j in range(1, c + 1):
            for k in range(1, b + 1):
                opp = (a + 1 - i, c + 1 - j, b + 1 - k)
                if (i, j, k) < opp and (i, j, k) not in cubes:
                    count += 1
    return count


def test_flipped_pair_count_matches_cube_oracle():
    for a, b, c in [(2, 2, 2), (2, 3, 3), (3, 2, 2), (1, 2, 2), (2, 1, 3)]:
        for pp in enumerate_scpp(a, b, c):
            assert flipped_pair_count(pp) == _flipped_pairs_by_cubes(pp)


def test_weight_requires_self_complementary():
    zero = PlanePartition.from_rows([(0, 0), (0, 0)], 2)
    with pytest.raises(ValueError):
        weight(zero)


def test_weight_flips_across_every_move():
    for a, b, c in [(2, 2, 2), (2, 2, 3), (3, 2, 2), (2, 3, 3)]:
        for pp in enumerate_scpp(a, b, c):
            w = weight(pp)
            for nb in move_neighbors(pp):
                assert is_self_complementary(nb)
                assert weight(nb) == -w


def test_signed_count_2_2_2():
    sc = count_scpp_signed(2, 2, 2)
    assert (sc.positive, sc.negative) == (3, 1)
    assert abs(sc.signed_total) == 2  # the all-even magnitude B(1,1,1)


def test_signed_count_examples():
    assert count_scpp_signed(2, 1, 1).signed_total == 1
    assert count_scpp_signed(1, 2, 2).signed_total == 0
    assert abs(count_scpp_signed(2, 3, 3).signed_total) == 1
    assert count_scpp_signed(1, 1, 1) == type(count_scpp_signed(1, 1, 1))(0, 0)


def test_signed_total_magnitude_is_box_symmetric():
    for a in range(5):
        for b in range(5):
            for c in range(5):
                if a % 2 and b % 2 and c % 2:
                    continue
                reference = abs(count_scpp_signed(a, b, c).signed_total)
                for perm in permutations((a, b, c)):
                    assert abs(count_scpp_signed(*perm).signed_total) == reference


def test_signed_count_is_the_tally_of_weights():
    # the half-level parity count against weight() on every assembled array
    boxes = [t for t in product(range(5), repeat=3) if not all(side % 2 for side in t)]
    assert len(boxes) == 117
    for a, b, c in boxes:
        weights = [weight(pp) for pp in enumerate_scpp(a, b, c)]
        expected = SignedCount(weights.count(1), weights.count(-1))
        assert count_scpp_signed(a, b, c) == expected, (a, b, c)


@pytest.mark.parametrize(
    ("a", "b", "c", "expected"),
    [(2, 2, 2, 4), (1, 1, 1, 0), (2, 1, 1, 1), (3, 2, 3, 9), (0, 3, 3, 1)],
)
def test_count_scpp(a, b, c, expected):
    assert count_scpp(a, b, c) == expected
    arrays = list(enumerate_scpp(a, b, c))
    assert len(arrays) == expected
    assert all(is_self_complementary(pp) for pp in arrays)


def test_count_scpp_matches_product_small():
    for a in range(5):
        for b in range(5):
            for c in range(5):
                assert count_scpp(a, b, c) == sc_count(a, b, c)


def test_middle_line_constraint_even_even():
    assert middle_line_constraint(SC_2x8, 10, 6)  # entry (0,4) = 3 >= 2
    low = PlanePartition.from_rows(
        [(4, 4, 4, 4, 1, 1, 1, 0), (4, 3, 3, 3, 0, 0, 0, 0)],
        height_bound=4,
    )
    assert is_self_complementary(low)
    assert not middle_line_constraint(low, 10, 6)  # entry (0,4) = 1 < 2


def test_middle_line_constraint_degenerate_equal_widths():
    for pp in enumerate_scpp(2, 2, 2):
        assert middle_line_constraint(pp, 2, 2)
    for pp in enumerate_scpp(3, 2, 2):
        assert middle_line_constraint(pp, 2, 2)


def test_middle_line_constraint_rejects_bad_input():
    with pytest.raises(ValueError):
        middle_line_constraint(SC_2x8, 6, 10)  # c1 < c2
    with pytest.raises(ValueError):
        middle_line_constraint(SC_2x8, 12, 6)  # wrong column count
    zero = PlanePartition.from_rows([(0, 0), (0, 0)], 2)
    with pytest.raises(ValueError):
        middle_line_constraint(zero, 2, 2)  # not self-complementary
    odd = next(iter(enumerate_scpp(3, 3, 4)))
    with pytest.raises(ParityError):
        middle_line_constraint(odd, 6, 2)  # odd/odd with a real segment


@pytest.mark.parametrize(
    ("a", "b", "c1", "c2", "expected"),
    [
        # hand-enumerated counts, cross-checked against the closed product
        (2, 2, 4, 0, 3),
        (2, 2, 6, 2, 8),
        (3, 2, 6, 2, 12),
        (3, 3, 4, 2, 18),
        (1, 1, 2, 0, 1),
        (3, 1, 2, 0, 2),
        (2, 2, 2, 2, 4),
    ],
)
def test_count_scpp_middle_line_frozen(a, b, c1, c2, expected):
    assert count_scpp_middle_line(a, b, c1, c2) == expected


def test_count_scpp_middle_line_is_the_tally_of_middle_line_constraint():
    # the half-level count against middle_line_constraint() on every
    # assembled array; odd/odd tuples only where the constraint is vacuous
    tuples = [
        (a, b, c1, c2)
        for a, b, c1, c2 in product(range(6), range(5), range(0, 7, 2), range(0, 7, 2))
        if c2 <= c1 and not (a % 2 == 0 and b % 2) and (a % 2 == 0 or b % 2 == 0 or c1 == c2)
    ]
    assert len(tuples) == 204
    for a, b, c1, c2 in tuples:
        arrays = enumerate_scpp(a, b, (c1 + c2) // 2)
        expected = sum(1 for pp in arrays if middle_line_constraint(pp, c1, c2))
        assert count_scpp_middle_line(a, b, c1, c2) == expected, (a, b, c1, c2)


def test_count_scpp_middle_line_degenerate_is_unconstrained():
    # with equal even widths the box side is that width and nothing is pinned
    for a, b, s in [(2, 2, 4), (3, 2, 2), (3, 3, 2), (2, 4, 2), (2, 2, 6)]:
        assert count_scpp_middle_line(a, b, s, s) == count_scpp(a, b, s)


def test_count_scpp_middle_line_parity_errors():
    with pytest.raises(ParityError):
        count_scpp_middle_line(2, 3, 4, 2)  # a even, b odd not covered
    with pytest.raises(ParityError):
        count_scpp_middle_line(2, 2, 3, 1)  # odd c1, c2


def test_pp_to_tableau_frozen_example():
    t = pp_to_tableau(SC_2x8)
    assert t.rows == (
        (1, 2, 2, 2, 2, 2, 3, 4),
        (3, 4, 5, 5, 5, 5, 5, 6),
    )
    assert t.max_entry == 6


def test_pp_to_tableau_trivial():
    pp = PlanePartition.from_rows([(0,)], 1)
    assert pp_to_tableau(pp).rows == ((1,),)


def test_pp_tableau_round_trip():
    for a, b, c in [(2, 2, 2), (2, 1, 3), (3, 2, 2), (1, 3, 2)]:
        for pp in enumerate_pp(a, b, c):
            assert tableau_to_pp(pp_to_tableau(pp)) == pp


def test_pp_to_tableau_image_is_all_rectangular_ssyt():
    for a, b, c in [(2, 2, 2), (2, 2, 3), (3, 1, 2), (3, 2, 3)]:
        image = {pp_to_tableau(pp).rows for pp in enumerate_pp(a, b, c)}
        assert len(image) == count_pp(a, b, c)  # injective
        target = {t.rows for t in enumerate_ssyt(rectangle(a, c), a + b)}
        assert image == target


def test_rotation_sum_property_for_self_complementary():
    for a in range(5):
        for b in range(5):
            for c in range(5):
                if a % 2 and b % 2 and c % 2:
                    continue
                for pp in enumerate_scpp(a, b, c):
                    t = pp_to_tableau(pp)
                    for i in range(a):
                        for j in range(c):
                            assert (
                                t.rows[i][j] + t.rows[a - 1 - i][c - 1 - j]
                                == a + b + 1
                            )


def test_move_graph_reports():
    report = check_move_graph(2, 2, 2)
    assert (report.vertices, report.components) == (4, 1)
    assert report.sign_flips_consistent
    assert check_move_graph(2, 1, 1).vertices == 1
    empty = check_move_graph(1, 1, 1)
    assert (empty.vertices, empty.components) == (0, 0)
    assert empty.sign_flips_consistent


def test_budget_raises_cleanly():
    with pytest.raises(BudgetExceededError):
        count_pp(3, 3, 3, WorkBudget(10))
    with pytest.raises(BudgetExceededError):
        count_scpp(4, 4, 4, WorkBudget(3))
    budget = WorkBudget(10**6)
    assert count_pp(2, 2, 2, budget) == 20
    assert budget.used > 0
