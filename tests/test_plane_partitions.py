from itertools import permutations, product
from math import comb
from operator import ge

import pytest

import oracles
from oracles import (
    _closing_row,
    enumerate_pp,
    enumerate_scpp,
    enumerate_ssyt,
    flipped_pair_count,
    half_full,
    is_self_complementary,
    middle_line_constraint,
    move_graph_oracle,
    move_neighbors,
    pp_from_rows,
    pp_to_tableau,
    tableau_to_pp,
    weight,
)
from scpp import plane_partitions
from scpp.budget import BudgetExceededError, WorkBudget
from scpp.partitions import rectangle
from scpp.plane_partitions import (
    SignedCount,
    check_move_graph,
    count_pp,
    count_scpp,
    count_scpp_middle_line,
    count_scpp_signed,
)
from scpp.products import (
    ParityError,
    box_count,
    middle_line_product,
    sc_count,
    signed_enumeration_all_even,
    signed_enumeration_product,
)
from scpp.verify import IDENTITIES

# 4x5 array with height bound 3 whose opposite entries sum to 3
SC_4x5 = pp_from_rows(
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
SC_2x8 = pp_from_rows(
    [(4, 3, 3, 3, 3, 3, 2, 1), (3, 2, 1, 1, 1, 1, 1, 0)],
    height_bound=4,
)


def test_validation_rejects_bad_grids():
    with pytest.raises(ValueError):
        pp_from_rows([(1, 2)], 2)  # row increases
    with pytest.raises(ValueError):
        pp_from_rows([(1,), (2,)], 2)  # column increases
    with pytest.raises(ValueError):
        pp_from_rows([(3,)], 2)  # above height bound
    with pytest.raises(ValueError):
        pp_from_rows([(1, 0), (1,)], 2)  # ragged


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
    # the object-level enumerator too, since it shares no code with the count
    for a in range(4):
        for b in range(4):
            for c in range(4):
                assert count_pp(a, b, c) == box_count(a, b, c)
                assert len(list(enumerate_pp(a, b, c))) == box_count(a, b, c)


def test_is_self_complementary():
    assert is_self_complementary(SC_4x5)
    assert is_self_complementary(SC_2x8)
    zero = pp_from_rows([(0, 0), (0, 0)], 2)
    assert not is_self_complementary(zero)
    flat = pp_from_rows([(1, 1), (1, 1)], 2)
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
    zero = pp_from_rows([(0, 0), (0, 0)], 2)
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
    # the object-level enumerator too, since it shares no code with the count
    for a in range(5):
        for b in range(5):
            for c in range(5):
                assert count_scpp(a, b, c) == sc_count(a, b, c)
                assert len(list(enumerate_scpp(a, b, c))) == sc_count(a, b, c)


def test_counts_match_products_on_larger_grids():
    # beyond the acceptance grids, which stay as they are
    for a, b, c in product(range(8), repeat=3):
        assert count_pp(a, b, c) == box_count(a, b, c), (a, b, c)
    for a, b, c in product(range(9), repeat=3):
        assert count_scpp(a, b, c) == sc_count(a, b, c), (a, b, c)
    for a, b, c in product(range(8), repeat=3):
        parities = (a % 2, b % 2, c % 2)
        if parities == (0, 0, 0):
            closed = signed_enumeration_all_even(a, b, c)
        elif parities in ((0, 1, 1), (1, 0, 0)):
            closed = signed_enumeration_product(a, b, c)
        else:
            continue
        assert abs(count_scpp_signed(a, b, c).signed_total) == closed, (a, b, c)
    for a, b, c1, c2 in product(range(8), range(8), range(0, 9, 2), range(0, 9, 2)):
        if c2 <= c1 and not (a % 2 == 0 and b % 2):
            expected = middle_line_product(a, b, c1, c2)
            assert count_scpp_middle_line(a, b, c1, c2) == expected, (a, b, c1, c2)


def test_middle_line_constraint_even_even():
    assert middle_line_constraint(SC_2x8, 10, 6)  # entry (0,4) = 3 >= 2
    low = pp_from_rows(
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
    zero = pp_from_rows([(0, 0), (0, 0)], 2)
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
    pp = pp_from_rows([(0,)], 1)
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


# sides up to 5 with a*b*c <= 80, zero sides included: a = 1 and c = 1 hold
# moves between adjacent cells, odd a and odd c moves within a central row
MOVE_GRAPH_BOXES = [t for t in product(range(6), repeat=3) if t[0] * t[1] * t[2] <= 80]


def test_move_graph_matches_the_oracle():
    assert len(MOVE_GRAPH_BOXES) == 212
    for a, b, c in MOVE_GRAPH_BOXES:
        assert check_move_graph(a, b, c) == move_graph_oracle(a, b, c), (a, b, c)


def test_decreasing_rows_are_the_filtered_rows_under_the_bound():
    # brute force over [0, b]^c: the walk skips prefixes that cannot meet
    # the mirrored sums, the middle column of an odd c included, and no row
    # may be lost with them; the exact walk places the left half and
    # completes each pair
    for b, c in product(range(4), range(6)):
        decreasing = [w for w in product(range(b, -1, -1), repeat=c) if list(w) == sorted(w, reverse=True)]
        for bound in decreasing:
            under = [w for w in decreasing if all(v <= u for v, u in zip(w, bound))]
            for mirrored in range(2 * b + 2):
                expected = [w for w in under if all(w[j] + w[c - 1 - j] >= mirrored for j in range((c + 1) // 2))]
                assert list(plane_partitions._decreasing_rows(bound, mirrored)) == expected, (bound, mirrored)
                expected = [w for w in under if all(w[j] + w[c - 1 - j] == mirrored for j in range(c))]
                assert list(plane_partitions._decreasing_rows(bound, mirrored, True)) == expected, (bound, mirrored)


def _flat(pp):
    return tuple(v for row in pp.entries for v in row)


def test_flat_walk_lists_the_oracle_arrays():
    # the move graph's walk against the validated object arrays, flattened
    for a, b, c in MOVE_GRAPH_BOXES:
        flats = list(plane_partitions._scpp_flats(a, b, c, WorkBudget()))
        assert len(set(flats)) == len(flats), (a, b, c)
        assert flats == [_flat(pp) for pp in enumerate_scpp(a, b, c)], (a, b, c)


def test_flat_walk_keeps_every_closing_row_it_tries():
    # a even, c odd: the middle entry's bound closes the last upper row, so
    # the walk charges its root, the free upper rows (a = 4) and one unit
    # per array
    for a, b, c in [(2, 3, 3), (2, 4, 5), (4, 3, 5), (4, 4, 5)]:
        budget = WorkBudget()
        vertices = len(list(plane_partitions._scpp_flats(a, b, c, budget)))
        assert vertices == sc_count(a, b, c), (a, b, c)
        free = comb(b + c, c) if a == 4 else 0
        assert budget.used == 1 + free + vertices, (a, b, c)


def test_reference_parity_is_the_half_full_flipped_pair_count():
    boxes = [t for t in product(range(8), repeat=3) if not all(side % 2 for side in t)]
    assert len(boxes) == 512 - 64
    for a, b, c in boxes:
        expected = flipped_pair_count(half_full(a, b, c)) % 2
        assert plane_partitions._reference_parity(a, b, c) == expected, (a, b, c)


def test_flipped_parity_reads_the_flat_array():
    for a, b, c in [(2, 2, 2), (2, 3, 3), (3, 2, 2), (3, 3, 4), (4, 3, 3), (1, 2, 5)]:
        h = plane_partitions._upper_cells(a, c)
        for pp in enumerate_scpp(a, b, c):
            parity = plane_partitions._flipped_parity(_flat(pp), b, h)
            assert parity == flipped_pair_count(pp) % 2, (a, b, c)


def test_row_table_is_built_once_per_row_shape(monkeypatch):
    before = count_scpp(4, 3, 4), count_scpp_signed(4, 3, 4), check_move_graph(4, 3, 4)
    built = []
    table = plane_partitions._RowTable

    def counted(b, c, rows):
        built.append((b, c))
        return table(b, c, rows)

    monkeypatch.setattr(plane_partitions, "_RowTable", counted)
    monkeypatch.setattr(plane_partitions, "_row_table", plane_partitions._RowTables())
    after = count_scpp(4, 3, 4), count_scpp_signed(4, 3, 4), check_move_graph(4, 3, 4)
    # one count, the signed count's two runs and the move graph's count, all on (3, 4)
    assert built == [(3, 4)]
    assert after == before


def test_row_tables_hold_at_most_the_row_bound(monkeypatch):
    tables = plane_partitions._RowTables()
    monkeypatch.setattr(plane_partitions, "_row_table", tables)

    def entries():  # each table's rows, and its rows again per step list kept
        return sum(len(t.rows) * (1 + sum(map(len, t.steps))) for t in tables.tables.values())

    # every table of sides up to 6, the enum benchmark's, fits at once
    shapes = set(product(range(7), repeat=2))
    for b, c in shapes:
        tables(b, c)
    assert tables.held == sum(len(t.rows) for t in tables.tables.values())
    # many steps on a tiny table: kept only while they fit under the bound
    assert count_pp(40_000, 1, 1) == box_count(40_000, 1, 1)
    kept = len(tables.tables[(1, 1)].steps[False])
    assert 0 < kept < 40_001
    assert tables.held + 2 > plane_partitions.ROW_TABLE_ROWS
    # C(20, 10) = 184,756 rows: built for the count, and neither it nor its
    # steps kept
    held = tables.held
    assert count_pp(1, 10, 10) == box_count(1, 10, 10)
    assert tables.held == held
    assert shapes <= set(tables.tables)
    assert max(len(t.rows) for t in tables.tables.values()) < 184_756
    assert tables.held == entries() <= plane_partitions.ROW_TABLE_ROWS
    # C(16, 8) + C(16, 7) = 24,310 rows more: the tables used least
    # recently, (1, 1) and its steps among them, make room
    tables(8, 8), tables(9, 7)
    assert (1, 1) not in tables.tables
    assert tables.held == entries() <= plane_partitions.ROW_TABLE_ROWS


def _chains_oracle(table, k, signed):
    """Chains of k rows of ``table``, by their last row w: counts_k[w] is
    the sum of counts_{k-1}[r] over the rows r >= w entrywise, times w's
    sign when ``signed``."""
    b, c, rows = table.b, table.c, table.rows
    counts = [1] + [0] * (len(rows) - 1)
    for _ in range(k):
        counts = [
            sum(n for n, r in zip(counts, rows) if all(map(ge, r, w)))
            * ((-1) ** (b * c - sum(w)) if signed else 1)
            for w in rows
        ]
    return counts


def test_row_chains_are_the_chains_of_the_oracle_in_any_order(monkeypatch):
    ascending = [(k, signed) for k in range(7) for signed in (False, True)]
    interleaved = [(k, signed) for k in (3, 0, 6, 1, 4, 2, 5) for signed in (True, False)]
    for order in (ascending, ascending[::-1], interleaved):
        monkeypatch.setattr(plane_partitions, "_row_table", plane_partitions._RowTables())
        for b, c in product(range(5), repeat=2):
            table = plane_partitions._row_table(b, c)
            for k, signed in order:
                expected = _chains_oracle(table, k, signed)
                assert plane_partitions._row_chains(table, k, signed) == expected, (b, c, k, signed)


def test_a_count_charges_the_same_cold_and_warm(monkeypatch):
    monkeypatch.setattr(plane_partitions, "_row_table", plane_partitions._RowTables())
    counts = [
        (count_pp, (3, 3, 4)),
        (count_scpp, (4, 3, 4)),
        (count_scpp_signed, (5, 2, 4)),
        (count_scpp_middle_line, (3, 2, 6, 2)),
    ]
    for count, sides in counts:
        cold, warm = WorkBudget(), WorkBudget()
        first = count(*sides, cold)
        assert all(t.steps[False] for t in plane_partitions._row_table.tables.values())
        assert count(*sides, warm) == first
        assert cold.used == warm.used > 0, count.__name__


def test_live_pairs_raise_one_entry_of_every_raisable_row():
    for b, c in product(range(7), repeat=2):
        table = plane_partitions._row_table(b, c)
        rows = table.rows
        assert len(table.pairs) == c
        for j, (dst, src) in enumerate(table.pairs):
            assert len(dst) == len(src)
            assert dst == [i for i, w in enumerate(rows) if w[j] < (w[j - 1] if j else b)]
            for i, r in zip(dst, src):
                assert r < i
                assert rows[r] == rows[i][:j] + (rows[i][j] + 1,) + rows[i][j + 1:]
    assert sum(len(dst) for dst, _ in plane_partitions._row_table(6, 6).pairs) == 2_772


def _per_row(a, b, c, weight, signed=False):
    """The chain counts summed with ``weight`` called on every row."""
    table, counts = plane_partitions._upper_chains(a, b, c, WorkBudget())
    if signed:
        assert table.signs == [(-1) ** (b * c - sum(row)) for row in table.rows]
        counts = plane_partitions._row_chains(table, (a + 1) // 2, signed=True)
    return sum(n * weight(row) for n, row in zip(counts, table.rows))


def _middle_line_row(a, b, c1, c2):
    """The middle-line condition on the last upper row, as a predicate."""
    c = (c1 + c2) // 2
    if a % 2 == 0:
        closes = _closing_row(a, b, c)
        return lambda w: closes(w) and (c1 == 0 or w[c1 // 2 - 1] >= b // 2)
    segment = range(c2 // 2, c1 // 2)
    return lambda w: all(w[j] == b // 2 if j in segment else w[j] + w[c - 1 - j] == b for j in range(c))


def test_closing_tables_sum_what_the_row_predicates_sum():
    for a, b, c in product(range(7), repeat=3):
        closes = _closing_row(a, b, c)
        total = _per_row(a, b, c, closes)
        assert count_scpp(a, b, c) == total, (a, b, c)
        if a % 2 and b % 2 and c % 2:
            continue
        right = c // 2 if a % 2 else c
        signed = _per_row(a, b, c, lambda w: closes(w) * (-1) ** sum(b - v for v in w[right:]), True)
        signed *= (-1) ** plane_partitions._reference_parity(a, b, c)
        positive = (total + signed) // 2
        assert count_scpp_signed(a, b, c) == SignedCount(positive, total - positive), (a, b, c)
    grid = list(IDENTITIES["middle-line"].grid)
    assert len(grid) == 270
    for a, b, c1, c2 in grid:
        expected = _per_row(a, b, (c1 + c2) // 2, _middle_line_row(a, b, c1, c2))
        assert count_scpp_middle_line(a, b, c1, c2) == expected, (a, b, c1, c2)


def test_move_graph_walk_must_agree_with_the_count(monkeypatch):
    # the walk and the transfer-matrix count are independent routes
    honest = plane_partitions._scpp_flats

    def drops_one(*args):
        flats = honest(*args)
        next(flats)
        yield from flats

    monkeypatch.setattr(plane_partitions, "_scpp_flats", drops_one)
    with pytest.raises(RuntimeError, match="listed 17 arrays, count_scpp counted 18"):
        check_move_graph(2, 3, 4)


def test_move_graph_flip_check_can_fail(monkeypatch):
    # one array's weight is corrupted; the kernel weighs every array apart,
    # so an edge at that array joins equal weights
    a, b, c = 2, 3, 4
    target = next(_flat(pp) for pp in enumerate_scpp(a, b, c) if pp != half_full(a, b, c))
    honest = plane_partitions._flipped_parity
    monkeypatch.setattr(
        plane_partitions,
        "_flipped_parity",
        lambda flat, b, h: honest(flat, b, h) ^ (flat == target),
    )
    report = check_move_graph(a, b, c)
    assert (report.vertices, report.components) == (18, 1)
    assert not report.sign_flips_consistent


def test_move_graph_charges_its_moves_before_listing(monkeypatch):
    # count_scpp(2, 3, 4) charges C(7, 3) = 35 units and counts 18 arrays,
    # each with 2*4 // 2 = 4 moves to try
    def listing(*args):
        raise AssertionError("listed arrays past the cap")

    monkeypatch.setattr(plane_partitions, "_scpp_flats", listing)
    budget = WorkBudget(35 + 18 * 4 - 1)
    with pytest.raises(BudgetExceededError):
        check_move_graph(2, 3, 4, budget)
    assert budget.used == budget.cap + 1


def test_move_graph_charges_the_walk_one_unit_per_array_row():
    # count_scpp(3, 4, 4) charges 2 * C(8, 4) units, then 3*4 // 2 = 6 moves
    # per array; the walk charges its root and the C(8, 4) free upper rows,
    # and one unit per central row it tries, each of which closes
    budget = WorkBudget()
    report = check_move_graph(3, 4, 4, budget)
    assert report.vertices == sc_count(3, 4, 4)
    assert budget.used == 2 * comb(8, 4) + 6 * report.vertices + (1 + comb(8, 4)) + report.vertices


def test_budget_raises_cleanly():
    with pytest.raises(BudgetExceededError):
        count_pp(3, 3, 3, WorkBudget(10))
    with pytest.raises(BudgetExceededError):
        count_scpp(4, 4, 4, WorkBudget(3))
    budget = WorkBudget(10**6)
    assert count_pp(2, 2, 2, budget) == 20
    assert budget.used == 2 * 6  # one unit per row state per transfer step
    # three steps over the C(12, 6) = 924 rows of length 6 bounded by 6
    assert count_scpp(6, 6, 6, WorkBudget(2772)) == sc_count(6, 6, 6)
    with pytest.raises(BudgetExceededError):
        count_scpp(6, 6, 6, WorkBudget(2771))


def test_budget_stops_before_listing_a_large_box():
    # C(80, 40) rows of length 40 bounded by 40: far too many to list
    for run in (
        lambda budget: count_pp(1, 40, 40, budget),
        lambda budget: count_scpp(2, 40, 40, budget),
        lambda budget: count_scpp_signed(2, 40, 40, budget),
        lambda budget: count_scpp_middle_line(2, 40, 40, 40, budget),
        lambda budget: list(enumerate_pp(2, 40, 40, budget)),
        lambda budget: list(enumerate_scpp(2, 40, 40, budget)),
        lambda budget: list(enumerate_scpp(3, 40, 40, budget)),
        lambda budget: check_move_graph(3, 40, 40, budget),
    ):
        budget = WorkBudget(10)
        with pytest.raises(BudgetExceededError, match="11 nodes > cap 10"):
            run(budget)
        assert budget.used == 11
    assert count_pp(0, 40, 40) == count_scpp(0, 40, 40) == 1


def test_unbudgeted_count_stops_at_the_default_cap():
    # C(40, 20) ~ 1.4e11 rows: with no budget the count charges a fresh
    # WorkBudget(), whose default cap stops it before a row is listed
    for run in (
        lambda: count_pp(1, 20, 20),
        lambda: count_scpp(2, 20, 20),
        lambda: count_scpp_signed(2, 20, 20),
        lambda: count_scpp_middle_line(2, 20, 20, 20),
        lambda: check_move_graph(2, 20, 20),
    ):
        with pytest.raises(BudgetExceededError, match="100000001 nodes > cap 100000000"):
            run()


def test_unbudgeted_enumeration_charges_a_fresh_budget(monkeypatch):
    # the walk charges a fresh budget, here with a small cap
    monkeypatch.setattr(oracles, "WorkBudget", lambda: WorkBudget(10))
    with pytest.raises(BudgetExceededError, match="11 nodes > cap 10"):
        list(enumerate_scpp(2, 4, 4))


def test_signed_count_rejects_negative_sides():
    # the all-odd shortcut must not answer for a box with a negative side
    for sides in ((-1, 1, 1), (1, -1, 1), (1, 1, -1), (-1, 2, 2)):
        with pytest.raises(ValueError, match="box sides must be nonnegative"):
            count_scpp_signed(*sides)
