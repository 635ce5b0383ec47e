import gc
import random
import tracemalloc
from fractions import Fraction
from itertools import chain, permutations, product
from math import comb, prod

import pytest

import scpp.pfaffian
from oracles import core_rows_oracle
from scpp.budget import BudgetExceededError, WorkBudget
from scpp.cli import main
from scpp.pfaffian import (
    CASE_PARITY,
    SkewSymmetricMatrix,
    _core_rows,
    binomial_safe,
    corollary_matrix,
    corollary_pfaffian,
    exact_determinant,
    pfaffian,
)
from scpp.products import ParityError, middle_line_product
from scpp.verify import IDENTITIES

# tuples whose matrices reach dimension 40
DIMENSION_40 = [("even-even", 40, 40, 8, 4), ("a-odd", 41, 40, 8, 2), ("ab-odd", 41, 41, 8, 4)]


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


def _random_skew(rng, dim):
    rows = [[0] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            v = rng.randint(-9, 9)
            rows[i][j] = v
            rows[j][i] = -v
    return _skew(rows)


def test_pfaffian_squared_is_determinant():
    rng = random.Random(990817)
    for dim in (2, 4, 6, 8):
        for _ in range(6):
            m = _random_skew(rng, dim)
            assert pfaffian(m) ** 2 == exact_determinant(m.entries)


def _pf_by_expansion(rows):
    """Test oracle: the Pfaffian by expansion along the first row,
    Pf(M) = sum over j of (-1)^(j+1) m[0][j] Pf(M without rows/columns 0, j)."""
    if not rows:
        return 1
    total = 0
    for j in range(1, len(rows)):
        if rows[0][j]:
            keep = [k for k in range(1, len(rows)) if k != j]
            minor = [[rows[r][k] for k in keep] for r in keep]
            total += (-1) ** (j + 1) * rows[0][j] * _pf_by_expansion(minor)
    return total


def _det_by_permutations(rows):
    """Test oracle: the determinant as a sum over all permutations."""
    total = 0
    for perm in permutations(range(len(rows))):
        inversions = sum(p > q for i, p in enumerate(perm) for q in perm[i + 1:])
        total += (-1) ** inversions * prod(rows[i][p] for i, p in enumerate(perm))
    return total


def _zeroed(matrix, pairs):
    """The skew matrix with entries (i, j) and (j, i) set to 0 for each pair."""
    rows = [list(r) for r in matrix.entries]
    for i, j in pairs:
        rows[i][j] = rows[j][i] = 0
    return _skew(rows)


def test_pfaffian_matches_first_row_expansion():
    rng = random.Random(20120501)
    matrices = []
    for dim in (0, 2, 4, 6, 8, 10):
        for _ in range(4):
            m = _random_skew(rng, dim)
            matrices.append(m)
            if dim >= 4:
                # a zero at (0, 1) forces a swap; an all-zero row gives 0
                matrices.append(_zeroed(m, [(0, 1)]))
                matrices.append(_zeroed(m, [(0, 1), (0, 2)]))
                row = rng.randrange(dim)
                matrices.append(_zeroed(m, [(row, j) for j in range(dim)]))
    for case, a, b, c1, c2 in (
        ("even-even", 8, 2, 2, 0), ("even-even", 10, 4, 6, 2), ("a-odd", 9, 2, 4, 2),
        ("a-odd", 7, 2, 6, 6), ("ab-odd", 9, 1, 4, 2), ("ab-odd", 9, 3, 8, 0),
    ):
        matrices.append(corollary_matrix(case, a, b, c1, c2)[0])  # banded
    zeros = 0
    for m in matrices:
        expected = _pf_by_expansion(m.entries)
        assert pfaffian(m) == expected, m
        zeros += expected == 0
    assert zeros >= 16  # at least the matrices with an all-zero row


def test_determinant_matches_permutation_expansion():
    rng = random.Random(1988)
    for dim in range(7):
        for _ in range(5):
            rows = [
                [rng.randint(-9, 9) for _ in range(dim)]
                for _ in range(dim)
            ]
            cases = [rows]
            if dim >= 2:
                lead = [list(r) for r in rows]
                lead[0][0] = 0  # a zero leading pivot forces a row swap
                cases.append(lead)
                repeated = [list(r) for r in rows]
                repeated[-1] = list(repeated[0])  # singular
                cases.append(repeated)
                # rows whose multiplier is 0, under a pivot of 1 and at
                # later steps of a sparse matrix
                kept = [list(r) for r in rows]
                kept[0][0], kept[-1][0] = 1, 0
                cases.append(kept)
                cases.append([[v if rng.random() < 0.4 else 0 for v in r] for r in rows])
                # row i starts with i - 1 zeros, so it waits that many steps
                # unscaled before it is eliminated, then becomes the pivot;
                # reversed, the waiting rows are swapped up as pivots
                waiting = [[v if j >= i - 1 else 0 for j, v in enumerate(r)] for i, r in enumerate(rows)]
                cases += [waiting, waiting[::-1]]
            for m in cases:
                assert exact_determinant(m) == _det_by_permutations(m), m
    assert exact_determinant([[0, 0], [0, 5]]) == 0
    with pytest.raises(ValueError):
        exact_determinant([[1, 2], [3]])


def _first_step_entry(rows, i, j):
    """Entry (i, j) once the pair (0, 1) is eliminated, up to the division
    by 1: the Pfaffian of the minor on {0, 1, i, j}."""
    return rows[0][1] * rows[i][j] - rows[0][i] * rows[1][j] + rows[0][j] * rows[1][i]


def _set_first_step_entry(rows, i, j, target):
    """Choose entries (i, j) and (j, i) so that _first_step_entry is target."""
    v, r = divmod(target + rows[0][i] * rows[1][j] - rows[0][j] * rows[1][i], rows[0][1])
    assert not r
    rows[i][j], rows[j][i] = v, -v


def _later_step_matrices(rng, dim):
    """Random skew matrices whose zeros meet the second elimination step:
    a zero pivot, a zero first row, a zero row further down, p == q with a
    row whose multipliers are both 0, and such a row scaled by p/q with p
    not a multiple of q."""
    for kind in ("pivot", "first-row", "later-row", "kept", "scaled"):
        rows = [list(r) for r in _random_skew(rng, dim).entries]
        rows[0][1], rows[1][0] = (2, -2) if kind == "scaled" else (1, -1)
        if kind == "pivot":
            _set_first_step_entry(rows, 2, 3, 0)
        elif kind in ("first-row", "later-row"):
            i = 2 if kind == "first-row" else dim - 2
            for j in range(2, dim):
                if j != i:
                    _set_first_step_entry(rows, i, j, 0)
            assert not any(_first_step_entry(rows, i, j) for j in range(2, dim))
        else:
            pivot = 1 if kind == "kept" else 3
            if kind == "scaled":
                # even entries in column 4 keep the divisions by 2 exact
                for r, j, v in ((0, 2, 1), (1, 3, 1), (0, 3, 0), (0, 4, 2), (1, 4, -4)):
                    rows[r][j], rows[j][r] = v, -v
            _set_first_step_entry(rows, 2, 3, pivot)
            _set_first_step_entry(rows, 2, 4, 0)
            _set_first_step_entry(rows, 3, 4, 0)
            assert _first_step_entry(rows, 2, 3) == pivot
        yield kind, _skew(rows)


def test_pfaffian_with_zeros_at_later_steps():
    rng = random.Random(97)
    kinds = set()
    for dim in (6, 8, 10):
        for _ in range(4):
            for kind, m in _later_step_matrices(rng, dim):
                expected = _pf_by_expansion(m.entries)
                assert pfaffian(m) == expected, (kind, m)
                if kind.endswith("row"):
                    assert expected == 0
                det = _det_by_permutations(m.entries) if dim == 6 else expected * expected
                assert exact_determinant(m.entries) == det, (kind, m)
                kinds.add(kind)
    assert len(kinds) == 5


@pytest.mark.parametrize(("case", "a", "b", "c1", "c2"), DIMENSION_40)
def test_pfaffian_reaches_dimension_40(case, a, b, c1, c2):
    # far past any enumeration: the Pfaffian is the independent route here;
    # the row compares it with the product and det M with the product's square
    report = IDENTITIES["pfaffian"].run((a, b, c1, c2))
    assert report.match, report
    matrix = corollary_matrix(case, a, b, c1, c2)[0]
    assert matrix.dim == a + a % 2  # bordered when a is odd


def test_pfaffian_retains_nothing_on_return():
    # with the cyclic collector off, state caught in a reference cycle would
    # outlive the call
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
    rows = [[0] * 3 for _ in range(3)]
    rows[0][1], rows[1][0] = 2, -2
    rows[0][2], rows[2][0] = 1, -1
    rows[1][2], rows[2][1] = 4, -4
    assert exact_determinant(rows) == 0


def test_pfaffian_block_diagonal_multiplies():
    rng = random.Random(424242)
    for _ in range(50):
        d1, d2 = rng.choice([2, 4]), rng.choice([2, 4])
        m1 = _random_skew(rng, d1)
        m2 = _random_skew(rng, d2)
        dim = d1 + d2
        rows = [[0] * dim for _ in range(dim)]
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
            s = rng.randint(-5, 5)
            rows = [list(r) for r in m.entries]
            for j in range(dim):
                rows[i][j] *= s
                if j != i:
                    rows[j][i] *= s
            assert pfaffian(_skew(rows)) == s * pfaffian(m)


def test_kernels_reject_non_integer_entries():
    # floor division would round these silently: the determinant of
    # [[1/2, 1], [1, 1]] is -1/2, but unchecked Bareiss returns -1
    half = Fraction(1, 2)
    with pytest.raises(ValueError, match="integers"):
        exact_determinant([[half, 1], [1, 1]])
    with pytest.raises(ValueError, match="integers"):
        exact_determinant([[Fraction(2)]])
    with pytest.raises(ValueError, match="integers"):
        pfaffian(_skew([[0, half], [-half, 0]]))


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
def test_corollary_pfaffian_frozen_values(case, a, b, c1, c2, value):
    matrix, pf = corollary_pfaffian(case, a, b, c1, c2, WorkBudget())
    assert matrix == corollary_matrix(case, a, b, c1, c2)[0]
    assert pf == value == middle_line_product(a, b, c1, c2)


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


def test_packed_core_build_matches_inner_products(monkeypatch):
    case_of = {parity: name for name, (parity, _) in CASE_PARITY.items()}
    grid = [(case_of[a % 2, b % 2], a, b, c1, c2) for a, b, c1, c2 in IDENTITIES["pfaffian"].grid]
    tuples = grid + DIMENSION_40
    packed = [corollary_matrix(*t) for t in tuples]
    monkeypatch.setattr(scpp.pfaffian, "_core_rows", core_rows_oracle)
    assert packed == [corollary_matrix(*t) for t in tuples]


def _field_bytes(a, b, kmax, top_row, top_col):
    """The field width of the packed core build, in bytes, as _core_rows
    states it: the bit lengths of the largest row and column binomial plus
    that of kmax, rounded up to whole bytes, and up to 1, 2, 4 or 8 bytes
    below 9."""
    r = max(binomial_safe(top_row, b + m) for m in range(1 - kmax, a))
    c = max(binomial_safe(top_col, t) for t in range(kmax))
    wb = (r.bit_length() + c.bit_length() + kmax.bit_length() + 7) // 8
    return 1 << (wb - 1).bit_length() if wb <= 8 else wb


def _core_args_filling_top_byte():
    """(a, b, kmax, top_row, top_col) where an entry of P - P^T, and so of
    P, reaches the top byte of its field, with fields of 2 bytes or more."""
    for args in product(range(1, 6), range(4), range(1, 5), range(0, 24, 3), range(0, 24, 3)):
        wb = _field_bytes(*args)
        entries = chain.from_iterable(core_rows_oracle(*args))
        if wb >= 2 and max(map(abs, entries)) >> 8 * (wb - 1):
            yield args


def test_packed_core_rows_at_the_edges():
    edges = list(product((0, 1, 2), range(3), (0, 1), range(4), range(4)))
    edges += list(product(range(6), (0,), range(5), range(5), range(5)))
    # a < kmax splits k into several blocks, the first padded below k = 1
    edges += list(product((1, 2, 3), range(3), range(4, 12), (5, 9), (4, 11)))
    # fields wider than 8 bytes, read without struct
    edges += list(product((1, 4, 7), (0, 5), (2, 9), (40, 97), (61, 200)))
    # sums of kmax products that need the bits of kmax in the field width
    edges += [(4, 5, 4, 9, 15), (4, 5, 5, 9, 12), (4, 5, 5, 11, 9), (5, 4, 4, 9, 15)]
    near = list(_core_args_filling_top_byte())
    assert len(near) >= 500
    for args in edges + near:
        assert _core_rows(*args) == core_rows_oracle(*args), args


@pytest.mark.parametrize(
    ("argv", "out"),
    [
        ("--case even-even --a 2 --b 2 --c1 1000000 --c2 1000000",
         '{"match": true, "pfaffian": "250001000001", "product": "250001000001"}\n'),
        ("--case a-odd --a 3 --b 0 --c1 1000000 --c2 0",
         '{"match": true, "pfaffian": "1", "product": "1"}\n'),
    ],
)
def test_core_build_packs_only_the_binomials_it_reads(monkeypatch, capsys, argv, out):
    # a long middle line gives binomial tops near 500000, but a small matrix
    # reads only C(top, t) for t below a + kmax; packing every column would
    # allocate fields of about 10^6 bits each for 500000 columns
    def short_comb(n, k):
        assert k < 64, f"C({n}, {k}) is read by no entry"
        return comb(n, k)

    monkeypatch.setattr(scpp.pfaffian, "comb", short_comb)
    assert main(["pfaffian", *argv.split()]) == 0
    assert capsys.readouterr().out == out


def test_corollary_pfaffian_charges_cube_of_dimension_before_building(monkeypatch):
    budget = WorkBudget(64)
    assert corollary_pfaffian("a-odd", 3, 2, 4, 2, budget)[1] == 9
    assert budget.used == 64  # dimension 4
    # the registry row charges dim^3 more, for the determinant
    budget = WorkBudget(128)
    assert IDENTITIES["pfaffian"].run((3, 2, 4, 2), budget).match
    assert budget.used == 128

    def unbuilt(*args):
        raise AssertionError("matrix built past the cap")

    monkeypatch.setattr(scpp.pfaffian, "corollary_matrix", unbuilt)
    with pytest.raises(BudgetExceededError, match="64 nodes > cap 63"):
        corollary_pfaffian("a-odd", 3, 2, 4, 2, WorkBudget(63))
    with pytest.raises(BudgetExceededError, match="128 nodes > cap 127"):
        IDENTITIES["pfaffian"].run((3, 2, 4, 2), WorkBudget(127))
    # dimension 1000 passes the default cap before anything is built
    with pytest.raises(BudgetExceededError):
        corollary_pfaffian("even-even", 1000, 2, 2, 0, WorkBudget())
    # the parameter checks come first
    with pytest.raises(ParityError):
        corollary_pfaffian("even-even", 1001, 2, 2, 0, WorkBudget())
    with pytest.raises(ParityError):
        IDENTITIES["pfaffian"].run((1000, 1001, 2, 0), WorkBudget(1))
