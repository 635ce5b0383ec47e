from itertools import product
from math import comb

import pytest

from oracles import TupleMPoly, constant, descent_strip_count, glue_sum_by_shapes, tuple_terms
from scpp import schur, verify
from scpp.budget import DEFAULT_NODE_CAP, BudgetExceededError, WorkBudget
from scpp.cli import main
from scpp.polynomials import MPoly
from scpp.partitions import partitions_in_rectangle, rectangle
from scpp.products import sc_count
from scpp.schur import schur_tableau_sum, specialize_alternating
from scpp.verify import EVALUATION_SWEEP, IDENTITIES


def _check(name, *values, budget=None, method=None):
    """The report of the row ``name`` of ``IDENTITIES`` at ``values``."""
    return IDENTITIES[name].run(values, budget, method)


def _rhs(which, gamma1, gamma2, alpha, n):
    """The right-hand side as the verifiers build it: the glued terms summed
    in n + 1 variables."""
    terms = verify._glued_terms(which, gamma1, gamma2, alpha, n, WorkBudget())
    return verify._glue_sum(terms, n, WorkBudget())


def test_rhs_identity1_trivial_cases():
    # empty rectangle: single term equal to the plain Schur polynomial
    assert _rhs(1, 2, 0, 2, 3) == schur_tableau_sum((2, 2), 3).lift(4)
    # no rows at all: the constant 1
    assert _rhs(1, 3, 2, 0, 2) == constant(3, 1)


def test_rhs_identity1_small_product():
    lhs = schur_tableau_sum((1,), 2).lift(3) * schur_tableau_sum((1,), 3)
    assert _rhs(1, 1, 1, 1, 2) == lhs


def test_rhs_identity2_trivial_cases():
    assert _rhs(2, 2, 0, 1, 2) == schur_tableau_sum((2,), 2).lift(3)
    # one forced row: reproduces the single Schur factor in n+1 variables
    lhs = schur_tableau_sum((1,), 2)
    assert _rhs(2, 1, 1, 0, 1) == lhs


def test_glue_descent_matches_the_sum_shape_by_shape():
    # both identities, gamma2 <= gamma1 <= 4, alpha <= 3, n <= 5: 600 tuples
    for which, gamma1, alpha, n in product((1, 2), range(5), range(4), range(6)):
        for gamma2 in range(gamma1 + 1):
            terms = verify._glued_terms(which, gamma1, gamma2, alpha, n, WorkBudget())
            expected = glue_sum_by_shapes(terms, n)
            summed = verify._glue_sum(terms, n, WorkBudget())
            assert summed == expected, (which, gamma1, gamma2, alpha, n)


def test_glue_descent_on_the_strip_free_terms_of_square_reduction():
    for gamma, alpha, n in product(range(4), range(4), range(6)):
        terms = verify._glued_terms(1, gamma, gamma, alpha, n, WorkBudget())
        free = [term for term in terms if term[1] == 0]
        # square reduction sums them in x_1..x_n; x_{n+1} enters with exponent 0
        reduced = verify._glue_sum(free, n, WorkBudget(), trailing=0)
        assert reduced.lift(n + 1) == glue_sum_by_shapes(free, n), (gamma, alpha, n)


def test_schurid_in_full_expansion_at_reach():
    # 6 variables plus the glued one; the glue descent builds its right side
    report = _check("schurid1", 4, 3, 3, 6)
    assert report.match and report.lhs == report.rhs


def test_rhs_rejects_decreasing_widths():
    with pytest.raises(ValueError):
        _rhs(1, 1, 2, 1, 2)
    with pytest.raises(ValueError):
        _check("schurid1", 2, 3, 1, 2)


@pytest.mark.parametrize("which", [1, 2])
@pytest.mark.parametrize(
    ("gamma1", "gamma2", "alpha", "n"),
    [(1, 1, 1, 2), (2, 1, 1, 2), (2, 2, 2, 3), (3, 1, 2, 3), (0, 0, 2, 2)],
)
def test_verify_schurid_full_expansion(which, gamma1, gamma2, alpha, n):
    report = _check(f"schurid{which}", gamma1, gamma2, alpha, n)
    assert report.match
    assert report.method == "full-expansion"
    assert report.lhs == report.rhs


@pytest.mark.parametrize("which", [1, 2])
@pytest.mark.parametrize(
    ("gamma1", "gamma2", "alpha", "n"),
    [(1, 0, 1, 1), (1, 1, 1, 1), (1, 1, 1, 2), (2, 1, 1, 1)],
)
def test_methods_agree_where_both_run(which, gamma1, gamma2, alpha, n):
    full = _check(f"schurid{which}", gamma1, gamma2, alpha, n, method="full-expansion")
    sweep = _check(f"schurid{which}", gamma1, gamma2, alpha, n, method=EVALUATION_SWEEP)
    assert full.match and sweep.match
    assert sweep.method == "evaluation-sweep"


@pytest.mark.parametrize("method", verify.METHODS)
def test_both_methods_catch_a_missing_glued_term(monkeypatch, method):
    glued = verify._glued_terms
    monkeypatch.setattr(verify, "_glued_terms", lambda *args: glued(*args)[:-1])
    report = _check("schurid2", 2, 1, 2, 3, method=method)
    assert not report.match
    assert report.lhs != report.rhs


def _sweep_inputs(which, gamma1, gamma2, alpha, n):
    """What the sweep walks at one tuple: the factor shapes, the glued
    terms, n and the grid bound."""
    first, second = rectangle(alpha, gamma1), rectangle(alpha if which == 1 else alpha + 1, gamma2)
    terms = verify._glued_terms(which, gamma1, gamma2, alpha, n, WorkBudget())
    return first, second, terms, n, alpha * gamma1 + (alpha + 1) * gamma2


# tuples of the benchmark's sweeps with a nonconstant first factor, so that
# the right-hand side is not symmetric in all n + 1 variables
SWEEP_TUPLES = [(1, 2, 0, 2, 3), (1, 1, 1, 1, 3), (1, 2, 2, 1, 2), (2, 2, 1, 1, 3), (2, 2, 2, 1, 2)]


def _at(poly, point):
    """poly at point by the tuple-keyed oracle, term by term."""
    return TupleMPoly(poly.nvars, tuple_terms(poly)).evaluate(point)


def _full_expansion_values(first, second, terms, n, bound):
    """(left, right) at each point of {0..bound}^(n+1) in lexicographic
    order, from the full-expansion factors and glued sum by the oracle."""
    lhs = schur_tableau_sum(first, n), schur_tableau_sum(second, n + 1)
    rhs = verify._glue_sum(terms, n, WorkBudget())
    return [
        (_at(lhs[0], point[:-1]) * _at(lhs[1], point), _at(rhs, point))
        for point in product(range(bound + 1), repeat=n + 1)
    ]


def _assert_swept_pointwise(first, second, terms, n, bound):
    # one pair of value lists per prefix, t = 0..bound in each
    swept = list(verify._swept_values(first, second, terms, n, bound, WorkBudget()))
    assert len(swept) == (bound + 1) ** n
    assert all(len(lvals) == len(rvals) == bound + 1 for lvals, rvals in swept)
    pairs = [pair for lvals, rvals in swept for pair in zip(lvals, rvals)]
    assert pairs == _full_expansion_values(first, second, terms, n, bound)


@pytest.mark.parametrize(("which", "gamma1", "gamma2", "alpha", "n"), SWEEP_TUPLES)
def test_sweep_walk_matches_pointwise_evaluation(which, gamma1, gamma2, alpha, n):
    _assert_swept_pointwise(*_sweep_inputs(which, gamma1, gamma2, alpha, n))


# (first, second, glued terms) in n = 1 variable x and t, swept on {0..3}^2.
# s_(a)(x) * s_(b,b)(x, t) = x^(a+b) * t^b, whose corner value is 3^(a+2b),
# as is that of the glued term s_(a+b)(x) * t^b.  A field has 8 times the
# larger corner value's byte length in bits, rounded up to 8, 16, 32 or 64
# bits when it fits: 3^20, 3^40 and 3^45 have 32, 64 and 72 bits, which
# fill their fields to the top bit.  In the left-side-product case only the
# product of the two factors' corner values, 3^20 each, needs 64 bits; in
# the last case only the right side, x^25 * t^20, needs 72.  The left
# side's coefficients are positive and no coordinate is negative, so no
# value is: there is no sign to hold.
SWEEP_FIELD_CASES = {
    "32-bit-boundary": ((2,), (9, 9), [((11,), 9)]),
    "64-bit-boundary": ((4,), (18, 18), [((22,), 18)]),
    "72-bit-boundary": ((5,), (20, 20), [((25,), 20)]),
    "left-side-product": ((20,), (10, 10), [((30,), 10)]),
    "wide-right-side": ((4,), (20, 20), [((25,), 20)]),
}


@pytest.mark.parametrize("case", SWEEP_FIELD_CASES)
def test_sweep_fields_hold_the_corner_value(monkeypatch, case):
    first, second, terms = SWEEP_FIELD_CASES[case]
    widths = []
    reader = verify.field_reader

    def recorded(width, count):
        widths.append(width)
        return reader(width, count)

    monkeypatch.setattr(verify, "field_reader", recorded)
    _assert_swept_pointwise(first, second, terms, 1, 3)
    corner = max(_full_expansion_values(first, second, terms, 1, 3)[-1])
    assert corner.bit_length() % 8 == 0
    assert widths == [corner.bit_length() // 8]


def _refuse(*args, **kwargs):
    raise AssertionError("called")


def test_sweep_builds_no_polynomial_and_lists_each_strip_list_once(monkeypatch, kept):
    which, gamma1, gamma2, alpha, n = SWEEP_TUPLES[0]
    listed = []
    strips = schur._strips

    def recorded(mu, m, budget):
        listed.append((mu, m))
        return strips(mu, m, budget)

    # the (shape, level) pairs that the descents of the three full-expansion
    # builds list, each build on its own
    monkeypatch.setattr(schur, "_strips", recorded)
    assert _check(f"schurid{which}", gamma1, gamma2, alpha, n).match
    descended = set(listed)
    assert len(listed) > len(descended)  # the builds share some
    listed.clear()
    monkeypatch.setattr(verify, "_strips", recorded)
    for name in ("schur_tableau_sum", "schur_combination", "schur_value"):
        monkeypatch.setattr(verify, name, _refuse)
    monkeypatch.setattr(MPoly, "__init__", _refuse)  # no polynomial is built
    monkeypatch.setattr(MPoly, "__mul__", _refuse)  # nor two multiplied
    report = _check(f"schurid{which}", gamma1, gamma2, alpha, n, method=EVALUATION_SWEEP)
    assert report.match
    assert sorted(listed) == sorted(descended)  # each once


@pytest.mark.parametrize(("which", "gamma1", "gamma2", "alpha", "n"), SWEEP_TUPLES)
def test_sweep_catches_a_right_side_above_the_degree_bound(monkeypatch, which, gamma1, gamma2, alpha, n):
    # the power tables are sized by the exponents present, not by the bound:
    # an extra glued term t^(bound+1), or s_(bound+1)(x_1..x_n)
    glued = verify._glued_terms
    bound = alpha * gamma1 + (alpha + 1) * gamma2
    for extra in [((), bound + 1), ((bound + 1,), 0)]:
        monkeypatch.setattr(verify, "_glued_terms", lambda *args: [*glued(*args), extra])
        report = _check(f"schurid{which}", gamma1, gamma2, alpha, n, method=EVALUATION_SWEEP)
        assert not report.match, extra
        assert report.lhs != report.rhs


def test_full_expansion_digests_equal_sides_once(monkeypatch):
    calls = []
    digest = MPoly.digest
    monkeypatch.setattr(MPoly, "digest", lambda self: calls.append(1) or digest(self))
    report = _check("schurid1", 2, 1, 2, 3)
    assert report.match and report.lhs == report.rhs
    assert len(calls) == 1
    square = _check("square-reduction", 2, 2, 3)
    assert square.match and square.lhs == square.rhs
    assert len(calls) == 2
    glued = verify._glued_terms
    monkeypatch.setattr(verify, "_glued_terms", lambda *args: glued(*args)[:-1])
    report = _check("schurid1", 2, 1, 2, 3)
    assert not report.match and report.lhs != report.rhs
    assert len(calls) == 4


def test_verify_schurid_zero_when_fewer_variables_than_rows():
    # both sides vanish, so the identity still holds
    report = _check("schurid2", 2, 1, 3, 2)
    assert report.match


def test_verify_schurid_unknown_method():
    with pytest.raises(ValueError):
        _check("schurid1", 1, 1, 1, 2, method="monte-carlo")


def test_square_reduction_sums_what_the_whole_glued_sum_restricts_to():
    # the strip-free terms in n variables against every glued term in n + 1,
    # summed shape by shape, with x_{n+1} set to zero by the tuple oracle
    grid = list(verify.IDENTITIES["square-reduction"].grid)
    assert len(grid) == 36
    for gamma, alpha, n in grid:
        terms = verify._glued_terms(1, gamma, gamma, alpha, n, WorkBudget())
        whole = TupleMPoly(n + 1, tuple_terms(glue_sum_by_shapes(terms, n)))
        expected = whole.restrict_last_zero().digest()
        assert _check("square-reduction", gamma, alpha, n).lhs == expected, (gamma, alpha, n)


def test_square_reduction_lists_one_strip_free_term_per_mu(monkeypatch):
    # the strip-free terms of the whole glued listing, one listed per mu: mu itself
    listed = []
    glue = verify._glue

    def counted(alpha, gamma1, gamma2, n, budget, strips):
        def listing(mu):
            lam, pis = strips(mu)
            pis = list(pis)
            listed.extend(pis)
            return lam, pis

        return glue(alpha, gamma1, gamma2, n, budget, listing)

    monkeypatch.setattr(verify, "_glue", counted)
    for gamma, alpha, n in product(range(4), range(4), range(6)):
        terms = verify._glued_terms(1, gamma, gamma, alpha, n, WorkBudget())
        listed.clear()
        reduced = verify._strip_free_sum(gamma, alpha, n, WorkBudget())
        free = [t for t in terms if t[1] == 0]
        assert reduced == verify._glue_sum(free, n, WorkBudget(), trailing=0)
        assert len(listed) == comb(alpha + gamma, alpha), (gamma, alpha, n)
        assert listed == list(partitions_in_rectangle(alpha, gamma)), (gamma, alpha, n)


def test_square_reduction_grid():
    # acceptance criterion 04 runs the 36 tuples with gamma, alpha < 3 and n < 4
    for gamma, alpha, n in product(range(4), range(4), range(6)):
        if gamma < 3 and alpha < 3 and n < 4:
            continue
        assert _check("square-reduction", gamma, alpha, n).match, (gamma, alpha, n)


def test_verify_box():
    report = _check("box", 3, 3, 3)
    assert report.match and report.lhs == report.rhs == "980"


def test_verify_scpp_count():
    assert _check("scpp", 2, 2, 2).match
    assert _check("scpp", 3, 3, 3).match  # both sides zero
    assert _check("scpp", 4, 3, 2).match


def test_verify_middle_line():
    report = _check("middle-line", 2, 2, 4, 2)
    assert report.match and report.rhs == "6"
    assert _check("middle-line", 3, 3, 6, 2).match
    assert _check("middle-line", 5, 3, 4, 2).match


def test_verify_signed_enumeration():
    report = _check("signed", 2, 3, 3)
    assert report.identity == "signed"
    assert report.match and report.rhs == "1"
    assert _check("signed", 1, 2, 2).match  # zero on both sides
    all_even = _check("signed", 2, 2, 2)
    assert all_even.identity == "signed-all-even"
    assert all_even.match and all_even.rhs == "2"


def test_verify_weight_consistency():
    report = _check("weight", 2, 2, 2)
    assert report.match
    assert "components=1" in report.lhs
    vacuous = _check("weight", 1, 1, 1)
    assert vacuous.match
    assert "components=0" in vacuous.lhs


def test_verify_bridge():
    assert _check("bridge", 2, 2, 4).match
    assert _check("bridge", 1, 1, 2).match
    assert _check("bridge", 1, 2, 3).match  # negative-sign case
    assert _check("bridge", 0, 2, 4).match
    with pytest.raises(ValueError):
        _check("bridge", 2, 3, 2)


def test_bridge_on_a_wider_grid():
    # 378 tuples, up to 25-cell rectangles in 12 variables
    tuples = [(g, a, m) for g in range(6) for a in range(6) for m in range(a, 13)]
    assert len(tuples) == 378
    assert [t for t in tuples if not _check("bridge", *t).match] == []


def test_alternating_value_on_the_largest_rectangle():
    # the bridge's sign rule: (-1)^(gamma*alpha*(alpha+3)/2) times sc_count;
    # the 5 x 7 x 5 box is all odd, so its count is 0, and its neighbours' are not
    for (gamma, alpha, m), count in [((5, 5, 12), 0), ((5, 4, 12), 51450), ((4, 5, 12), 18375)]:
        sign = -1 if (gamma * alpha * (alpha + 3) // 2) % 2 else 1
        assert sc_count(alpha, m - alpha, gamma) == count
        assert specialize_alternating(gamma, alpha, m) == sign * count


def test_bridge_and_alternating_build_no_polynomial(monkeypatch, capsys, kept):
    monkeypatch.setattr(schur, "schur_combination", _refuse)  # the term-map descent
    assert _check("bridge", 3, 3, 7).match
    assert specialize_alternating(3, 2, 6) == -sc_count(2, 4, 3) == -18
    assert main(["schur", "evaluate", "--shape", "2,2", "--n", "3", "--at", "1,1/2,-1"]) == 0
    assert capsys.readouterr().out == '{"value": "5/4"}\n'
    with pytest.raises(AssertionError):  # the patch is live for the polynomial route
        schur_tableau_sum((3, 3), 3)


# (row, one tuple of its grid, method, the units the check charges)
CHARGES = [
    pytest.param("box", (2, 2, 2), None, 12, id="box"),
    pytest.param("scpp", (2, 3, 4), None, 35, id="scpp"),
    pytest.param("middle-line", (3, 3, 4, 2), None, 40, id="middle-line"),
    pytest.param("signed", (2, 3, 3), None, 40, id="signed"),
    # 2,857 units, where the glued terms alone are 84
    pytest.param("schurid1", (3, 3, 3, 5), None, 2857, id="schurid1"),
    # 22 for the two factors, 6 glued terms and 28 for their sum's descent
    pytest.param("schurid2", (2, 1, 2, 3), None, 22 + 6 + 28, id="schurid2"),
    # 6 strip-free terms, one per mu in the 2 x 2 rectangle, 41 for their
    # sum's descent and 12 for the square's root
    pytest.param("square-reduction", (2, 2, 3), None, 6 + 41 + 12, id="square-reduction"),
    pytest.param("weight", (2, 2, 2), None, 19, id="weight"),
    # m = 4 for each point's coordinates, then the point's descent
    pytest.param(
        "bridge", (2, 2, 4), None, 2 * (4 + descent_strip_count(rectangle(2, 2), 4)), id="bridge"
    ),
    # 2 dim^3 at dimension 4
    pytest.param("pfaffian", (3, 2, 4, 2), None, 2 * 4**3, id="pfaffian"),
    # the glued terms and the grid points, then the strips of each (shape,
    # level) the walk reads, each listed once: fewer than the full
    # expansion's 28 + 22 at (2, 1, 2, 3), whose builds list some twice
    pytest.param("schurid1", (2, 1, 1, 2), EVALUATION_SWEEP, 3 + 5**3 + 18, id="schurid1-sweep"),
    pytest.param(
        "schurid2", (2, 1, 2, 3), EVALUATION_SWEEP, 6 + 8**4 + 42, id="schurid2-sweep"
    ),
]


def test_the_charge_cases_cover_every_row_and_both_sweeps():
    cases = [case.values for case in CHARGES]
    assert {name for name, _, method, _ in cases if method is None} == set(IDENTITIES)
    swept = {name for name, _, method, _ in cases if method == EVALUATION_SWEEP}
    assert swept == {name for name, row in IDENTITIES.items() if row.sweep is not None}
    assert all(values in set(IDENTITIES[name].grid) for name, values, _, _ in cases)


@pytest.mark.parametrize(("name", "values", "method", "charged"), CHARGES)
def test_schur_descents_are_capped_by_the_given_cap(
    monkeypatch, kept, name, values, method, charged
):
    # a check makes no budget of its own, so the cap it is given bounds all
    # its work, the Schur builds included, and no default cap stops them;
    # a cached Schur build charges what it listed, so a warm run charges
    # what a cold one does
    made = []
    init = WorkBudget.__init__

    def recorded(self, cap=DEFAULT_NODE_CAP):
        made.append(cap)
        init(self, cap)

    budgets = [WorkBudget(10 * DEFAULT_NODE_CAP) for _ in ("cold", "warm")]
    monkeypatch.setattr(WorkBudget, "__init__", recorded)
    for budget in budgets:
        assert _check(name, *values, budget=budget, method=method).match
    assert made == []
    assert [budget.used for budget in budgets] == [charged, charged]


def test_budget_threads_through_verifiers():
    with pytest.raises(BudgetExceededError):
        _check("box", 4, 4, 4, budget=WorkBudget(5))
    with pytest.raises(BudgetExceededError):
        _check("schurid1", 2, 2, 2, 3, budget=WorkBudget(2))
    with pytest.raises(BudgetExceededError):
        _check("schurid1", 1, 1, 1, 2, budget=WorkBudget(4), method=EVALUATION_SWEEP)


@pytest.mark.parametrize(
    "run",
    [
        lambda budget: _check("schurid1", 20, 20, 3, 1, budget=budget),
        lambda budget: _check("schurid2", 20, 20, 3, 1, method=EVALUATION_SWEEP, budget=budget),
        lambda budget: _check("square-reduction", 20, 3, 1, budget=budget),
    ],
)
def test_the_cap_stops_the_glued_listing(monkeypatch, run):
    # at gamma1 = gamma2 = 20 and alpha = 3, identity 1 has 230,230 glued terms
    # and identity 2 has 888,030; square reduction lists one strip-free term
    # for each of the 1,771 mu.  Each term is charged as it is listed, so the
    # cap stops the listing at cap + 1
    listed = []
    glue = verify._glue

    def tally(pis):
        for pi in pis:
            listed.append(pi)
            yield pi

    def counted(alpha, gamma1, gamma2, n, budget, strips):
        def listing(mu):
            lam, pis = strips(mu)
            return lam, tally(pis)

        return glue(alpha, gamma1, gamma2, n, budget, listing)

    monkeypatch.setattr(verify, "_glue", counted)
    with pytest.raises(BudgetExceededError, match="1001 nodes > cap 1000"):
        run(WorkBudget(1000))
    assert 0 < len(listed) <= 1001


def test_uncapped_sweep_stops_at_the_default_cap_before_building(monkeypatch):
    # 22^6 ~ 1.1e8 grid points, charged to a fresh WorkBudget() before any
    # Schur polynomial is built or any strip listed
    def building(*args):
        raise AssertionError("built a Schur polynomial past the cap")

    monkeypatch.setattr(verify, "schur_tableau_sum", building)
    monkeypatch.setattr(verify, "schur_combination", building)  # the glue descent
    monkeypatch.setattr(verify, "_strips", building)  # the sweep's walk
    with pytest.raises(BudgetExceededError, match="100000001 nodes > cap 100000000"):
        _check("schurid1", 3, 3, 3, 5, method=EVALUATION_SWEEP)


@pytest.mark.parametrize(
    "run",
    [
        lambda budget: _check("schurid1", 1, 1, 1, -1, budget=budget),
        lambda budget: _check("schurid1", 1, 1, 1, -1, method=EVALUATION_SWEEP, budget=budget),
        lambda budget: _check("square-reduction", 1, 1, -1, budget=budget),
    ],
)
def test_variable_count_is_checked_before_any_charge(run):
    budget = WorkBudget(1)
    with pytest.raises(ValueError, match="variable count must be nonnegative"):
        run(budget)
    assert budget.used == 0


def test_reports_are_deterministic():
    first = _check("schurid1", 2, 1, 1, 2)
    second = _check("schurid1", 2, 1, 1, 2)
    assert (first.lhs, first.rhs, first.match) == (second.lhs, second.rhs, second.match)
    assert first.parameters == {"gamma1": 2, "gamma2": 1, "alpha": 1, "n": 2}
