from itertools import product

import pytest

from oracles import TupleMPoly, constant, descent_strip_count, glue_sum_by_shapes, tuple_terms
from scpp import schur, verify
from scpp.budget import DEFAULT_NODE_CAP, BudgetExceededError, WorkBudget
from scpp.cli import main
from scpp.polynomials import MPoly
from scpp.partitions import rectangle
from scpp.products import sc_count
from scpp.schur import schur_tableau_sum, specialize_alternating
from scpp.verify import (
    verify_box,
    verify_middle_line,
    verify_schurid,
    verify_scpp_count,
    verify_signed_enumeration,
    verify_specialization_bridge,
    verify_square_reduction,
    verify_weight_consistency,
)


def _rhs(which, gamma1, gamma2, alpha, n):
    """The right-hand side as the verifiers build it: the glued terms summed
    in n + 1 variables."""
    return verify._glue_sum(verify._glued_terms(which, gamma1, gamma2, alpha, n, WorkBudget()), n)


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
            assert verify._glue_sum(terms, n) == expected, (which, gamma1, gamma2, alpha, n)


def test_glue_descent_on_the_strip_free_terms_of_square_reduction():
    for gamma, alpha, n in product(range(4), range(4), range(6)):
        terms = verify._glued_terms(1, gamma, gamma, alpha, n, WorkBudget())
        free = [term for term in terms if term[1] == 0]
        assert verify._glue_sum(free, n) == glue_sum_by_shapes(free, n), (gamma, alpha, n)


def test_schurid_in_full_expansion_at_reach():
    # 6 variables plus the glued one; the glue descent builds its right side
    report = verify_schurid(1, 4, 3, 3, 6)
    assert report.match and report.lhs == report.rhs


def test_rhs_rejects_decreasing_widths():
    with pytest.raises(ValueError):
        _rhs(1, 1, 2, 1, 2)
    with pytest.raises(ValueError):
        verify_schurid(1, 2, 3, 1, 2)


@pytest.mark.parametrize("which", [1, 2])
@pytest.mark.parametrize(
    ("gamma1", "gamma2", "alpha", "n"),
    [(1, 1, 1, 2), (2, 1, 1, 2), (2, 2, 2, 3), (3, 1, 2, 3), (0, 0, 2, 2)],
)
def test_verify_schurid_full_expansion(which, gamma1, gamma2, alpha, n):
    report = verify_schurid(which, gamma1, gamma2, alpha, n)
    assert report.match
    assert report.method == "full-expansion"
    assert report.lhs == report.rhs


@pytest.mark.parametrize("which", [1, 2])
@pytest.mark.parametrize(
    ("gamma1", "gamma2", "alpha", "n"),
    [(1, 0, 1, 1), (1, 1, 1, 1), (1, 1, 1, 2), (2, 1, 1, 1)],
)
def test_methods_agree_where_both_run(which, gamma1, gamma2, alpha, n):
    full = verify_schurid(which, gamma1, gamma2, alpha, n, method="full-expansion")
    sweep = verify_schurid(which, gamma1, gamma2, alpha, n, method="evaluation-sweep")
    assert full.match and sweep.match
    assert sweep.method == "evaluation-sweep"


@pytest.mark.parametrize("method", verify.METHODS)
def test_both_methods_catch_a_missing_glued_term(monkeypatch, method):
    glued = verify._glued_terms
    monkeypatch.setattr(verify, "_glued_terms", lambda *args: glued(*args)[:-1])
    report = verify_schurid(2, 2, 1, 2, 3, method=method)
    assert not report.match
    assert report.lhs != report.rhs


def _sweep_inputs(which, gamma1, gamma2, alpha, n):
    first, second = verify._lhs_factors(which, gamma1, gamma2, alpha, n)
    return first, second, _rhs(which, gamma1, gamma2, alpha, n), alpha * gamma1 + (alpha + 1) * gamma2


# tuples of the benchmark's sweeps with a nonconstant first factor, so that
# the right-hand side is not symmetric in all n + 1 variables
SWEEP_TUPLES = [(1, 2, 0, 2, 3), (1, 1, 1, 1, 3), (1, 2, 2, 1, 2), (2, 2, 1, 1, 3), (2, 2, 2, 1, 2)]


def _at(poly, point):
    """poly at point by the tuple-keyed oracle, term by term."""
    return TupleMPoly(poly.nvars, tuple_terms(poly)).evaluate(point)


@pytest.mark.parametrize(("which", "gamma1", "gamma2", "alpha", "n"), SWEEP_TUPLES)
def test_sweep_walk_matches_pointwise_evaluation(which, gamma1, gamma2, alpha, n):
    first, second, rhs, bound = _sweep_inputs(which, gamma1, gamma2, alpha, n)
    expected = [
        (_at(first, point[:-1]) * _at(second, point), _at(rhs, point))
        for point in product(range(bound + 1), repeat=n + 1)
    ]
    # one pair of value lists per prefix, t = 0..bound in each
    swept = list(verify._swept_values(first, second, rhs, bound))
    assert len(swept) == (bound + 1) ** n
    assert all(len(lvals) == len(rvals) == bound + 1 for lvals, rvals in swept)
    assert [pair for lvals, rvals in swept for pair in zip(lvals, rvals)] == expected


def _refuse(*args, **kwargs):
    raise AssertionError("called")


def _counted(monkeypatch, name):
    calls = []
    kernel = getattr(verify, name)
    monkeypatch.setattr(verify, name, lambda *args: calls.append(1) or kernel(*args))
    return calls


def test_sweep_substitutes_once_per_prefix(monkeypatch):
    grouped = _counted(monkeypatch, "group_by_first")
    substituted = _counted(monkeypatch, "substitute_groups")
    assert not hasattr(MPoly, "evaluate")
    monkeypatch.setattr(verify, "schur_value", _refuse)  # the sweep must not call it
    monkeypatch.setattr(MPoly, "__mul__", _refuse)  # nor multiply two polynomials
    which, gamma1, gamma2, alpha, n = SWEEP_TUPLES[0]
    report = verify_schurid(which, gamma1, gamma2, alpha, n, method="evaluation-sweep")
    assert report.match
    bound = alpha * gamma1 + (alpha + 1) * gamma2
    # three term maps grouped at each internal node x_1..x_k, k = 0..n-1, of
    # the prefix tree, and substituted at each node x_1..x_k, k = 1..n
    assert len(grouped) == 3 * sum((bound + 1) ** k for k in range(n))
    assert len(substituted) == 3 * sum((bound + 1) ** k for k in range(1, n + 1))


@pytest.mark.parametrize(("which", "gamma1", "gamma2", "alpha", "n"), SWEEP_TUPLES)
def test_sweep_catches_a_right_side_above_the_degree_bound(monkeypatch, which, gamma1, gamma2, alpha, n):
    # the power table is sized by the exponents present, not by the bound
    glue = verify._glue_sum
    bound = alpha * gamma1 + (alpha + 1) * gamma2

    def with_extra_term(terms, n, budget):
        rhs = glue(terms, n, budget)
        return MPoly(rhs.nvars, {**rhs.terms, bound + 1: 1})  # + x_{n+1}^(bound+1)

    monkeypatch.setattr(verify, "_glue_sum", with_extra_term)
    report = verify_schurid(which, gamma1, gamma2, alpha, n, method="evaluation-sweep")
    assert not report.match
    assert report.lhs != report.rhs


def test_full_expansion_digests_equal_sides_once(monkeypatch):
    calls = []
    digest = MPoly.digest
    monkeypatch.setattr(MPoly, "digest", lambda self: calls.append(1) or digest(self))
    report = verify_schurid(1, 2, 1, 2, 3)
    assert report.match and report.lhs == report.rhs
    assert len(calls) == 1
    square = verify_square_reduction(2, 2, 3)
    assert square.match and square.lhs == square.rhs
    assert len(calls) == 2
    glued = verify._glued_terms
    monkeypatch.setattr(verify, "_glued_terms", lambda *args: glued(*args)[:-1])
    report = verify_schurid(1, 2, 1, 2, 3)
    assert not report.match and report.lhs != report.rhs
    assert len(calls) == 4


def test_verify_schurid_zero_when_fewer_variables_than_rows():
    # both sides vanish, so the identity still holds
    report = verify_schurid(2, 2, 1, 3, 2)
    assert report.match


def test_verify_schurid_unknown_method():
    with pytest.raises(ValueError):
        verify_schurid(1, 1, 1, 1, 2, method="monte-carlo")


def test_square_reduction_grid():
    # acceptance criterion 04 runs the 36 tuples with gamma, alpha < 3 and n < 4
    for gamma, alpha, n in product(range(4), range(4), range(6)):
        if gamma < 3 and alpha < 3 and n < 4:
            continue
        assert verify_square_reduction(gamma, alpha, n).match, (gamma, alpha, n)


def test_verify_box():
    report = verify_box(3, 3, 3)
    assert report.match and report.lhs == report.rhs == "980"


def test_verify_scpp_count():
    assert verify_scpp_count(2, 2, 2).match
    assert verify_scpp_count(3, 3, 3).match  # both sides zero
    assert verify_scpp_count(4, 3, 2).match


def test_verify_middle_line():
    report = verify_middle_line(2, 2, 4, 2)
    assert report.match and report.rhs == "6"
    assert verify_middle_line(3, 3, 6, 2).match
    assert verify_middle_line(5, 3, 4, 2).match


def test_verify_signed_enumeration():
    report = verify_signed_enumeration(2, 3, 3)
    assert report.identity == "signed"
    assert report.match and report.rhs == "1"
    assert verify_signed_enumeration(1, 2, 2).match  # zero on both sides
    all_even = verify_signed_enumeration(2, 2, 2)
    assert all_even.identity == "signed-all-even"
    assert all_even.match and all_even.rhs == "2"


def test_verify_weight_consistency():
    report = verify_weight_consistency(2, 2, 2)
    assert report.match
    assert "components=1" in report.lhs
    vacuous = verify_weight_consistency(1, 1, 1)
    assert vacuous.match
    assert "components=0" in vacuous.lhs


def test_verify_bridge():
    assert verify_specialization_bridge(2, 2, 4).match
    assert verify_specialization_bridge(1, 1, 2).match
    assert verify_specialization_bridge(1, 2, 3).match  # negative-sign case
    assert verify_specialization_bridge(0, 2, 4).match
    with pytest.raises(ValueError):
        verify_specialization_bridge(2, 3, 2)


def test_bridge_on_a_wider_grid():
    # 378 tuples, up to 25-cell rectangles in 12 variables
    tuples = [(g, a, m) for g in range(6) for a in range(6) for m in range(a, 13)]
    assert len(tuples) == 378
    assert [t for t in tuples if not verify_specialization_bridge(*t).match] == []


def test_alternating_value_on_the_largest_rectangle():
    # the bridge's sign rule: (-1)^(gamma*alpha*(alpha+3)/2) times sc_count;
    # the 5 x 7 x 5 box is all odd, so its count is 0, and its neighbours' are not
    for (gamma, alpha, m), count in [((5, 5, 12), 0), ((5, 4, 12), 51450), ((4, 5, 12), 18375)]:
        sign = -1 if (gamma * alpha * (alpha + 3) // 2) % 2 else 1
        assert sc_count(alpha, m - alpha, gamma) == count
        assert specialize_alternating(gamma, alpha, m) == sign * count


def test_bridge_and_alternating_build_no_polynomial(monkeypatch, capsys):
    monkeypatch.setattr(schur, "schur_combination", _refuse)  # the term-map descent
    assert verify_specialization_bridge(3, 3, 7).match
    assert specialize_alternating(3, 2, 6) == -sc_count(2, 4, 3) == -18
    assert main(["schur", "evaluate", "--shape", "2,2", "--n", "3", "--at", "1,1/2,-1"]) == 0
    assert capsys.readouterr().out == '{"value": "5/4"}\n'
    schur._kept.clear()
    with pytest.raises(AssertionError):  # the patch is live for the polynomial route
        schur_tableau_sum((3, 3), 3)


@pytest.mark.parametrize(
    ("run", "charged"),
    [
        (lambda budget: verify_schurid(2, 2, 1, 2, 3, budget=budget), 6),
        (lambda budget: verify_schurid(2, 2, 1, 2, 3, "evaluation-sweep", budget), 6 + 8**4),
        (lambda budget: verify_square_reduction(2, 2, 3, budget), 15),
        (lambda budget: verify_specialization_bridge(2, 2, 4, budget), None),
    ],
)
def test_schur_descents_are_capped_by_the_given_cap(monkeypatch, run, charged):
    # a check given a budget makes no budget with another cap, so no default
    # cap stops its Schur descents; a Schur identity check charges its own
    # budget only the glued terms and grid points, and the bridge its strips
    made = []
    init = WorkBudget.__init__

    def recorded(self, cap=DEFAULT_NODE_CAP):
        made.append(cap)
        init(self, cap)

    cap = 10 * DEFAULT_NODE_CAP
    budget = WorkBudget(cap)
    monkeypatch.setattr(WorkBudget, "__init__", recorded)
    assert run(budget).match
    assert set(made) <= {cap}
    if charged is None:
        assert budget.used == 2 * descent_strip_count(rectangle(2, 2), 4)
    else:
        assert budget.used == charged


def test_budget_threads_through_verifiers():
    with pytest.raises(BudgetExceededError):
        verify_box(4, 4, 4, WorkBudget(5))
    with pytest.raises(BudgetExceededError):
        verify_schurid(1, 2, 2, 2, 3, budget=WorkBudget(2))
    with pytest.raises(BudgetExceededError):
        verify_schurid(1, 1, 1, 1, 2, method="evaluation-sweep", budget=WorkBudget(4))


@pytest.mark.parametrize(
    "run",
    [
        lambda budget: verify_schurid(1, 20, 20, 3, 1, budget=budget),
        lambda budget: verify_schurid(2, 20, 20, 3, 1, method="evaluation-sweep", budget=budget),
        lambda budget: verify_square_reduction(20, 3, 1, budget),
    ],
)
def test_the_cap_stops_the_glued_listing(monkeypatch, run):
    # at gamma1 = gamma2 = 20 and alpha = 3, identity 1 has 230,230 glued terms
    # and identity 2 has 888,030; each term is charged as it is listed, so the
    # cap stops the listing at cap + 1
    listed = []
    strips = verify.horizontal_strips_within

    def counted(lam):
        for pi in strips(lam):
            listed.append(pi)
            yield pi

    monkeypatch.setattr(verify, "horizontal_strips_within", counted)
    with pytest.raises(BudgetExceededError, match="1001 nodes > cap 1000"):
        run(WorkBudget(1000))
    assert 0 < len(listed) <= 1001


def test_uncapped_sweep_stops_at_the_default_cap_before_building(monkeypatch):
    # 22^6 ~ 1.1e8 grid points, charged to a fresh WorkBudget() before any
    # Schur polynomial is built
    def building(*args):
        raise AssertionError("built a Schur polynomial past the cap")

    monkeypatch.setattr(verify, "schur_tableau_sum", building)
    monkeypatch.setattr(verify, "schur_combination", building)  # the glue descent
    with pytest.raises(BudgetExceededError, match="100000001 nodes > cap 100000000"):
        verify_schurid(1, 3, 3, 3, 5, method="evaluation-sweep")


@pytest.mark.parametrize(
    "run",
    [
        lambda budget: verify_schurid(1, 1, 1, 1, -1, budget=budget),
        lambda budget: verify_schurid(1, 1, 1, 1, -1, method="evaluation-sweep", budget=budget),
        lambda budget: verify_square_reduction(1, 1, -1, budget),
    ],
)
def test_variable_count_is_checked_before_any_charge(run):
    budget = WorkBudget(1)
    with pytest.raises(ValueError, match="variable count must be nonnegative"):
        run(budget)
    assert budget.used == 0


def test_reports_are_deterministic():
    first = verify_schurid(1, 2, 1, 1, 2)
    second = verify_schurid(1, 2, 1, 1, 2)
    assert (first.lhs, first.rhs, first.match) == (second.lhs, second.rhs, second.match)
    assert first.parameters == {"gamma1": 2, "gamma2": 1, "alpha": 1, "n": 2}
