from itertools import product

import pytest

from scpp import verify
from scpp.budget import BudgetExceededError, WorkBudget
from scpp.polynomials import MPoly
from scpp.schur import schur_tableau_sum
from scpp.verify import (
    schurid_rhs,
    verify_box,
    verify_middle_line,
    verify_schurid,
    verify_scpp_count,
    verify_signed_enumeration,
    verify_specialization_bridge,
    verify_square_reduction,
    verify_weight_consistency,
)


def test_rhs_identity1_trivial_cases():
    # empty rectangle: single term equal to the plain Schur polynomial
    assert schurid_rhs(1, 2, 0, 2, 3) == schur_tableau_sum((2, 2), 3).lift(4)
    # no rows at all: the constant 1
    assert schurid_rhs(1, 3, 2, 0, 2) == MPoly.const(3, 1)


def test_rhs_identity1_small_product():
    lhs = schur_tableau_sum((1,), 2).lift(3) * schur_tableau_sum((1,), 3)
    assert schurid_rhs(1, 1, 1, 1, 2) == lhs


def test_rhs_identity2_trivial_cases():
    assert schurid_rhs(2, 2, 0, 1, 2) == schur_tableau_sum((2,), 2).lift(3)
    # one forced row: reproduces the single Schur factor in n+1 variables
    lhs = schur_tableau_sum((1,), 2)
    assert schurid_rhs(2, 1, 1, 0, 1) == lhs


def test_rhs_rejects_decreasing_widths():
    with pytest.raises(ValueError):
        schurid_rhs(1, 1, 2, 1, 2)
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
    rhs = verify._glue_sum(verify._rhs_terms(which, gamma1, gamma2, alpha, n, WorkBudget()), n)
    first, second = verify._lhs_factors(which, gamma1, gamma2, alpha, n)
    return first, second, rhs, alpha * gamma1 + (alpha + 1) * gamma2


# tuples of the benchmark's sweeps with a nonconstant first factor, so that
# the right-hand side is not symmetric in all n + 1 variables
SWEEP_TUPLES = [(1, 2, 0, 2, 3), (1, 1, 1, 1, 3), (1, 2, 2, 1, 2), (2, 2, 1, 1, 3), (2, 2, 2, 1, 2)]


@pytest.mark.parametrize(("which", "gamma1", "gamma2", "alpha", "n"), SWEEP_TUPLES)
def test_sweep_walk_matches_pointwise_evaluation(which, gamma1, gamma2, alpha, n):
    first, second, rhs, bound = _sweep_inputs(which, gamma1, gamma2, alpha, n)
    expected = [
        (first.evaluate(point[:-1]) * second.evaluate(point), rhs.evaluate(point))
        for point in product(range(bound + 1), repeat=n + 1)
    ]
    assert list(verify._swept_values(first, second, rhs, bound)) == expected


def test_sweep_substitutes_once_per_prefix(monkeypatch):
    calls = []
    kernel = verify.substitute_first
    monkeypatch.setattr(verify, "substitute_first", lambda *args: calls.append(1) or kernel(*args))
    monkeypatch.setattr(verify.MPoly, "evaluate", None)  # the sweep must not call it
    which, gamma1, gamma2, alpha, n = SWEEP_TUPLES[0]
    report = verify_schurid(which, gamma1, gamma2, alpha, n, method="evaluation-sweep")
    assert report.match
    bound = alpha * gamma1 + (alpha + 1) * gamma2
    # three term maps at each node x_1..x_k, k = 1..n, of the prefix tree
    assert len(calls) == 3 * sum((bound + 1) ** k for k in range(1, n + 1))


def test_verify_schurid_zero_when_fewer_variables_than_rows():
    # both sides vanish, so the identity still holds
    report = verify_schurid(2, 2, 1, 3, 2)
    assert report.match


def test_verify_schurid_unknown_method():
    with pytest.raises(ValueError):
        verify_schurid(1, 1, 1, 1, 2, method="monte-carlo")


def test_square_reduction_grid():
    for gamma in range(3):
        for alpha in range(3):
            for n in range(4):
                assert verify_square_reduction(gamma, alpha, n).match


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


def test_budget_threads_through_verifiers():
    with pytest.raises(BudgetExceededError):
        verify_box(4, 4, 4, WorkBudget(5))
    with pytest.raises(BudgetExceededError):
        verify_schurid(1, 2, 2, 2, 3, budget=WorkBudget(2))
    with pytest.raises(BudgetExceededError):
        verify_schurid(1, 1, 1, 1, 2, method="evaluation-sweep", budget=WorkBudget(4))


def test_uncapped_sweep_stops_at_the_default_cap_before_building(monkeypatch):
    # 22^6 ~ 1.1e8 grid points, charged to a fresh WorkBudget() before any
    # Schur polynomial is built
    def building(*args):
        raise AssertionError("built a Schur polynomial past the cap")

    monkeypatch.setattr(verify, "schur_tableau_sum", building)
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
