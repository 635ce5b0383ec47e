"""Acceptance suite: every closed form is checked against its independent
route on the full stated grid, exactly, within a time budget.  Criteria
01 to 09 run the rows of the verification table over their standard grids.

Each test prints one criterion line; run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time

from oracles import schur_determinant_oracle
from scpp.partitions import partitions_in_rectangle
from scpp.schur import schur_tableau_sum
from scpp.verify import IDENTITIES


def _pass(number: int, label: str, start: float) -> None:
    print(f"[criterion {number:2d}] {label}: PASS ({time.perf_counter() - start:.1f}s)")


def _grid(name: str, expected_size: int) -> list[tuple]:
    """The standard grid of one identity, checked to have its stated size."""
    tuples = list(IDENTITIES[name].grid)
    assert len(tuples) == expected_size, (name, len(tuples))
    return tuples


def _all_match(name: str, expected_size: int) -> None:
    """Check one identity at every tuple of its standard grid."""
    for values in _grid(name, expected_size):
        report = IDENTITIES[name].run(values)
        assert report.match, (name, values, report.lhs, report.rhs)


def test_criterion_01_box_formula():
    start = time.perf_counter()
    _all_match("box", 125)
    _pass(1, "box product equals exhaustive count for sides <= 4", start)


def test_criterion_02_self_complementary_counts():
    start = time.perf_counter()
    _all_match("scpp", 343)
    _pass(2, "self-complementary product equals exhaustive count for sides <= 6", start)


def test_criterion_03_schur_product_identities():
    start = time.perf_counter()
    swept = 0
    for which in (1, 2):
        name = f"schurid{which}"
        _all_match(name, 240)
        # the evaluation sweep too, wherever its grid has at most 2 * 10^4 points
        for gamma1, gamma2, alpha, n in _grid(name, 240):
            if (alpha * gamma1 + (alpha + 1) * gamma2 + 1) ** (n + 1) <= 2 * 10**4:
                values = (gamma1, gamma2, alpha, n)
                report = IDENTITIES[name].run(values, method="evaluation-sweep")
                assert report.match, (name, values)
                swept += 1
    assert swept == 402
    _pass(3, "both product identities hold as exact polynomials on the grid", start)


def test_criterion_04_square_reduction():
    start = time.perf_counter()
    _all_match("square-reduction", 36)
    _pass(4, "extra variable at zero reduces the gluing sum to the Schur square", start)


def test_criterion_05_middle_line_counts():
    start = time.perf_counter()
    _all_match("middle-line", 270)
    _pass(5, "middle-line counts equal the closed products (all three parity cases)", start)


def test_criterion_06_signed_enumeration():
    start = time.perf_counter()
    signed = IDENTITIES["signed"]
    for a, b, c in _grid("signed", 148):
        report = signed.run((a, b, c))
        all_even = a % 2 == b % 2 == c % 2 == 0
        assert report.identity == ("signed-all-even" if all_even else "signed"), (a, b, c)
        assert report.match, (a, b, c, report.lhs, report.rhs)
    _pass(6, "signed totals match both closed products in absolute value", start)


def test_criterion_07_pfaffian_corollary():
    start = time.perf_counter()
    _all_match("pfaffian", 555)
    _pass(7, "sign-adjusted Pfaffians equal the products, with Pf^2 = det throughout", start)


def test_criterion_08_weight_well_definedness():
    # the exact component count: 1 when the box holds an array, 0 when not
    start = time.perf_counter()
    _all_match("weight", 117)
    _pass(8, "move graphs are connected and every move flips the weight", start)


def test_criterion_09_specialization_bridge():
    start = time.perf_counter()
    _all_match("bridge", 104)
    _pass(9, "all-ones and alternating evaluations match the box counts", start)


def test_criterion_10_schur_oracle_equivalence():
    start = time.perf_counter()
    for lam in partitions_in_rectangle(4, 4):
        for n in range(5):
            assert schur_tableau_sum(lam, n) == schur_determinant_oracle(lam, n), (lam, n)
    _pass(10, "branching-rule Schur polynomials equal the tests/oracles.py determinant on the 4x4 grid", start)
