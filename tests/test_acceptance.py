"""Acceptance suite: every closed form is checked against its independent
brute-force oracle on the full stated grid, exactly, within a time budget.

Each test prints one criterion line; run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time

from oracles import schur_determinant_oracle
from scpp.partitions import partitions_in_rectangle
from scpp.pfaffian import corollary_matrix, exact_determinant, pfaffian
from scpp.plane_partitions import (
    check_move_graph,
    count_pp,
    count_scpp,
    count_scpp_middle_line,
)
from scpp.products import box_count, middle_line_product, sc_count
from scpp.schur import schur_tableau_sum
from scpp.verify import IDENTITIES, PFAFFIAN_GRID


def _pass(number: int, label: str, start: float) -> None:
    print(f"[criterion {number:2d}] {label}: PASS ({time.perf_counter() - start:.1f}s)")


def _grid(name: str, expected_size: int) -> list[tuple]:
    """The standard grid of one identity, checked to have its stated size."""
    tuples = list(IDENTITIES[name].grid)
    assert len(tuples) == expected_size, (name, len(tuples))
    return tuples


def test_criterion_01_box_formula():
    start = time.perf_counter()
    for a, b, c in _grid("box", 125):
        assert count_pp(a, b, c) == box_count(a, b, c), (a, b, c)
    _pass(1, "box product equals exhaustive count for sides <= 4", start)


def test_criterion_02_self_complementary_counts():
    start = time.perf_counter()
    for a, b, c in _grid("scpp", 343):
        if a % 2 and b % 2 and c % 2:
            assert sc_count(a, b, c) == 0
            continue
        assert count_scpp(a, b, c) == sc_count(a, b, c), (a, b, c)
    _pass(2, "self-complementary product equals exhaustive count for sides <= 6", start)


def test_criterion_03_schur_product_identities():
    start = time.perf_counter()
    for which in (1, 2):
        for gamma1, gamma2, alpha, n in _grid(f"schurid{which}", 240):
            report = IDENTITIES[f"schurid{which}"].run((gamma1, gamma2, alpha, n))
            assert report.match, (which, gamma1, gamma2, alpha, n)
    _pass(3, "both product identities hold as exact polynomials on the grid", start)


def test_criterion_04_square_reduction():
    start = time.perf_counter()
    for gamma, alpha, n in _grid("square-reduction", 36):
        report = IDENTITIES["square-reduction"].run((gamma, alpha, n))
        assert report.match, (gamma, alpha, n)
    _pass(4, "extra variable at zero reduces the gluing sum to the Schur square", start)


def test_criterion_05_middle_line_counts():
    start = time.perf_counter()
    for a, b, c1, c2 in _grid("middle-line", 270):
        brute = count_scpp_middle_line(a, b, c1, c2)
        closed = middle_line_product(a, b, c1, c2)
        assert brute == closed, (a, b, c1, c2, brute, closed)
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
    tuples = list(PFAFFIAN_GRID)
    assert len(tuples) == 555
    for case, a, b, c1, c2 in tuples:
        # one build of each matrix serves both comparisons
        matrix, prefactor = corollary_matrix(case, a, b, c1, c2)
        pf = pfaffian(matrix)
        assert prefactor * pf == middle_line_product(a, b, c1, c2), (case, a, b, c1, c2)
        assert pf * pf == exact_determinant(matrix.entries), (case, a, b, c1, c2)
    _pass(7, "sign-adjusted Pfaffians equal the products, with Pf^2 = det throughout", start)


def test_criterion_08_weight_well_definedness():
    start = time.perf_counter()
    for a, b, c in _grid("weight", 117):
        report = check_move_graph(a, b, c)
        assert report.components <= 1, (a, b, c, report)
        assert report.sign_flips_consistent, (a, b, c, report)
    _pass(8, "move graphs are connected and every move flips the weight", start)


def test_criterion_09_specialization_bridge():
    start = time.perf_counter()
    for gamma, alpha, m in _grid("bridge", 104):
        report = IDENTITIES["bridge"].run((gamma, alpha, m))
        assert report.match, (gamma, alpha, m, report.lhs, report.rhs)
    _pass(9, "all-ones and alternating evaluations match the box counts", start)


def test_criterion_10_schur_oracle_equivalence():
    start = time.perf_counter()
    for lam in partitions_in_rectangle(4, 4):
        for n in range(5):
            assert schur_tableau_sum(lam, n) == schur_determinant_oracle(lam, n), (lam, n)
    _pass(10, "branching-rule Schur polynomials equal the tests/oracles.py determinant on the 4x4 grid", start)
