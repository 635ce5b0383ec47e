"""End-to-end verification of every identity the package implements.

Each verifier computes both sides by independent routes (brute-force
enumeration vs. closed form, or full polynomial expansion vs. a gluing
construction) and returns a report with deterministic digests of the two
sides.

``IDENTITIES`` is the one table of the checkable identities.  Each row,
keyed by its CLI name, gives the ordered parameter names, the ``verify_*``
function that runs both routes, the standard grid (ranges plus an
admissibility filter) and whether a ``--method`` applies.  The CLI
``verify`` and ``sweep`` commands, ``scripts/run_all_checks.py`` and the
acceptance suite all read it.  To add an identity, write a ``verify_*``
function that takes the parameters in order plus ``budget`` (and
``method`` if it has more than one route), then add one row.
``PFAFFIAN_GRID`` beside it is the standard grid of ``pfaffian_check``.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from functools import partial
from itertools import product as _cartesian
from typing import Callable, Iterator, Sequence

from scpp.budget import WorkBudget
from scpp.partitions import (
    Partition,
    horizontal_strips_within,
    part_at,
    partition,
    partitions_in_rectangle,
    rectangle,
    size,
)
from scpp.pfaffian import CASE_PARITY, CASES
from scpp.plane_partitions import (
    check_move_graph,
    count_pp,
    count_scpp,
    count_scpp_middle_line,
    count_scpp_signed,
)
from scpp.polynomials import MPoly
from scpp.products import (
    box_count,
    middle_line_product,
    sc_count,
    signed_enumeration_all_even,
    signed_enumeration_product,
)
from scpp.schur import schur_tableau_sum, specialize_alternating

FULL_EXPANSION = "full-expansion"
EVALUATION_SWEEP = "evaluation-sweep"
ENUMERATION = "enumeration"
METHODS = (FULL_EXPANSION, EVALUATION_SWEEP)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking one identity at one parameter tuple."""

    identity: str
    parameters: dict[str, int]
    lhs: str
    rhs: str
    match: bool
    method: str
    elapsed: float


def _report(identity, parameters, lhs, rhs, match, method, start) -> VerificationReport:
    return VerificationReport(
        identity=identity,
        parameters=dict(parameters),
        lhs=str(lhs),
        rhs=str(rhs),
        match=bool(match),
        method=method,
        elapsed=time.perf_counter() - start,
    )


# ---------------------------------------------------------------------------
# the two rectangular Schur product identities

def _glued_terms(
    which: int, gamma1: int, gamma2: int, alpha: int, budget: WorkBudget | None
) -> list[tuple[Partition, int]]:
    """(shape, strip size) pairs for the gluing sum of identity 1 or 2.

    Identity 1 sums over shapes lam inside the alpha x gamma2 rectangle;
    identity 2 over shapes inside the (alpha+1) x gamma2 rectangle whose
    first row is full.  In both, pi runs over horizontal strips inside lam
    and the glued shape puts the reversed complement of the lower rows of
    lam on top of pi.
    """
    if gamma1 < gamma2:
        raise ValueError("gamma1 must be at least gamma2")
    if gamma1 < 0 or gamma2 < 0 or alpha < 0:
        raise ValueError("parameters must be nonnegative")
    g = gamma1 + gamma2
    out: list[tuple[Partition, int]] = []
    if which == 1:
        lams = partitions_in_rectangle(alpha, gamma2)
    elif which == 2:
        if gamma2 == 0:
            lams = iter([()])
        else:
            lams = ((gamma2,) + mu for mu in partitions_in_rectangle(alpha, gamma2))
    else:
        raise ValueError("identity selector must be 1 or 2")
    for lam in lams:
        lam_size = size(lam)
        for pi in horizontal_strips_within(lam):
            if budget is not None:
                budget.charge()
            if which == 1:
                top = tuple(g - part_at(lam, alpha - 1 - t) for t in range(alpha))
            else:
                top = tuple(g - part_at(lam, alpha - t) for t in range(alpha))
            shape = partition(top + pi)
            out.append((shape, lam_size - size(pi)))
    return out


def schurid1_rhs(
    gamma1: int, gamma2: int, alpha: int, n: int, budget: WorkBudget | None = None
) -> MPoly:
    """Right-hand side of the first identity as a polynomial in n+1 variables."""
    return _glue_sum(1, gamma1, gamma2, alpha, n, budget)


def schurid2_rhs(
    gamma1: int, gamma2: int, alpha: int, n: int, budget: WorkBudget | None = None
) -> MPoly:
    """Right-hand side of the second identity as a polynomial in n+1 variables."""
    return _glue_sum(2, gamma1, gamma2, alpha, n, budget)


def _glue_sum(
    which: int, gamma1: int, gamma2: int, alpha: int, n: int, budget: WorkBudget | None
) -> MPoly:
    if n < 0:
        raise ValueError("variable count must be nonnegative")
    acc: dict[tuple[int, ...], int] = {}
    for shape, strip in _glued_terms(which, gamma1, gamma2, alpha, budget):
        if len(shape) > n:
            continue  # the Schur polynomial vanishes
        for exps, coeff in schur_tableau_sum(shape, n).terms.items():
            e = exps + (strip,)
            s = acc.get(e, 0) + coeff
            if s:
                acc[e] = s
            else:
                del acc[e]
    return MPoly._raw(n + 1, acc)


def _lhs_factors(which: int, gamma1: int, gamma2: int, alpha: int, n: int) -> tuple[MPoly, MPoly]:
    first = schur_tableau_sum(rectangle(alpha, gamma1), n)
    second_rows = alpha if which == 1 else alpha + 1
    second = schur_tableau_sum(rectangle(second_rows, gamma2), n + 1)
    return first, second


def verify_schurid(
    which: int,
    gamma1: int,
    gamma2: int,
    alpha: int,
    n: int,
    method: str = FULL_EXPANSION,
    budget: WorkBudget | None = None,
) -> VerificationReport:
    """Check one of the two Schur product identities at one parameter tuple.

    full-expansion compares exact term maps; evaluation-sweep compares
    values on an integer grid larger than the per-variable degree bound,
    which by the polynomial identity theorem is also a proof.
    """
    start = time.perf_counter()
    identity = f"schurid{which}"
    params = {"gamma1": gamma1, "gamma2": gamma2, "alpha": alpha, "n": n}
    if gamma1 < gamma2:
        raise ValueError("gamma1 must be at least gamma2")
    first, second = _lhs_factors(which, gamma1, gamma2, alpha, n)

    if method == FULL_EXPANSION:
        lhs = first.lift(n + 1) * second
        rhs = _glue_sum(which, gamma1, gamma2, alpha, n, budget)
        return _report(
            identity, params, lhs.digest(), rhs.digest(), lhs == rhs, method, start
        )

    if method == EVALUATION_SWEEP:
        bound = alpha * gamma1 + (alpha + 1) * gamma2  # safe per-variable degree bound
        terms = [
            (schur_tableau_sum(shape, n), strip)
            for shape, strip in _glued_terms(which, gamma1, gamma2, alpha, budget)
            if len(shape) <= n
        ]
        lhs_hash = hashlib.sha256()
        rhs_hash = hashlib.sha256()
        ok = True
        for point in _cartesian(range(bound + 1), repeat=n + 1):
            if budget is not None:
                budget.charge()
            lval = first.evaluate(point[:n]) * second.evaluate(point)
            rval = sum(
                poly.evaluate(point[:n]) * point[n] ** strip for poly, strip in terms
            )
            if lval != rval:
                ok = False
            lhs_hash.update(str(lval).encode() + b";")
            rhs_hash.update(str(rval).encode() + b";")
        return _report(
            identity,
            params,
            lhs_hash.hexdigest()[:16],
            rhs_hash.hexdigest()[:16],
            ok,
            method,
            start,
        )

    raise ValueError(f"unknown method {method!r}")


def verify_square_reduction(
    gamma: int, alpha: int, n: int, budget: WorkBudget | None = None
) -> VerificationReport:
    """Setting the extra variable to zero with equal widths must reduce the
    gluing sum to the square of a single rectangular Schur polynomial."""
    start = time.perf_counter()
    params = {"gamma": gamma, "alpha": alpha, "n": n}
    reduced = schurid1_rhs(gamma, gamma, alpha, n, budget).restrict_last_zero()
    square = schur_tableau_sum(rectangle(alpha, gamma), n) ** 2
    return _report(
        "square-reduction",
        params,
        reduced.digest(),
        square.digest(),
        reduced == square,
        FULL_EXPANSION,
        start,
    )


# ---------------------------------------------------------------------------
# enumeration vs. closed forms

def verify_box(a: int, b: int, c: int, budget: WorkBudget | None = None) -> VerificationReport:
    start = time.perf_counter()
    brute = count_pp(a, b, c, budget)
    closed = box_count(a, b, c)
    return _report(
        "box", {"a": a, "b": b, "c": c}, brute, closed, brute == closed, ENUMERATION, start
    )


def verify_scpp_count(a: int, b: int, c: int, budget: WorkBudget | None = None) -> VerificationReport:
    start = time.perf_counter()
    brute = count_scpp(a, b, c, budget)
    closed = sc_count(a, b, c)
    return _report(
        "scpp", {"a": a, "b": b, "c": c}, brute, closed, brute == closed, ENUMERATION, start
    )


def verify_middle_line(
    a: int, b: int, c1: int, c2: int, budget: WorkBudget | None = None
) -> VerificationReport:
    start = time.perf_counter()
    brute = count_scpp_middle_line(a, b, c1, c2, budget)
    closed = middle_line_product(a, b, c1, c2)
    return _report(
        "middle-line",
        {"a": a, "b": b, "c1": c1, "c2": c2},
        brute,
        closed,
        brute == closed,
        ENUMERATION,
        start,
    )


def verify_signed_enumeration(
    a: int, b: int, c: int, budget: WorkBudget | None = None
) -> VerificationReport:
    """Signed brute-force total against the closed product, in absolute value
    (the closed form fixes the magnitude only)."""
    start = time.perf_counter()
    signed = count_scpp_signed(a, b, c, budget).signed_total
    if a % 2 == 0 and b % 2 == 0 and c % 2 == 0:
        closed = signed_enumeration_all_even(a, b, c)
        identity = "signed-all-even"
    else:
        closed = signed_enumeration_product(a, b, c)
        identity = "signed"
    return _report(
        identity,
        {"a": a, "b": b, "c": c},
        abs(signed),
        closed,
        abs(signed) == closed,
        ENUMERATION,
        start,
    )


def verify_weight_consistency(
    a: int, b: int, c: int, budget: WorkBudget | None = None
) -> VerificationReport:
    """Move-graph connectivity plus a sign flip across every single move."""
    start = time.perf_counter()
    report = check_move_graph(a, b, c, budget)
    lhs = f"components={report.components};sign_flips_ok={report.sign_flips_consistent}"
    rhs = f"components={min(report.components, 1)};sign_flips_ok=True"
    return _report(
        "weight",
        {"a": a, "b": b, "c": c},
        lhs,
        rhs,
        lhs == rhs,
        ENUMERATION,
        start,
    )


def verify_specialization_bridge(
    gamma: int, alpha: int, m: int, budget: WorkBudget | None = None
) -> VerificationReport:
    """Tableau-sum evaluations at all-ones and alternating points must equal
    the box count and the signed self-complementary count of the matching box.

    The all-ones value is the box count on the nose.  The alternating value
    carries a parity sign: it equals (-1)^(gamma*alpha*(alpha+3)/2) times
    the self-complementary count, as the factor-pairing limit shows, so the
    comparison is exact including sign.
    """
    start = time.perf_counter()
    if m < alpha:
        raise ValueError("argument count must be at least the number of rows")
    params = {"gamma": gamma, "alpha": alpha, "m": m}
    ones = schur_tableau_sum(rectangle(alpha, gamma), m).evaluate((1,) * m)
    alt = specialize_alternating(gamma, alpha, m)
    box = box_count(alpha, m - alpha, gamma)
    sign = -1 if (gamma * alpha * (alpha + 3) // 2) % 2 else 1
    sc = sign * sc_count(alpha, m - alpha, gamma)
    lhs = f"ones={ones};alternating={alt}"
    rhs = f"ones={box};alternating={sc}"
    return _report("bridge", params, lhs, rhs, lhs == rhs, "evaluation", start)


# ---------------------------------------------------------------------------
# the verification table

@dataclass(frozen=True)
class Grid:
    """The tuples of a cartesian product of ranges that pass ``admissible``."""

    ranges: tuple[Sequence, ...]
    admissible: Callable[..., bool] = lambda *values: True

    def __iter__(self) -> Iterator[tuple]:
        return (t for t in _cartesian(*self.ranges) if self.admissible(*t))


@dataclass(frozen=True)
class Identity:
    """One checkable identity: its parameters, both routes and standard grid."""

    params: tuple[str, ...]
    verify: Callable[..., VerificationReport]
    grid: Grid
    takes_method: bool = False

    def run(
        self, values: Sequence[int], budget: WorkBudget | None = None, method: str | None = None
    ) -> VerificationReport:
        """Check the identity at one tuple, given in ``params`` order."""
        if self.takes_method:
            return self.verify(*values, method=method or FULL_EXPANSION, budget=budget)
        return self.verify(*values, budget=budget)


_BOX = ("a", "b", "c")
_SCHURID = ("gamma1", "gamma2", "alpha", "n")
_SCHURID_GRID = Grid((range(4), range(4), range(4), range(5)), lambda g1, g2, alpha, n: g2 <= g1)

IDENTITIES: dict[str, Identity] = {
    "box": Identity(_BOX, verify_box, Grid((range(5),) * 3)),
    # all-odd boxes stay in: both routes give 0 there
    "scpp": Identity(_BOX, verify_scpp_count, Grid((range(7),) * 3)),
    "middle-line": Identity(
        ("a", "b", "c1", "c2"),
        verify_middle_line,
        Grid(
            (range(6), range(6), range(0, 7, 2), range(0, 7, 2)),
            lambda a, b, c1, c2: not (a % 2 == 0 and b % 2) and c2 <= c1,
        ),
    ),
    "signed": Identity(
        _BOX,
        verify_signed_enumeration,
        Grid((range(7),) * 3, lambda a, b, c: (a % 2, b % 2, c % 2) in ((0, 1, 1), (1, 0, 0))),
    ),
    "schurid1": Identity(_SCHURID, partial(verify_schurid, 1), _SCHURID_GRID, takes_method=True),
    "schurid2": Identity(_SCHURID, partial(verify_schurid, 2), _SCHURID_GRID, takes_method=True),
    "square-reduction": Identity(
        ("gamma", "alpha", "n"), verify_square_reduction, Grid((range(3), range(3), range(4)))
    ),
    "weight": Identity(
        _BOX,
        verify_weight_consistency,
        Grid((range(5),) * 3, lambda a, b, c: not (a % 2 and b % 2 and c % 2)),
    ),
    "bridge": Identity(
        ("gamma", "alpha", "m"),
        verify_specialization_bridge,
        Grid((range(4), range(4), range(8)), lambda gamma, alpha, m: m >= alpha),
    ),
}

# (case, a, b, c1, c2) for pfaffian_check
PFAFFIAN_GRID = Grid(
    (CASES, range(7), range(7), range(0, 9, 2), range(0, 9, 2)),
    lambda case, a, b, c1, c2: (a % 2, b % 2) == CASE_PARITY[case][0] and c2 <= c1,
)
