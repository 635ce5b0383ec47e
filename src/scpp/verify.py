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
from dataclasses import dataclass
from functools import partial
from itertools import product as _cartesian
from typing import Callable, Iterator, Sequence

from scpp.budget import WorkBudget
from scpp.partitions import (
    Partition,
    horizontal_strips_within,
    partitions_in_rectangle,
    rectangle,
    rotated_complement,
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


def _report(identity, parameters, lhs, rhs, match, method) -> VerificationReport:
    return VerificationReport(
        identity=identity,
        parameters=dict(parameters),
        lhs=str(lhs),
        rhs=str(rhs),
        match=bool(match),
        method=method,
    )


# ---------------------------------------------------------------------------
# the two rectangular Schur product identities

def _glued_terms(
    which: int, gamma1: int, gamma2: int, alpha: int, budget: WorkBudget | None
) -> list[tuple[Partition, int]]:
    """(shape, strip size) pairs for the gluing sum of identity 1 or 2.

    Both identities sum over mu inside the alpha x gamma2 rectangle.
    Identity 1 takes lam = mu; identity 2 puts a full first row of length
    gamma2 on top of mu.  In both, pi runs over horizontal strips inside lam
    and the glued shape puts the complement of mu in the alpha x
    (gamma1+gamma2) rectangle, rotated 180 degrees, on top of pi.
    """
    if gamma1 < gamma2:
        raise ValueError("gamma1 must be at least gamma2")
    if which not in (1, 2):
        raise ValueError("identity selector must be 1 or 2")
    out: list[tuple[Partition, int]] = []
    for mu in partitions_in_rectangle(alpha, gamma2):
        top = rotated_complement(mu, alpha, gamma1 + gamma2)
        lam = mu if which == 1 else rectangle(1, gamma2) + mu
        lam_size = size(lam)
        for pi in horizontal_strips_within(lam):
            if budget is not None:
                budget.charge()
            out.append((top + pi, lam_size - size(pi)))
    return out


def _rhs_terms(
    which: int, gamma1: int, gamma2: int, alpha: int, n: int, budget: WorkBudget | None
) -> list[tuple[MPoly, int]]:
    """(Schur polynomial in n variables, strip size) for each glued shape;
    shapes with more than n rows are left out, as their polynomial vanishes."""
    terms = _glued_terms(which, gamma1, gamma2, alpha, budget)
    if n < 0:
        raise ValueError("variable count must be nonnegative")
    return [(schur_tableau_sum(shape, n), strip) for shape, strip in terms if len(shape) <= n]


def schurid_rhs(
    which: int, gamma1: int, gamma2: int, alpha: int, n: int, budget: WorkBudget | None = None
) -> MPoly:
    """Right-hand side of identity 1 or 2 as a polynomial in n+1 variables."""
    return _glue_sum(_rhs_terms(which, gamma1, gamma2, alpha, n, budget), n)


def _glue_sum(terms: list[tuple[MPoly, int]], n: int) -> MPoly:
    """The sum of poly * x_{n+1}^strip over the terms."""
    acc: dict[tuple[int, ...], int] = {}
    for poly, strip in terms:
        for exps, coeff in poly.terms.items():
            e = exps + (strip,)
            s = acc.get(e, 0) + coeff
            if s:
                acc[e] = s
            else:
                del acc[e]
    return MPoly(n + 1, acc)


def _by_last_exponent(poly: MPoly) -> list[tuple[int, MPoly]]:
    """(k, coefficient of x_last^k as a polynomial in the other variables)
    for each power k of the last variable that occurs in poly."""
    parts: dict[int, dict[tuple[int, ...], int]] = {}
    for exps, coeff in poly.terms.items():
        parts.setdefault(exps[-1], {})[exps[:-1]] = coeff
    return [(k, MPoly(poly.nvars - 1, part)) for k, part in parts.items()]


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
    identity = f"schurid{which}"
    params = {"gamma1": gamma1, "gamma2": gamma2, "alpha": alpha, "n": n}
    rhs = schurid_rhs(which, gamma1, gamma2, alpha, n, budget)
    first, second = _lhs_factors(which, gamma1, gamma2, alpha, n)

    if method == FULL_EXPANSION:
        lhs = first.lift(n + 1) * second
        return _report(identity, params, lhs.digest(), rhs.digest(), lhs == rhs, method)

    if method == EVALUATION_SWEEP:
        bound = alpha * gamma1 + (alpha + 1) * gamma2  # safe per-variable degree bound
        coords = range(bound + 1)
        second_parts = _by_last_exponent(second)
        rhs_parts = _by_last_exponent(rhs)
        lhs_hash = hashlib.sha256()
        rhs_hash = hashlib.sha256()
        ok = True
        # the points in lexicographic order, the last coordinate t innermost;
        # for a fixed prefix both sides are polynomials in t
        for prefix in _cartesian(coords, repeat=n):
            scale = first.evaluate(prefix)
            lhs_in_t = [(k, scale * part.evaluate(prefix)) for k, part in second_parts]
            rhs_in_t = [(k, part.evaluate(prefix)) for k, part in rhs_parts]
            for t in coords:
                if budget is not None:
                    budget.charge()
                lval = sum(c * t**k for k, c in lhs_in_t)
                rval = sum(c * t**k for k, c in rhs_in_t)
                if lval != rval:
                    ok = False
                lhs_hash.update(str(lval).encode() + b";")
                rhs_hash.update(str(rval).encode() + b";")
        return _report(
            identity, params, lhs_hash.hexdigest()[:16], rhs_hash.hexdigest()[:16], ok, method
        )

    raise ValueError(f"unknown method {method!r}")


def verify_square_reduction(
    gamma: int, alpha: int, n: int, budget: WorkBudget | None = None
) -> VerificationReport:
    """Setting the extra variable to zero with equal widths must reduce the
    gluing sum to the square of a single rectangular Schur polynomial."""
    params = {"gamma": gamma, "alpha": alpha, "n": n}
    reduced = schurid_rhs(1, gamma, gamma, alpha, n, budget).restrict_last_zero()
    square = schur_tableau_sum(rectangle(alpha, gamma), n) ** 2
    return _report(
        "square-reduction",
        params,
        reduced.digest(),
        square.digest(),
        reduced == square,
        FULL_EXPANSION,
    )


# ---------------------------------------------------------------------------
# enumeration vs. closed forms

def verify_box(a: int, b: int, c: int, budget: WorkBudget | None = None) -> VerificationReport:
    brute = count_pp(a, b, c, budget)
    closed = box_count(a, b, c)
    return _report(
        "box", {"a": a, "b": b, "c": c}, brute, closed, brute == closed, ENUMERATION
    )


def verify_scpp_count(a: int, b: int, c: int, budget: WorkBudget | None = None) -> VerificationReport:
    brute = count_scpp(a, b, c, budget)
    closed = sc_count(a, b, c)
    return _report(
        "scpp", {"a": a, "b": b, "c": c}, brute, closed, brute == closed, ENUMERATION
    )


def verify_middle_line(
    a: int, b: int, c1: int, c2: int, budget: WorkBudget | None = None
) -> VerificationReport:
    brute = count_scpp_middle_line(a, b, c1, c2, budget)
    closed = middle_line_product(a, b, c1, c2)
    return _report(
        "middle-line",
        {"a": a, "b": b, "c1": c1, "c2": c2},
        brute,
        closed,
        brute == closed,
        ENUMERATION,
    )


def verify_signed_enumeration(
    a: int, b: int, c: int, budget: WorkBudget | None = None
) -> VerificationReport:
    """Signed brute-force total against the closed product, in absolute value
    (the closed form fixes the magnitude only)."""
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
    )


def verify_weight_consistency(
    a: int, b: int, c: int, budget: WorkBudget | None = None
) -> VerificationReport:
    """Move-graph connectivity plus a sign flip across every single move."""
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
    )


def verify_specialization_bridge(
    gamma: int, alpha: int, m: int, budget: WorkBudget | None = None
) -> VerificationReport:
    """Evaluations of the rectangular Schur polynomial at all-ones and
    alternating points must equal the box count and the signed
    self-complementary count of the matching box.  The polynomial comes
    from the branching rule (``schur_tableau_sum``), which the oracles in
    ``tests/oracles.py`` check; the counts come from the closed products, so
    the two sides share no route.

    The all-ones value is the box count on the nose.  The alternating value
    carries a parity sign: it equals (-1)^(gamma*alpha*(alpha+3)/2) times
    the self-complementary count, as the factor-pairing limit shows, so the
    comparison is exact including sign.
    """
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
    return _report("bridge", params, lhs, rhs, lhs == rhs, "evaluation")


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
_LINE = ("a", "b", "c1", "c2")
_SCHURID = ("gamma1", "gamma2", "alpha", "n")
_SCHURID_GRID = Grid((range(4), range(4), range(4), range(6)), lambda g1, g2, alpha, n: g2 <= g1)

IDENTITIES: dict[str, Identity] = {
    "box": Identity(_BOX, verify_box, Grid((range(5),) * 3)),
    # all-odd boxes stay in: both routes give 0 there
    "scpp": Identity(_BOX, verify_scpp_count, Grid((range(7),) * 3)),
    "middle-line": Identity(
        _LINE,
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
