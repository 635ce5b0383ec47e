"""End-to-end verification of every identity the package implements.

Each verifier computes both sides by independent routes (brute-force
enumeration vs. closed form, or full polynomial expansion vs. a gluing
construction) and returns a report with deterministic digests of the two
sides.

The Schur product identities have two methods.  Full expansion multiplies
the left-hand factors with ``MPoly.__mul__``; the evaluation sweep compares
values on an integer grid and never multiplies two polynomials, so it is
the one route whose verdict does not depend on ``MPoly.__mul__``.

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
from itertools import product as _cartesian, repeat
from operator import add, mul
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
from scpp.polynomials import MPoly, group_by_first, max_exponent, substitute_groups
from scpp.products import (
    box_count,
    middle_line_product,
    sc_count,
    signed_enumeration_all_even,
    signed_enumeration_product,
)
from scpp.schur import schur_combination, schur_tableau_sum, schur_value, specialize_alternating

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
    which: int, gamma1: int, gamma2: int, alpha: int, n: int, budget: WorkBudget
) -> list[tuple[Partition, int]]:
    """(shape, strip size) pairs for the gluing sum of identity 1 or 2 in
    n + 1 variables.

    Both identities sum over mu inside the alpha x gamma2 rectangle.
    Identity 1 takes lam = mu; identity 2 puts a full first row of length
    gamma2 on top of mu.  In both, pi runs over horizontal strips inside lam
    and the glued shape puts the complement of mu in the alpha x
    (gamma1+gamma2) rectangle, rotated 180 degrees, on top of pi.  Shapes
    with more than n rows are left out, as their Schur polynomial in n
    variables vanishes.  Each term is charged one unit as it is listed,
    kept or not, so a cap stops the listing itself.
    """
    if n < 0:
        raise ValueError("variable count must be nonnegative")
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
            budget.charge()
            if len(top) + len(pi) <= n:
                out.append((top + pi, lam_size - size(pi)))
    return out


def _glue_sum(
    terms: list[tuple[Partition, int]], n: int, budget: WorkBudget | None = None, trailing: int = 1
) -> MPoly:
    """The sum of s_shape(x_1..x_n) * x_{n+1}^strip over the terms, in one
    descent.  With ``trailing`` 0 every strip is 0 and the sum is in
    x_1..x_n alone."""
    states: dict[Partition, dict[int, int]] = {}
    for shape, strip in terms:
        weight = states.setdefault(shape, {})
        weight[strip] = weight.get(strip, 0) + 1
    return MPoly(n + trailing, schur_combination(states, n, trailing, budget))


def _lhs_factors(
    which: int, gamma1: int, gamma2: int, alpha: int, n: int, budget: WorkBudget | None = None
) -> tuple[MPoly, MPoly]:
    first = schur_tableau_sum(rectangle(alpha, gamma1), n, budget)
    second_rows = alpha if which == 1 else alpha + 1
    second = schur_tableau_sum(rectangle(second_rows, gamma2), n + 1, budget)
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
    which by the polynomial identity theorem is also a proof.  The sweep
    specializes by prefix (``_swept_values``), compares the two sides' value
    lists prefix by prefix and hashes their values "v;" in lexicographic
    order of the points, one hash update per prefix and side.  Charges the
    glued terms, and for the sweep one unit per grid point, all before it
    builds any polynomial; each Schur build charges a budget of that cap.
    """
    budget = budget or WorkBudget()
    identity = f"schurid{which}"
    params = {"gamma1": gamma1, "gamma2": gamma2, "alpha": alpha, "n": n}
    terms = _glued_terms(which, gamma1, gamma2, alpha, n, budget)
    bound = alpha * gamma1 + (alpha + 1) * gamma2  # safe per-variable degree bound
    if method == EVALUATION_SWEEP:
        budget.charge((bound + 1) ** (n + 1))
    elif method != FULL_EXPANSION:
        raise ValueError(f"unknown method {method!r}")
    rhs = _glue_sum(terms, n, WorkBudget(budget.cap))
    first, second = _lhs_factors(which, gamma1, gamma2, alpha, n, WorkBudget(budget.cap))

    if method == FULL_EXPANSION:
        return _expansion_report(identity, params, first.lift(n + 1) * second, rhs)

    lhs_hash = hashlib.sha256()
    rhs_hash = hashlib.sha256()
    ok = True
    for lvals, rvals in _swept_values(first, second, rhs, bound):
        data = _value_bytes(lvals)
        lhs_hash.update(data)
        rhs_hash.update(data if lvals == rvals else _value_bytes(rvals))
        ok = ok and lvals == rvals
    return _report(
        identity, params, lhs_hash.hexdigest()[:16], rhs_hash.hexdigest()[:16], ok, method
    )


def _expansion_report(identity, params, lhs: MPoly, rhs: MPoly) -> VerificationReport:
    # a digest is a function of (nvars, terms), so equal sides are digested once
    digest, match = lhs.digest(), lhs == rhs
    rhs_digest = digest if match else rhs.digest()
    return _report(identity, params, digest, rhs_digest, match, FULL_EXPANSION)


def _value_bytes(values: list[int]) -> bytes:
    # the sweep's hash input: "v;" for each value
    return (";".join(map(str, values)) + ";").encode()


def _swept_values(
    first: MPoly, second: MPoly, rhs: MPoly, bound: int
) -> Iterator[tuple[list[int], list[int]]]:
    """(first * second, rhs) on {0..bound}^(n+1), n = ``first.nvars``: one
    pair of value lists per prefix x_1..x_n, in lexicographic order, each
    list holding the values at x_{n+1} = t = 0..bound.

    The walk is depth first.  Each node groups its three term maps once
    (``group_by_first``) and substitutes each coordinate from the groups,
    with powers from a table sized by the largest exponent present.  Below
    the last prefix ``first`` is a constant and the other two are term maps
    in t, evaluated at every t in one pass over their terms.
    """
    coords = range(bound + 1)
    top = max(max_exponent(p.terms, p.nvars) for p in (first, second, rhs))
    rows = [[x**e for e in range(top + 1)] for x in coords]  # rows[x][e] = x**e
    columns = list(zip(*rows))  # columns[e][t] = t**e
    zeros = [0] * len(coords)

    def values(terms: dict) -> list[int]:
        acc = zeros
        for k, c in terms.items():
            acc = list(map(add, acc, map(mul, columns[k], repeat(c))))
        return acc

    def walk(f: dict, s: dict, r: dict, nvars: int) -> Iterator[tuple[list[int], list[int]]]:
        if nvars == 1:
            scale = f.get(0, 0)
            yield [scale * v for v in values(s)] if scale else zeros, values(r)
            return
        groups = group_by_first(f, nvars - 1), group_by_first(s, nvars), group_by_first(r, nvars)
        for row in rows:
            yield from walk(*[substitute_groups(g, row) for g in groups], nvars - 1)

    return walk(first.terms, second.terms, rhs.terms, first.nvars + 1)


def verify_square_reduction(
    gamma: int, alpha: int, n: int, budget: WorkBudget | None = None
) -> VerificationReport:
    """Setting the extra variable to zero with equal widths must reduce the
    gluing sum to the square of a single rectangular Schur polynomial.  The
    terms with a strip vanish there, so only the strip-free glued terms are
    summed, in x_1..x_n, charged as in ``verify_schurid``."""
    params = {"gamma": gamma, "alpha": alpha, "n": n}
    budget = budget or WorkBudget()
    terms = _glued_terms(1, gamma, gamma, alpha, n, budget)
    free = [term for term in terms if term[1] == 0]
    reduced = _glue_sum(free, n, WorkBudget(budget.cap), trailing=0)
    root = schur_tableau_sum(rectangle(alpha, gamma), n, WorkBudget(budget.cap))
    return _expansion_report("square-reduction", params, reduced, root * root)


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
    self-complementary count of the matching box.  Both values come from
    ``schur_value``, the branching rule on numbers, which builds no
    polynomial; ``tests/test_schur.py`` checks it against the polynomial
    route and the tableau count, and ``specialize_alternating`` against the
    limit at q -> -1 in ``tests/oracles.py``.  The counts come from the
    closed products, so the two sides share no route.

    The all-ones value is the box count on the nose.  The alternating value
    carries a parity sign: it equals (-1)^(gamma*alpha*(alpha+3)/2) times
    the self-complementary count, as the factor-pairing limit shows, so the
    comparison is exact including sign.  ``tests/test_verify.py`` checks
    every tuple with gamma, alpha <= 5 and alpha <= m <= 12.
    """
    if m < alpha:
        raise ValueError("argument count must be at least the number of rows")
    params = {"gamma": gamma, "alpha": alpha, "m": m}
    ones = schur_value(rectangle(alpha, gamma), (1,) * m, budget)
    alt = specialize_alternating(gamma, alpha, m, budget)
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
        # the three parity classes: b and c of one parity, not all odd
        Grid((range(7),) * 3, lambda a, b, c: b % 2 == c % 2 and not a % 2 == b % 2 == 1),
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
