"""End-to-end verification of every identity the package implements.

``IDENTITIES`` is the one table of the checkable identities.  Each row,
keyed by its CLI name, names the two sides of its identity: two routes,
such as an exhaustive count and a closed form, or a full polynomial
expansion and a gluing construction.  A side is a callable of
``(*values, budget=...)``.  A row also gives the ordered parameter names,
the method its report names, ``shares`` (the ``scpp`` functions both sides
may call) and the standard grid.  The CLI ``verify`` and ``sweep``
commands, ``scripts/run_all_checks.py`` and the acceptance suite all read
it.  To add an identity, add one row.  ``FAILURES`` gives the code of
each exception a check may raise; ``verify``, ``sweep`` and
``scripts/run_all_checks.py`` read it through ``failure``.

``tests/test_layout.py`` traces each row's sides on a few grid tuples and
fails unless the functions both call are the ones ``shares`` lists.  The
enumeration rows and the Pfaffian share only their parameter checks, the
bridge nothing, and the Schur rows the branching descent of
``scpp.schur``, until one side gets a route without it (a
Littlewood-Richardson product, say).

The Schur product identities have a second method, the evaluation sweep:
it compares values on an integer grid, with the values along the last
coordinate packed into one integer per prefix.  It walks the branching
rule of ``scpp.schur`` on numbers, for the two factors and the gluing sum
side by side, and builds no polynomial: it shares only the strip listing
(``scpp.schur._strips``) with full expansion, and its verdict depends on
neither ``MPoly.__mul__`` nor the term-map descent.  It never forms the
left side, so it is one function that gives both sides' digests and
their verdict, not a pair of sides.

The ``pfaffian`` row reads the bordered binomial case off the parities of
a and b, and builds the case's matrix once for its Pfaffian and its
determinant, to compare with the middle-line product and its square.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cache, partial
from itertools import product as _cartesian
from typing import Callable, Iterable, Iterator, Sequence

from scpp.budget import BudgetExceededError, WorkBudget
from scpp.partitions import (
    Partition,
    horizontal_strips_within,
    part_at,
    partitions_in_rectangle,
    rectangle,
    rotated_complement,
    size,
)
from scpp.pfaffian import CASE_PARITY, corollary_pfaffian, exact_determinant
from scpp.plane_partitions import (
    check_move_graph,
    count_pp,
    count_scpp,
    count_scpp_middle_line,
    count_scpp_signed,
)
from scpp.polynomials import MPoly, field_reader
from scpp.products import (
    ParityError,
    box_count,
    check_middle_line_params,
    middle_line_product,
    sc_count,
    signed_enumeration_all_even,
    signed_enumeration_product,
)
from scpp.schur import (
    _strips,
    schur_combination,
    schur_tableau_sum,
    schur_value,
    specialize_alternating,
)

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


# ---------------------------------------------------------------------------
# the two rectangular Schur product identities

def _check_widths(gamma1: int, gamma2: int, n: int) -> None:
    """The checks both sides of a Schur identity make before any work."""
    if n < 0:
        raise ValueError("variable count must be nonnegative")
    if gamma1 < gamma2:
        raise ValueError("gamma1 must be at least gamma2")


def _glue(
    alpha: int, gamma1: int, gamma2: int, n: int, budget: WorkBudget,
    strips: Callable[[Partition], tuple[Partition, Iterable[Partition]]],
) -> list[tuple[Partition, int]]:
    """(shape, strip size) pairs of a gluing sum in n + 1 variables.

    For each mu in the alpha x gamma2 rectangle, ``strips(mu)`` gives lam
    and the pi inside it, of strip size |lam| - |pi|.  The glued shape puts
    the complement of mu in the alpha x (gamma1+gamma2) rectangle, rotated
    180 degrees, on top of pi.  Shapes with more than n rows are left out,
    as their Schur polynomial in n variables vanishes.  Each pi is charged
    one unit as it is listed, kept or not, so a cap stops the listing itself.
    """
    _check_widths(gamma1, gamma2, n)
    out: list[tuple[Partition, int]] = []
    for mu in partitions_in_rectangle(alpha, gamma2):
        top = rotated_complement(mu, alpha, gamma1 + gamma2)
        lam, pis = strips(mu)
        lam_size = size(lam)
        for pi in pis:
            budget.charge()
            if len(top) + len(pi) <= n:
                out.append((top + pi, lam_size - size(pi)))
    return out


def _glued_terms(
    which: int, gamma1: int, gamma2: int, alpha: int, n: int, budget: WorkBudget
) -> list[tuple[Partition, int]]:
    """The glued terms of identity 1 or 2: pi runs over the horizontal
    strips inside lam, where identity 1 takes lam = mu and identity 2 puts
    a full first row of length gamma2 on top of mu."""
    def strips(mu: Partition) -> tuple[Partition, Iterator[Partition]]:
        lam = mu if which == 1 else rectangle(1, gamma2) + mu
        return lam, horizontal_strips_within(lam)

    return _glue(alpha, gamma1, gamma2, n, budget, strips)


def _glue_sum(
    terms: list[tuple[Partition, int]], n: int, budget: WorkBudget, trailing: int = 1
) -> MPoly:
    """The sum of s_shape(x_1..x_n) * x_{n+1}^strip over the terms, in one
    descent.  With ``trailing`` 0 every strip is 0 and the sum is in
    x_1..x_n alone."""
    states: dict[Partition, dict[int, int]] = {}
    for shape, strip in terms:
        weight = states.setdefault(shape, {})
        weight[strip] = weight.get(strip, 0) + 1
    return MPoly(n + trailing, schur_combination(states, n, trailing, budget))


def _factor_product(
    which: int, gamma1: int, gamma2: int, alpha: int, n: int, budget: WorkBudget
) -> MPoly:
    """The left side of identity 1 or 2, expanded: s_{alpha x gamma1} in
    x_1..x_n times s_{alpha x gamma2} (identity 1) or s_{(alpha+1) x gamma2}
    (identity 2) in x_1..x_{n+1}.  Both factor builds charge ``budget``."""
    _check_widths(gamma1, gamma2, n)
    first = schur_tableau_sum(rectangle(alpha, gamma1), n, budget).lift(n + 1)
    return first * schur_tableau_sum(rectangle(alpha + which - 1, gamma2), n + 1, budget)


def _glued_sum(
    which: int, gamma1: int, gamma2: int, alpha: int, n: int, budget: WorkBudget
) -> MPoly:
    """The right side of identity 1 or 2: its glued terms and their sum,
    both charged to ``budget``."""
    terms = _glued_terms(which, gamma1, gamma2, alpha, n, budget)
    return _glue_sum(terms, n, budget)


def _swept_digests(
    which: int, gamma1: int, gamma2: int, alpha: int, n: int, budget: WorkBudget
) -> tuple[str, str, bool]:
    """The two digests of identity 1 or 2 by the evaluation sweep, and
    whether they match: values on an integer grid larger than the
    per-variable degree bound, which by the polynomial identity theorem is
    also a proof.  ``_swept_values`` gives the two sides' values at each
    prefix as two packed integers, compared whole, and the values "v;" are
    hashed in lexicographic order of the points, one hash update per
    prefix and side.  Charges the glued terms and one unit per grid point
    before any descent, then each strip list the walk reads, once."""
    terms = _glued_terms(which, gamma1, gamma2, alpha, n, budget)
    bound = alpha * gamma1 + (alpha + 1) * gamma2  # safe per-variable degree bound
    budget.charge((bound + 1) ** (n + 1))
    first, second = rectangle(alpha, gamma1), rectangle(alpha + which - 1, gamma2)
    lhs_hash = hashlib.sha256()
    rhs_hash = hashlib.sha256()
    ok = True
    for lvals, rvals in _swept_values(first, second, terms, n, bound, budget):
        data = _value_bytes(lvals)
        lhs_hash.update(data)
        rhs_hash.update(data if lvals == rvals else _value_bytes(rvals))
        ok = ok and lvals == rvals
    return lhs_hash.hexdigest()[:16], rhs_hash.hexdigest()[:16], ok


def _value_bytes(values: Sequence[int]) -> bytes:
    # the sweep's hash input: "v;" for each value
    return (";".join(map(str, values)) + ";").encode()


def _swept_values(
    first: Partition, second: Partition, terms: list[tuple[Partition, int]], n: int, bound: int,
    budget: WorkBudget,
) -> Iterator[tuple[Sequence[int], Sequence[int]]]:
    """(s_first(x) * s_second(x, t), the sum of s_shape(x) * t^strip over the
    glued terms) on {0..bound}^(n+1), x = x_1..x_n, t = x_{n+1}: a pair of
    value lists per prefix x, in lexicographic order, each holding the
    values at t = 0..bound, none negative, as no coefficient or coordinate is.

    The three sums descend the branching rule of ``scpp.schur`` side by
    side, depth first, peeling x_1 first (each s_mu is symmetric) with each
    grid value; a (shape, level) has its strips listed and charged once.
    The values along t are packed into one integer, the sum of v_t * 2^(w*t):
    t is peeled first, as s_second is symmetric in all n + 1 variables, so
    its strips nu start with weight T_|second/nu|, T_k the packed t^k, and a
    glued shape with the sum of T_strip over its terms.  At a leaf the sides
    are f * S and R, compared whole.  Each is largest at the corner (bound,
    ..., bound), which the walk on that one point gives first: w / 8 is the
    larger corner value's byte length, rounded up by ``field_reader``.
    """
    strips = cache(lambda mu, m: _strips(mu, m, budget))

    def descend(states: list[dict], m: int, rows: list[list[int]]) -> Iterator[list[int]]:
        # [f, S, R] at each prefix from the states at level m; a row holds the
        # powers x**e of one grid value x
        if not m:
            yield [side.get((), 0) for side in states]
            return
        listings = [[(nu, e, w) for mu, w in side.items() for nu, e in strips(mu, m)]
                    for side in states]
        for row in rows:
            below: list[dict[Partition, int]] = [{} for _ in listings]
            for out, listing in zip(below, listings):
                for nu, e, w in listing:
                    if row[e]:
                        out[nu] = out.get(nu, 0) + w * row[e]
            yield from descend(below, m - 1, rows)

    def walk(coords: Sequence[int], vectors: dict[int, int]) -> Iterator[list[int]]:
        # [f, S, R] at each prefix in coords^n, with T_k = vectors[k]
        glued: dict[Partition, int] = {}
        for shape, k in terms:
            glued[shape] = glued.get(shape, 0) + vectors[k]
        states = [{first: 1}, {nu: vectors[k] for nu, k in strips(second, n + 1)}, glued]
        return descend(states, n, [[x**e for e in range(top + 1)] for x in coords])

    sizes = {k for _, k in strips(second, n + 1)} | {k for _, k in terms}
    top = max(part_at(mu, 0) for mu in (first, second, *(shape for shape, _ in terms)))
    f, s, r = next(walk((bound,), {k: bound**k for k in sizes}))
    coords = range(bound + 1)
    width, read = field_reader(-(-max(f * s, r, 1).bit_length() // 8), len(coords))
    for f, s, r in walk(coords, {k: sum(t**k << 8 * width * t for t in coords) for k in sizes}):
        left = f * s
        values = read(left.to_bytes(width * len(coords), "little"), 0)
        yield values, values if left == r else read(r.to_bytes(width * len(coords), "little"), 0)


def _strip_free_sum(gamma: int, alpha: int, n: int, budget: WorkBudget) -> MPoly:
    """The gluing sum of identity 1 with equal widths at x_{n+1} = 0, in
    x_1..x_n.  Only the strip-free term of each mu (pi = lam = mu) survives
    there, so only it is listed and charged."""
    free = _glue(alpha, gamma, gamma, n, budget, lambda mu: (mu, (mu,)))
    return _glue_sum(free, n, budget, trailing=0)


def _schur_square(gamma: int, alpha: int, n: int, budget: WorkBudget) -> MPoly:
    """The square of the alpha x gamma rectangular Schur polynomial in
    x_1..x_n, whose build charges ``budget``."""
    root = schur_tableau_sum(rectangle(alpha, gamma), n, budget)
    return root * root


# ---------------------------------------------------------------------------
# sides that are numbers or strings

def _closed(form: Callable[..., int]) -> Callable[..., int]:
    """A closed form as a side; it charges nothing."""
    return lambda *values, budget: form(*values)


def _all_even(a: int, b: int, c: int) -> bool:
    return a % 2 == b % 2 == c % 2 == 0


def _signed_total(a: int, b: int, c: int, budget: WorkBudget) -> int:
    """The signed brute-force total in absolute value: the closed forms fix
    the magnitude only."""
    return abs(count_scpp_signed(a, b, c, budget).signed_total)


def _signed_product(a: int, b: int, c: int, budget: WorkBudget) -> int:
    closed = signed_enumeration_all_even if _all_even(a, b, c) else signed_enumeration_product
    return closed(a, b, c)


def _move_graph(a: int, b: int, c: int, budget: WorkBudget) -> str:
    """Move-graph connectivity plus a sign flip across every single move."""
    report = check_move_graph(a, b, c, budget)
    return f"components={report.components};sign_flips_ok={report.sign_flips_consistent}"


def _one_component(a: int, b: int, c: int, budget: WorkBudget) -> str:
    """One component when the box holds a self-complementary plane
    partition, none when it holds none, and a sign flip across every move."""
    return f"components={int(sc_count(a, b, c) > 0)};sign_flips_ok=True"


def _bridge_values(gamma: int, alpha: int, m: int, budget: WorkBudget) -> str:
    """The alpha x gamma rectangular Schur polynomial in m variables at all
    ones and at (1, -1, 1, ...), each after m units for the point, from
    ``schur_value``, which builds no polynomial; ``tests/test_schur.py`` checks it."""
    if m < alpha:
        raise ValueError("argument count must be at least the number of rows")
    budget.charge(m)
    ones = schur_value(rectangle(alpha, gamma), (1,) * m, budget)
    return f"ones={ones};alternating={specialize_alternating(gamma, alpha, m, budget)}"


def _bridge_counts(gamma: int, alpha: int, m: int, budget: WorkBudget) -> str:
    """The box count of the alpha x (m - alpha) x gamma box and, with the
    parity sign (-1)^(gamma*alpha*(alpha+3)/2) that the factor-pairing limit
    gives the alternating value, its self-complementary count, both from
    the closed products: the comparison is exact including sign."""
    sign = -1 if (gamma * alpha * (alpha + 3) // 2) % 2 else 1
    box, sc = box_count(alpha, m - alpha, gamma), sc_count(alpha, m - alpha, gamma)
    return f"ones={box};alternating={sign * sc}"


def _pfaffian_and_det(a: int, b: int, c1: int, c2: int, budget: WorkBudget) -> str:
    """The sign-adjusted Pfaffian and the Bareiss determinant of one build of
    the case's matrix.  Charges dim^3 units for Bareiss after the parameter
    checks, and ``corollary_pfaffian`` dim^3 more, before the build."""
    check_middle_line_params(a, b, c1, c2)
    case = next(name for name, (parity, _) in CASE_PARITY.items() if parity == (a % 2, b % 2))
    budget.charge((a + a % 2) ** 3)
    matrix, value = corollary_pfaffian(case, a, b, c1, c2, budget)
    return f"pfaffian={value};determinant={exact_determinant(matrix.entries)}"


def _product_and_square(a: int, b: int, c1: int, c2: int, budget: WorkBudget) -> str:
    """The middle-line product, and its square, which det M = Pf(M)^2 equals."""
    product = middle_line_product(a, b, c1, c2)
    return f"pfaffian={product};determinant={product * product}"


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
    """One checkable identity: its report name (or a function of the values
    giving it), parameters, two sides, report method, the ``scpp`` functions
    (``module.qualname``) both sides may call, and standard grid.  ``sweep``
    is the Schur identities' other ``--method``, the evaluation sweep, which
    gives the two digests and the verdict in one call.

    The left side runs first, so an input both sides refuse is refused by
    the left side, and a capped run stops there first.  Both sides, and the
    sweep, charge the one budget the check is given."""

    name: str | Callable[..., str]
    params: tuple[str, ...]
    lhs: Callable[..., object]
    rhs: Callable[..., object]
    method: str
    shares: tuple[str, ...]
    grid: Grid
    sweep: Callable[..., tuple[str, str, bool]] | None = None

    def run(
        self, values: Sequence[int], budget: WorkBudget | None = None, method: str | None = None
    ) -> VerificationReport:
        """Check the identity at one tuple, given in ``params`` order."""
        budget = budget or WorkBudget()
        if method in (None, self.method):
            method = self.method
            lhs = self.lhs(*values, budget=budget)
            rhs = self.rhs(*values, budget=budget)
            match = lhs == rhs
            if isinstance(lhs, MPoly):
                # a digest is a function of (nvars, terms), so equal sides are digested once
                lhs = lhs.digest()
                rhs = lhs if match else rhs.digest()
        elif method == EVALUATION_SWEEP and self.sweep is not None:
            lhs, rhs, match = self.sweep(*values, budget=budget)
        else:
            raise ValueError(f"unknown method {method!r}")
        name = self.name(*values) if callable(self.name) else self.name
        params = dict(zip(self.params, values))
        return VerificationReport(name, params, str(lhs), str(rhs), bool(match), method)


_BOX = ("a", "b", "c")
_LINE = ("a", "b", "c1", "c2")
_SCHURID = ("gamma1", "gamma2", "alpha", "n")
_SCHURID_GRID = Grid((range(4), range(4), range(4), range(6)), lambda g1, g2, alpha, n: g2 <= g1)
# the branching descent of scpp.schur, which both sides of a Schur identity run
_DESCENT = (
    "schur._descend", "schur._strips", "schur.schur_combination", "partitions.strip_ranges",
    "partitions.strips_of", "partitions.partition", "partitions.part_at",
    "partitions.rectangle", "polynomials.MPoly.__init__",
)
_BOX_CHECK = ("products.check_box_sides",)
_LINE_CHECKS = ("products.check_middle_line_params", "products.check_line_lengths")


def _covered(a: int, b: int, c1: int, c2: int) -> bool:
    """The (a, b) parities the middle-line products cover, and c2 <= c1."""
    return not (a % 2 == 0 and b % 2) and c2 <= c1


def _schurid(which: int) -> Identity:
    return Identity(
        f"schurid{which}", _SCHURID, partial(_factor_product, which), partial(_glued_sum, which),
        FULL_EXPANSION, ("verify._check_widths", *_DESCENT), _SCHURID_GRID,
        sweep=partial(_swept_digests, which),
    )


IDENTITIES: dict[str, Identity] = {
    "box": Identity(
        "box", _BOX, count_pp, _closed(box_count), ENUMERATION, _BOX_CHECK, Grid((range(5),) * 3)
    ),
    # all-odd boxes stay in: both routes give 0 there
    "scpp": Identity(
        "scpp", _BOX, count_scpp, _closed(sc_count), ENUMERATION, _BOX_CHECK, Grid((range(7),) * 3)
    ),
    "middle-line": Identity(
        "middle-line", _LINE, count_scpp_middle_line, _closed(middle_line_product), ENUMERATION,
        _LINE_CHECKS, Grid((range(6), range(6), range(0, 7, 2), range(0, 7, 2)), _covered),
    ),
    "signed": Identity(
        lambda a, b, c: "signed-all-even" if _all_even(a, b, c) else "signed",
        _BOX, _signed_total, _signed_product, ENUMERATION, _BOX_CHECK,
        # the three parity classes: b and c of one parity, not all odd
        Grid((range(7),) * 3, lambda a, b, c: b % 2 == c % 2 and not a % 2 == b % 2 == 1),
    ),
    "schurid1": _schurid(1),
    "schurid2": _schurid(2),
    # schurid1's gluing sum at gamma1 = gamma2 and x_{n+1} = 0
    "square-reduction": Identity(
        "square-reduction", ("gamma", "alpha", "n"), _strip_free_sum, _schur_square,
        FULL_EXPANSION, _DESCENT, Grid((range(3), range(3), range(4))),
    ),
    "weight": Identity(
        "weight", _BOX, _move_graph, _one_component, ENUMERATION, _BOX_CHECK,
        Grid((range(5),) * 3, lambda a, b, c: not (a % 2 and b % 2 and c % 2)),
    ),
    "bridge": Identity(
        "bridge", ("gamma", "alpha", "m"), _bridge_values, _bridge_counts, "evaluation", (),
        Grid((range(4), range(4), range(8)), lambda gamma, alpha, m: m >= alpha),
    ),
    "pfaffian": Identity(
        "pfaffian", _LINE, _pfaffian_and_det, _product_and_square, "elimination",
        _LINE_CHECKS, Grid((range(7), range(7), range(0, 9, 2), range(0, 9, 2)), _covered),
    ),
}


# the code of each exception a check may raise, tried in this order:
# BudgetExceededError subclasses RuntimeError, and ParityError ValueError
FAILURES: dict[type, str] = {
    BudgetExceededError: "budget-exceeded", ParityError: "bad-parity",
    ValueError: "invalid-parameter",
    **dict.fromkeys((RuntimeError, LookupError, ArithmeticError, MemoryError), "error"),
}


def failure(exc: Exception, table: dict[type, str] = FAILURES) -> tuple[str, str]:
    """The code of ``exc`` by the first class of ``table`` it is an instance
    of, and its message: its text, or its class name when that is empty."""
    code = next(code for kind, code in table.items() if isinstance(exc, kind))
    return code, str(exc) or type(exc).__name__
