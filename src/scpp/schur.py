"""Schur polynomials and their values.

Both come from one descent of the branching rule (Stanley, EC2 7.10),
s_mu(x_1..x_m) = sum of s_nu(x_1..x_{m-1}) * x_m^|mu/nu| over the
horizontal strips mu/nu, run from x_n down.  ``_descend`` maps shapes to
weights; level m sends each mu to its strips nu with at most m - 1 rows
(s_nu vanishes in fewer variables), times x_m^|mu/nu|, and adds up the
weights that reach one nu, so a shape reached from many is expanded once
per level.  The weights are term maps (``schur_combination``, which
``schur_tableau_sum`` starts from {lam: 1} and the gluing sum of
``scpp.verify`` from its multiset) or numbers (``schur_value``: the bridge,
``specialize_alternating`` and ``schur evaluate --at`` build no term map).
Each shape's strip count is charged before its strips are listed.  The
tableau walk and a determinant in ``tests/oracles.py`` check both.

The rectangular principal specialization in a formal variable q is
MacMahon's box product (EC2 7.21), computed on one coefficient list by
stride sums: multiplying by 1 - q^e subtracts the list shifted by e, and
dividing by it adds the shifted list back, bottom up.
"""

from __future__ import annotations

from math import prod
from typing import Callable, Iterable, Sequence

from scpp.budget import WorkBudget
from scpp.partitions import Partition, partition, rectangle, strip_ranges, strips_of
from scpp.polynomials import EXPONENT_LIMIT, FIELD_BITS, MPoly, Value

CACHE_SIZE = 192  # one pass of the schur benchmark builds 51 distinct polynomials
_kept: dict[tuple[Partition, int], tuple[MPoly, int]] = {}  # least recently used first


def checked_shape(lam: Iterable[int], n: int) -> Partition:
    """lam as a partition, after the checks of both entry points: n is
    nonnegative, lam is a partition and its first part is below 2^31."""
    if n < 0:
        raise ValueError("variable count must be nonnegative")
    lam = partition(lam)
    if lam and lam[0] >= EXPONENT_LIMIT:
        raise ValueError(f"shape part {lam[0]} is not below {EXPONENT_LIMIT}")
    return lam


def _descend(states: dict, n: int, shift: Callable, budget: WorkBudget | None):
    """The weight of the empty shape after levels n..1, 0 if none reaches it;
    shift(acc, weight, m, e) is acc + weight * x_m^e, acc None for a shape new
    to the level.  Each shape charges its strips (0 past m rows) before listing."""
    budget = budget or WorkBudget()
    for m in range(n, 0, -1):
        below: dict = {}
        get = below.get
        for mu, weight in states.items():
            ranges = strip_ranges(mu, m - 1)
            budget.charge(prod(map(len, ranges)))
            mu_size = sum(mu)
            for nu in strips_of(ranges):
                below[nu] = shift(get(nu), weight, m, mu_size - sum(nu))
        states = below
    return states.get((), 0)


def schur_combination(
    states: dict[Partition, dict], n: int, trailing: int = 0, budget: WorkBudget | None = None
) -> dict[int, int]:
    """The term map in x_1..x_{n+trailing} of the sum of w * s_mu(x_1..x_n)
    over the (mu, w) of ``states``, w a term map in the ``trailing`` variables
    after x_n with positive coefficients (no sum cancels), read, not changed."""
    def shift(acc: dict | None, terms: dict[int, int], m: int, e: int) -> dict[int, int]:
        offset = e << FIELD_BITS * (n - m + trailing)  # the key of x_m^e
        if acc is None:
            return {key + offset: coeff for key, coeff in terms.items()}
        get = acc.get
        for key, coeff in terms.items():
            key += offset
            acc[key] = get(key, 0) + coeff
        return acc

    return _descend(states, n, shift, budget) or {}


def schur_tableau_sum(lam: Iterable[int], n: int, budget: WorkBudget | None = None) -> MPoly:
    """Schur polynomial of shape lam in n variables, zero when lam has more
    than n rows; benchmark tracing finds the Schur layer by this name.  A
    part of 2^31 or more is refused: packed keys hold exponents below 2^31,
    and no exponent of s_lam exceeds its first part.  ``CACHE_SIZE`` results
    are kept with the strips their descent listed, which a hit charges again,
    so no charge depends on what earlier calls built."""
    budget = budget or WorkBudget()
    key = (checked_shape(lam, n), n)
    if key in _kept:
        poly, listed = _kept[key] = _kept.pop(key)
        budget.charge(listed)
        return poly
    before = budget.used
    poly = MPoly(n, schur_combination({key[0]: {0: 1}}, n, budget=budget))
    if len(_kept) == CACHE_SIZE:
        del _kept[next(iter(_kept))]
    _kept[key] = poly, budget.used - before
    return poly


def schur_value(
    lam: Iterable[int], point: Sequence[Value], budget: WorkBudget | None = None
) -> Value:
    """s_lam at point, exactly, in n = len(point) variables: the descent on
    numbers, with x_m = point[m-1].  Zero when lam has more than n rows;
    refuses what ``schur_tableau_sum`` refuses, with the same messages."""
    def shift(acc: Value | None, weight: Value, m: int, e: int) -> Value:
        weight *= point[m - 1] ** e
        return weight if acc is None else acc + weight

    return _descend({checked_shape(lam, len(point)): 1}, len(point), shift, budget)


def hook_content_rectangular(gamma: int, alpha: int, n: int) -> list[int]:
    """Coefficients in q of the rectangular Schur polynomial at x_i = q^i.

    q^(gamma*alpha*(alpha+1)/2) times the product over the boxes (i, k) of
    the alpha x gamma rectangle of (1 - q^(n-alpha+i+k)) / (1 - q^(i+k)),
    expanded by ``_stride_quotient``.  Its divisions are exact: the whole
    denominator divides the numerator, since the quotient is the Schur
    polynomial, so the product of any of its factors does too, and each
    partial quotient is a polynomial.  Returns the zero polynomial ([])
    when n < alpha, where the Schur polynomial itself vanishes.
    """
    if gamma < 0 or alpha < 0 or n < 0:
        raise ValueError("parameters must be nonnegative")
    if gamma and n < alpha:
        return []
    den_exps = [i + k for i in range(1, alpha + 1) for k in range(gamma)]
    num_exps = [e + n - alpha for e in den_exps]
    shift = gamma * alpha * (alpha + 1) // 2
    return [0] * shift + _stride_quotient(num_exps, den_exps)


def _stride_quotient(num_exps: Sequence[int], den_exps: Sequence[int]) -> list[int]:
    """Coefficients of prod(1 - q^e for e in num_exps) divided by
    prod(1 - q^e for e in den_exps); every e is positive.

    Multiplying by 1 - q^e is c[j] -= c[j - e] from the top down.  Dividing
    by it is the power series c[j] += c[j - e] from the bottom up, which
    equals the polynomial quotient exactly when its top e coefficients are
    zero; they are then dropped, and otherwise the division is refused.
    """
    c = [1] + [0] * sum(num_exps)
    top = 0
    for e in num_exps:
        top += e
        for j in range(top, e - 1, -1):
            c[j] -= c[j - e]
    for e in den_exps:
        for j in range(e, len(c)):
            c[j] += c[j - e]
        if any(c[-e:]):
            raise ValueError("division is not exact")
        del c[-e:]
    return c


def alternating_point(m: int) -> tuple[int, ...]:
    """The evaluation point (1, -1, 1, ..., (-1)^(m-1))."""
    return tuple(1 if i % 2 == 0 else -1 for i in range(m))


def specialize_alternating(gamma: int, alpha: int, m: int, budget: WorkBudget | None = None) -> int:
    """Rectangular Schur polynomial at (1, -1, ..., (-1)^(m-1)), the value
    ``schur_value`` gives, charged to ``budget``; the product formula at
    q -> -1 in ``tests/oracles.py`` checks it."""
    if gamma < 0 or alpha < 0 or m < 0:
        raise ValueError("parameters must be nonnegative")
    return schur_value(rectangle(alpha, gamma), alternating_point(m), budget)
