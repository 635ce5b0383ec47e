"""Schur polynomials.

Schur polynomials are built by the branching rule (Stanley, EC2 7.10):
s_lam(x_1..x_n) is the sum, over the mu with lam/mu a horizontal strip,
of s_mu(x_1..x_{n-1}) * x_n^|lam/mu|, each s_mu taken from a bounded
cache.  Its two independent oracles, the walk over semistandard tableaux
and a determinant of complete homogeneous polynomials, live in
``tests/oracles.py``.  The rectangular principal specialization is
available as an exactly cancelled product in a formal variable q.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

from scpp.partitions import Partition, horizontal_strips_within, partition, rectangle, size
from scpp.polynomials import (
    EXPONENT_LIMIT,
    MPoly,
    add_with_last_power,
    one_minus_power,
    upoly_divexact,
    upoly_mul,
)

# entries kept by the Schur polynomial cache; one verify_schurid(1, 4, 3, 3, 5)
# touches 787 (shape, variable count) pairs
CACHE_SIZE = 384


def schur_tableau_sum(lam: Iterable[int], n: int) -> MPoly:
    """Schur polynomial of shape lam in n variables.

    Zero when lam has more than n rows.  Built by the branching rule in
    ``_schur_sum``; the tableau walk and the determinant oracle in
    ``tests/oracles.py`` check it.  The name is kept from
    when the sum ran over tableaux, since benchmark tracing looks the
    Schur layer up by it.  A part of at least 2^31 is refused: no exponent
    of s_lam exceeds its first part, and packed keys hold exponents below
    2^31.
    """
    if n < 0:
        raise ValueError("variable count must be nonnegative")
    lam = partition(lam)
    if lam and lam[0] >= EXPONENT_LIMIT:
        raise ValueError(f"shape part {lam[0]} is not below {EXPONENT_LIMIT}")
    if len(lam) > n:
        return MPoly.zero(n)
    return _schur_sum(lam, n)


@lru_cache(maxsize=CACHE_SIZE)
def _schur_sum(lam: Partition, n: int) -> MPoly:
    # the branching rule; its coefficients are positive, so no term cancels
    if len(lam) > n:
        return MPoly.zero(n)
    if n == 0:
        return MPoly.const(0, 1)
    acc: dict[int, int] = {}
    lam_size = size(lam)
    for mu in horizontal_strips_within(lam):
        add_with_last_power(acc, _schur_sum(mu, n - 1).terms, lam_size - size(mu))
    return MPoly(n, acc)


def hook_content_rectangular(gamma: int, alpha: int, n: int) -> list[int]:
    """Coefficients in q of the rectangular Schur polynomial at x_i = q^i.

    Computed as q^(gamma*alpha*(alpha+1)/2) times an exactly cancelled
    product of (1 - q^e) factors.  Returns the zero polynomial ([]) when
    n < alpha, where the Schur polynomial itself vanishes.
    """
    if gamma < 0 or alpha < 0 or n < 0:
        raise ValueError("parameters must be nonnegative")
    if gamma == 0 or alpha == 0:
        return [1]
    if n < alpha:
        return []
    num_exps: list[int] = []
    den_exps: list[int] = []
    for i in range(1, alpha + 1):
        for k in range(gamma):
            num_exps.append(i + n - alpha + k)
            den_exps.append(i + k)
    # cancel identical factors before expanding
    for e in list(den_exps):
        if e in num_exps:
            num_exps.remove(e)
            den_exps.remove(e)
    num = [1]
    for e in num_exps:
        num = upoly_mul(num, one_minus_power(e))
    for e in den_exps:
        num = upoly_divexact(num, one_minus_power(e))
    shift = gamma * alpha * (alpha + 1) // 2
    return [0] * shift + num


def alternating_point(m: int) -> tuple[int, ...]:
    """The evaluation point (1, -1, 1, ..., (-1)^(m-1))."""
    return tuple(1 if i % 2 == 0 else -1 for i in range(m))


def specialize_alternating(gamma: int, alpha: int, m: int) -> int:
    """Rectangular Schur polynomial evaluated at alternating signs.

    The branching-rule polynomial of ``schur_tableau_sum`` evaluated at
    (1, -1, ..., (-1)^(m-1)); the product formula at q -> -1 in
    ``tests/oracles.py`` checks it.
    """
    if gamma < 0 or alpha < 0 or m < 0:
        raise ValueError("parameters must be nonnegative")
    value = schur_tableau_sum(rectangle(alpha, gamma), m).evaluate(alternating_point(m))
    assert isinstance(value, int)
    return value
