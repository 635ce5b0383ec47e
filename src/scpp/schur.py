"""Schur polynomials and their values.

Both routes run the branching rule (Stanley, EC2 7.10): s_lam(x_1..x_n)
is the sum, over the mu with lam/mu a horizontal strip, of
s_mu(x_1..x_{n-1}) * x_n^|lam/mu|.  ``schur_tableau_sum`` sums term maps
and keeps each s_mu in a bounded cache shared by all calls.
``schur_value`` sums exact numbers at one point and keeps each
s_mu(v_1..v_k) in a memo that lives for that call only; the bridge,
``specialize_alternating`` and ``scpp schur evaluate --at`` read their
values from it and build no polynomial.  The independent oracles of the
polynomial route, the walk over semistandard tableaux and a determinant
of complete homogeneous polynomials, live in ``tests/oracles.py``; the
tests check the value route against the polynomial route at integer and
rational points.  The rectangular principal specialization in a formal
variable q is MacMahon's box product (EC2 7.21), computed on one
coefficient list by stride sums: multiplying by 1 - q^e subtracts the list
shifted by e, and dividing by it adds the shifted list back, bottom up.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence

from scpp.partitions import Partition, horizontal_strips_within, partition, rectangle, size
from scpp.polynomials import EXPONENT_LIMIT, MPoly, Value, add_with_last_power

# entries kept by the Schur polynomial cache; verify_schurid(1, 4, 3, 3, 5) touches
# 390 (shape, n) pairs.  384 raised the schur benchmark's peak memory, 192 did not
CACHE_SIZE = 192


def checked_shape(lam: Iterable[int], n: int) -> Partition:
    """lam as a partition, after the checks of both entry points: n is
    nonnegative, lam is a partition and its first part is below 2^31."""
    if n < 0:
        raise ValueError("variable count must be nonnegative")
    lam = partition(lam)
    if lam and lam[0] >= EXPONENT_LIMIT:
        raise ValueError(f"shape part {lam[0]} is not below {EXPONENT_LIMIT}")
    return lam


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
    lam = checked_shape(lam, n)
    if len(lam) > n:
        return MPoly.zero(n)
    return _schur_sum(lam, n)


@lru_cache(maxsize=CACHE_SIZE)
def _schur_sum(lam: Partition, n: int) -> MPoly:
    # the branching rule over the mu with at most n - 1 rows (s_mu vanishes in
    # n - 1 variables otherwise); its coefficients are positive, so no term cancels
    if n == 0:
        return MPoly.const(0, 1)
    acc: dict[int, int] = {}
    lam_size = size(lam)
    for mu in horizontal_strips_within(lam, n - 1):
        add_with_last_power(acc, _schur_sum(mu, n - 1).terms, lam_size - size(mu))
    return MPoly(n, acc)


def schur_value(lam: Iterable[int], point: Sequence[Value]) -> Value:
    """s_lam at point, exactly, in n = len(point) variables.

    The branching rule of ``_schur_sum`` on numbers: s_mu(v_1..v_k) is the
    sum of s_nu(v_1..v_{k-1}) * v_k^|mu/nu| over the horizontal strips
    mu/nu, each (mu, k) computed once in a memo local to this call.  Zero
    when lam has more than n rows, 1 for the empty shape.  Refuses what
    ``schur_tableau_sum`` refuses, with the same messages.
    """
    memo: dict[tuple[Partition, int], Value] = {}

    def value(mu: Partition, k: int) -> Value:
        if len(mu) > k:
            return 0
        if not mu:
            return 1
        key = (mu, k)
        if key not in memo:
            x, mu_size = point[k - 1], size(mu)
            memo[key] = sum(
                value(nu, k - 1) * x ** (mu_size - size(nu))
                for nu in horizontal_strips_within(mu, k - 1)
            )
        return memo[key]

    return value(checked_shape(lam, len(point)), len(point))


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


def specialize_alternating(gamma: int, alpha: int, m: int) -> int:
    """Rectangular Schur polynomial evaluated at alternating signs.

    The value ``schur_value`` gives at (1, -1, ..., (-1)^(m-1)); the
    product formula at q -> -1 in ``tests/oracles.py`` checks it.
    """
    if gamma < 0 or alpha < 0 or m < 0:
        raise ValueError("parameters must be nonnegative")
    return schur_value(rectangle(alpha, gamma), alternating_point(m))
