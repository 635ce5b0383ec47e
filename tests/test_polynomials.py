from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import to_q_coeffs
from scpp.polynomials import (
    MPoly,
    one_minus_power,
    upoly_divexact,
    upoly_mul,
    upoly_trim,
)

NVARS = 3


def mpolys(nvars=NVARS):
    exps = st.tuples(*(st.integers(min_value=0, max_value=3) for _ in range(nvars)))
    return st.dictionaries(exps, st.integers(min_value=-9, max_value=9), max_size=5).map(
        lambda d: MPoly(nvars, d)
    )


points = st.tuples(*(st.integers(min_value=-4, max_value=4) for _ in range(NVARS)))


def test_constructor_drops_zero_coefficients():
    p = MPoly(2, {(1, 0): 0, (0, 1): 3})
    assert p.terms == {(0, 1): 3}


def test_constructor_rejects_bad_exponents():
    with pytest.raises(ValueError):
        MPoly(2, {(1,): 1})
    with pytest.raises(ValueError):
        MPoly(2, {(-1, 0): 1})


def test_variable_and_monomial():
    x = MPoly.variable(2, 0)
    y = MPoly.variable(2, 1)
    assert (x + y).terms == {(1, 0): 1, (0, 1): 1}
    assert MPoly.monomial(2, (2, 1), -3).terms == {(2, 1): -3}


@given(mpolys(), mpolys(), mpolys())
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + MPoly.zero(NVARS) == p
    assert p * MPoly.const(NVARS, 1) == p
    assert p + p * -1 == MPoly.zero(NVARS)


@given(mpolys(), mpolys(), points)
def test_evaluation_is_a_ring_homomorphism(p, q, pt):
    assert (p + q).evaluate(pt) == p.evaluate(pt) + q.evaluate(pt)
    assert (p * q).evaluate(pt) == p.evaluate(pt) * q.evaluate(pt)


def test_evaluate_length_mismatch():
    with pytest.raises(ValueError):
        MPoly.variable(2, 0).evaluate((1,))


def test_evaluate_with_fractions():
    p = MPoly(2, {(1, 0): 1, (0, 1): 1})
    assert p.evaluate((Fraction(1, 2), Fraction(1, 3))) == Fraction(5, 6)


@given(mpolys())
def test_q_substitution_matches_power_point(p):
    powers = [1, 2, 3]
    q0 = Fraction(3, 2)
    coeffs = to_q_coeffs(p, powers)
    assert sum(c * q0**k for k, c in enumerate(coeffs)) == p.evaluate([q0**k for k in powers])


def test_lift_and_restrict():
    p = MPoly(2, {(1, 1): 2, (2, 0): 1})
    lifted = p.lift(3)
    assert lifted.nvars == 3
    assert lifted.restrict_last_zero() == p
    q = MPoly(2, {(1, 1): 1, (1, 0): 5})
    assert q.lift(3).restrict_last_zero() == q


def test_digest_is_deterministic_and_discriminating():
    p = MPoly(2, {(1, 0): 1, (0, 1): 2})
    q = MPoly(2, {(0, 1): 2, (1, 0): 1})
    assert p.digest() == q.digest()
    assert p.digest() != (p + MPoly.const(2, 1)).digest()


def test_pow():
    x = MPoly.variable(1, 0)
    assert (x + MPoly.const(1, 1)) ** 2 == MPoly(1, {(0,): 1, (1,): 2, (2,): 1})


# univariate helpers

def test_upoly_mul_and_divexact_roundtrip():
    p = [1, 2, 0, -3]
    q = [2, 0, 5]
    prod = upoly_mul(p, q)
    assert upoly_divexact(prod, q) == upoly_trim(list(p))
    assert upoly_divexact(prod, upoly_trim(list(p))) == [2, 0, 5]


def test_upoly_divexact_rejects_inexact():
    with pytest.raises(ValueError):
        upoly_divexact([1, 1, 1], [1, 1])


def test_one_minus_power():
    assert one_minus_power(3) == [1, 0, 0, -1]
    assert sum(c * (-1) ** k for k, c in enumerate(one_minus_power(4))) == 0
    with pytest.raises(ValueError):
        one_minus_power(0)


def test_geometric_quotient():
    # (1 - q^6) / (1 - q^2) = 1 + q^2 + q^4
    assert upoly_divexact(one_minus_power(6), one_minus_power(2)) == [1, 0, 1, 0, 1]
