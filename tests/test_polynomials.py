from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    TupleMPoly,
    constant,
    pack,
    packed,
    poly_add,
    substitute_first,
    substituted,
    to_q_coeffs,
    tuple_terms,
    unpack_key,
)
from scpp.polynomials import MPoly, group_by_first, max_exponent, substitute_groups

NVARS = 3


def tuple_maps(nvars=NVARS, exponents=st.integers(min_value=0, max_value=3)):
    exps = st.tuples(*(exponents for _ in range(nvars)))
    # the constructor keeps the terms as given, so zero coefficients are dropped here
    return st.dictionaries(exps, st.integers(min_value=-9, max_value=9), max_size=5).map(
        lambda d: {e: c for e, c in d.items() if c}
    )


def mpolys(nvars=NVARS):
    return tuple_maps(nvars).map(lambda d: packed(nvars, d))


points = st.tuples(*(st.integers(min_value=-4, max_value=4) for _ in range(NVARS)))


@given(mpolys(), mpolys(), mpolys())
def test_ring_axioms(p, q, r):
    assert poly_add(poly_add(p, q), r) == poly_add(p, poly_add(q, r))
    assert poly_add(p, q) == poly_add(q, p)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * poly_add(q, r) == poly_add(p * q, p * r)
    assert poly_add(p, constant(NVARS, 0)) == p
    assert p * constant(NVARS, 1) == p
    assert poly_add(p, p * constant(NVARS, -1)) == constant(NVARS, 0)


@given(mpolys(), mpolys(), points)
def test_evaluation_is_a_ring_homomorphism(p, q, pt):
    # evaluation by the substitute_first fold
    assert substituted(poly_add(p, q), pt) == substituted(p, pt) + substituted(q, pt)
    assert substituted(p * q, pt) == substituted(p, pt) * substituted(q, pt)


@st.composite
def sized_maps(draw):
    """(nvars, tuple-keyed term map) with nvars in 1..6."""
    nvars = draw(st.integers(min_value=1, max_value=6))
    return nvars, draw(tuple_maps(nvars))


values = st.one_of(
    st.just(0),
    st.integers(min_value=-5, max_value=5),
    st.fractions(min_value=-9, max_value=9, max_denominator=7),
)


@given(sized_maps(), values)
def test_grouped_substitution_matches_the_substitute_first_oracle(pair, value):
    # the evaluation sweep's kernel: group once, substitute from the groups
    nvars, terms = pair
    keyed = packed(nvars, terms).terms
    top = max_exponent(keyed, nvars)
    assert top == max((e for exps in terms for e in exps), default=0)
    powers = [value**e for e in range(top + 1)]
    grouped = substitute_groups(group_by_first(keyed, nvars), powers)
    assert grouped == substitute_first(keyed, nvars, value)


def test_evaluate_length_mismatch():
    with pytest.raises(ValueError):
        substituted(packed(2, {(1, 0): 1}), (1,))
    with pytest.raises(ValueError):
        TupleMPoly(2, {(1, 0): 1}).evaluate((1,))


def test_evaluate_with_fractions():
    p = packed(2, {(1, 0): 1, (0, 1): 1})
    assert substituted(p, (Fraction(1, 2), Fraction(1, 3))) == Fraction(5, 6)


@given(mpolys())
def test_q_substitution_matches_power_point(p):
    powers = [1, 2, 3]
    q0 = Fraction(3, 2)
    coeffs = to_q_coeffs(p, powers)
    assert sum(c * q0**k for k, c in enumerate(coeffs)) == substituted(p, [q0**k for k in powers])


def test_lift_and_restrict():
    p = packed(2, {(1, 1): 2, (2, 0): 1})
    lifted = p.lift(3)
    assert lifted.nvars == 3
    assert lifted.restrict_last_zero() == p
    q = packed(2, {(1, 1): 1, (1, 0): 5})
    assert q.lift(3).restrict_last_zero() == q


def test_digest_is_deterministic_and_discriminating():
    p = packed(2, {(1, 0): 1, (0, 1): 2})
    q = packed(2, {(0, 1): 2, (1, 0): 1})
    assert p.digest() == q.digest()
    assert p.digest() != poly_add(p, constant(2, 1)).digest()


# packed keys against the tuple-keyed oracle

def test_key_layout():
    # x_1 is the most significant 32-bit field, x_n the least
    assert pack((1, 0, 0)) == 2**64
    assert pack((0, 0, 5)) == 5
    assert pack(()) == 0
    for key, nvars in [(0, 0), (pack((3, 0, 2**31 - 1)), 3), (pack((2**32 - 1, 7)), 2)]:
        assert MPoly(nvars, {key: 1}).sorted_terms() == [(unpack_key(key, nvars), 1)]
    # a key of the field layout sorts as its exponent tuple
    tuples = [(0, 2**31 - 1), (1, 0), (0, 0), (2, 1), (1, 2**20)]
    assert sorted(tuples) == sorted(tuples, key=pack)


@st.composite
def oracle_pairs(draw, exponents=st.integers(min_value=0, max_value=3)):
    """(nvars, two tuple-keyed term maps) with nvars in 0..6."""
    nvars = draw(st.integers(min_value=0, max_value=6))
    return nvars, draw(tuple_maps(nvars, exponents)), draw(tuple_maps(nvars, exponents))


def _points(nvars, coordinate):
    return st.lists(coordinate, min_size=nvars, max_size=nvars)


@given(oracle_pairs(), st.data())
def test_packed_kernel_matches_tuple_oracle(pair, data):
    nvars, a, b = pair
    p, q = packed(nvars, a), packed(nvars, b)
    tp, tq = TupleMPoly(nvars, a), TupleMPoly(nvars, b)
    assert tuple_terms(p * q) == (tp * tq).terms
    assert p.digest() == tp.digest()
    assert tuple_terms(p.lift(nvars + 2)) == tp.lift(nvars + 2).terms
    if nvars:
        assert tuple_terms(p.restrict_last_zero()) == tp.restrict_last_zero().terms
    ints = data.draw(_points(nvars, st.integers(min_value=-5, max_value=5)))
    # the substitute_first fold, which the evaluation sweep runs by prefix
    assert substituted(p, ints) == tp.evaluate(ints)
    small_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=7)
    fractions = data.draw(_points(nvars, small_fractions))
    assert substituted(p, fractions) == tp.evaluate(fractions)


@given(oracle_pairs(st.integers(min_value=0, max_value=2**31 - 1)))
def test_packed_kernel_matches_tuple_oracle_on_wide_exponents(pair):
    # exponents up to the limit: the fields hold each sum without carrying
    nvars, a, b = pair
    p, q = packed(nvars, a), packed(nvars, b)
    tp, tq = TupleMPoly(nvars, a), TupleMPoly(nvars, b)
    assert tuple_terms(p * q) == (tp * tq).terms
    assert (p * q).digest() == (tp * tq).digest()
    assert tuple_terms(p.lift(nvars + 1)) == tp.lift(nvars + 1).terms
    if nvars:
        assert tuple_terms(p.restrict_last_zero()) == tp.restrict_last_zero().terms


def test_product_refuses_an_operand_at_the_exponent_limit():
    top = packed(2, {(0, 2**31 - 1): 1})
    # two exponents below 2**31 add up below 2**32: the field holds the sum
    square = top * top
    assert tuple_terms(square) == {(0, 2**32 - 2): 1}
    # the square's exponent has reached 2**31; without the guard its key sum
    # would carry into x_1's field
    with pytest.raises(ValueError):
        square * top
    with pytest.raises(ValueError):
        top * square
    wide = packed(2, {(0, 2**31): 1})
    with pytest.raises(ValueError):
        wide * packed(2, {(0, 2**31): 1})


def test_an_integer_times_a_polynomial_is_a_type_error():
    # MPoly multiplies only by MPoly, on either side
    p = packed(1, {(1,): 1})
    with pytest.raises(TypeError):
        2 * p
    with pytest.raises(TypeError):
        p * 2
