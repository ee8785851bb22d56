from hypothesis import given
from hypothesis import strategies as st

from qtchar.tpoly import ONE, TPoly, ZERO

tpolys = st.dictionaries(
    st.integers(-6, 6), st.integers(-9, 9), max_size=5
).map(TPoly)


def test_basic_arithmetic():
    p = TPoly({0: 1, 2: -1})
    q = TPoly({-1: 3})
    assert p + q == TPoly({0: 1, 2: -1, -1: 3})
    assert p * q == TPoly({-1: 3, 1: -3})
    assert p - p == ZERO
    assert p * ONE == p
    assert (p * ZERO).is_zero()


def test_sub_cancels_and_coerces_ints():
    p = TPoly({0: 3, 2: -1})
    assert p - p == ZERO
    assert p - 3 == TPoly({2: -1})
    assert 3 - p == TPoly({2: 1})
    assert p.coeffs == {0: 3, 2: -1}  # the operand is left unchanged


@given(tpolys, tpolys)
def test_sub_is_add_of_negation(p, q):
    d = p - q
    assert d == p + (-q) and 0 not in d.coeffs.values()


def test_adopt_takes_over_the_map_without_zeros():
    coeffs = {0: 1, 2: 0, -1: -3}
    p = TPoly.adopt(coeffs)
    assert p == TPoly({0: 1, -1: -3}) and p.coeffs is coeffs and 2 not in coeffs
    assert TPoly.adopt({1: 0}).is_zero()


def test_coerce_and_equality_with_ints():
    assert TPoly.const(3) == 3
    assert TPoly.coerce(2) * TPoly.t_power(1) == TPoly({1: 2})


def test_constant_hashes_as_its_integer():
    assert 1 in {ONE} and 0 in {ZERO}
    assert {TPoly.const(3): "x"}[3] == "x"


@given(tpolys, tpolys)
def test_mul_commutes(p, q):
    assert p * q == q * p


@given(tpolys, tpolys, tpolys)
def test_distributivity(p, q, r):
    assert p * (q + r) == p * q + p * r


@given(tpolys)
def test_invert_t_is_involutive(p):
    assert p.invert_t().invert_t() == p


@given(tpolys)
def test_split_signs_reassembles(p):
    neg, const, pos = p.split_signs()
    assert neg + const + pos == p
    assert all(e < 0 for e in neg.coeffs)
    assert all(e > 0 for e in pos.coeffs)
    assert set(const.coeffs) <= {0}


@given(tpolys)
def test_at_one_is_ring_map(p):
    q = TPoly({1: 2, -2: -1})
    assert (p * q).at_one() == p.at_one() * q.at_one()


def test_single_power():
    assert TPoly.t_power(-3).single_power() == (-3, 1)
    assert TPoly({0: 1, 1: 1}).single_power() is None
    assert ZERO.single_power() is None


def test_nonnegative():
    assert TPoly({2: 1, -1: 3}).nonnegative()
    assert not TPoly({0: -1}).nonnegative()
