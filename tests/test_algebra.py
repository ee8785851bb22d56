import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtchar import algebra
from qtchar.algebra import Monomial, YtElement
from qtchar.characters import e_t, fundamental
from qtchar.errors import NotSimplyLaced
from qtchar.suites import KERNEL_TYPES
from qtchar.tpoly import ONE, TPoly

from conftest import random_element

TYPES = ["A1", "A2", "B2", "G2"]

pairs = st.tuples(st.integers(1, 2), st.integers(-5, 5))
exps = st.dictionaries(pairs, st.integers(-2, 2).filter(bool), max_size=4)


def test_monomial_basics():
    m = Monomial({(1, 0): 2, (2, 3): -1})
    assert m.u(1, 0) == 2 and m.u(2, 3) == -1 and m.u(1, 5) == 0
    assert m.times(Monomial({k: -e for k, e in m.items()})) == Monomial.unit()
    assert m.shift(2) == Monomial({(1, 2): 2, (2, 5): -1})
    assert not m.is_dominant()
    assert m.is_dominant([1])
    assert Monomial({(1, 4): -1, (2, 4): -2, (1, 0): 3}).is_right_negative()
    assert not Monomial({(1, 4): -1, (2, 4): 1}).is_right_negative()
    assert str(Monomial.y(1, 2, -1)) == "Y[1,2]^-1"


def test_a_expand_values(sl2, b2):
    assert sl2.a_monomial_expand({(1, 1): -1}) == Monomial({(1, 0): 1, (1, 2): 1})
    # short node 1 of B2 steps by r_1 = 1, long node 2 by r_2 = 2
    assert b2.a_monomial_expand({(1, 2): -1}) == Monomial({(1, 1): 1, (1, 3): 1, (2, 2): -1})
    assert b2.a_monomial_expand({(2, 1): -1}) == Monomial(
        {(2, -1): 1, (2, 3): 1, (1, 0): -1, (1, 2): -1}
    )


@pytest.mark.parametrize("name", ["A3", "B2", "C3", "G2", "D4"])
def test_a_expand_matches_formula(name):
    """A_{i,l}: +1 at (i, l +- r_i), -1 at (j, l + s), s in range(C_ji + 1, -C_ji, 2)."""
    alg = algebra(name)
    cm = alg.cartan
    for i in cm.nodes():
        ri = cm.ri(i)
        for l in (-7, -2, 0, 1, 3, 10):
            want = {(i, l - ri): 1, (i, l + ri): 1}
            for j in cm.nodes():
                if j != i:
                    for s in range(cm.c(j, i) + 1, -cm.c(j, i), 2):
                        want[(j, l + s)] = -1
            assert alg.a_monomial_expand({(i, l): -1}) == Monomial(want), (name, i, l)
            assert alg.a_monomial_expand({(i, l): 1}) == Monomial({k: -e for k, e in want.items()})


@pytest.mark.parametrize("name", TYPES + ["C3", "D4"])
def test_a_monomial_expand_is_product_of_a_inverses(name):
    alg = algebra(name)
    rng = random.Random(f"expand:{name}")
    for _ in range(40):
        v = {}
        for _ in range(rng.randrange(0, 6)):
            key = (rng.choice(list(alg.cartan.nodes())), rng.randrange(-6, 7))
            v[key] = v.get(key, 0) + rng.choice([-2, -1, 1, 2, 3])
        want = Monomial.unit()
        for (i, l), e in v.items():
            a_inv = alg.a_monomial_expand({(i, l): 1})
            want = want.times(Monomial({k: e * x for k, x in a_inv.items()}))
        assert alg.a_monomial_expand(v) == want


def test_a_monomial_expand_cancels_to_sorted_data(a2):
    # A_{1,2}^-1 = Y[1,1]^-1 Y[1,3]^-1 Y[2,2]; A_{2,1}^-1 = Y[1,1] Y[2,0]^-1 Y[2,2]^-1
    v = {(1, 2): 1, (2, 1): 1}
    got = a2.a_monomial_expand(v)
    want = Monomial({(1, 3): -1, (2, 0): -1})
    assert got == want and got.data == want.data and hash(got) == hash(want)


@pytest.mark.parametrize("name", TYPES)
def test_factor_over_a_roundtrip(name):
    alg = algebra(name)
    rng = random.Random(f"factor:{name}")
    for _ in range(40):
        base = Monomial({(i, rng.randrange(0, 4)): 1 for i in alg.cartan.nodes()})
        v = {}
        for _ in range(rng.randrange(0, 4)):
            key = (rng.choice(list(alg.cartan.nodes())), rng.randrange(1, 8))
            v[key] = v.get(key, 0) + 1
        m = base.times(alg.a_monomial_expand(v))
        assert alg.factor_over_A(m, base) == v
        assert alg.a_depth(m, base) == sum(v.values())
        assert alg.leq(m, base)
        if v:
            assert not alg.leq(base, m)


def test_mul_is_associative_and_unital(b2):
    rng = random.Random(5)
    for _ in range(20):
        x, y, z = (random_element(b2, rng) for _ in range(3))
        assert b2.mul(b2.mul(x, y), z) == b2.mul(x, b2.mul(y, z))
        assert b2.mul(x, YtElement.unit()) == x
    assert b2.mul() == YtElement.unit()


def _dict_combination(x, y, c):
    """x + c*y from the plain term dicts, zero coefficients dropped."""
    d = dict(x.items())
    for m, q in y.items():
        d[m] = d.get(m, TPoly.zero()) + q * c
    return {m: p for m, p in d.items() if not p.is_zero()}


def _snapshot(x):
    return list(x.terms.items())


def _unchanged(x, snap):
    return list(x.terms.items()) == snap and all(x.terms[m] is p for m, p in snap)


@pytest.mark.parametrize("name", TYPES)
def test_term_arithmetic_matches_dicts(name):
    """+, -, scale and add_scaled agree with dict arithmetic; only add_scaled writes."""
    alg = algebra(name)
    rng = random.Random(f"terms:{name}")
    for _ in range(40):
        x, y = random_element(alg, rng), random_element(alg, rng)
        if rng.random() < 0.3:  # make terms cancel
            y = y - x.scale(rng.choice([-1, 1]))
        c = TPoly({rng.randrange(-2, 3): rng.choice([-2, -1, 1, 3])})
        sx, sy = _snapshot(x), _snapshot(y)
        assert (x + y).terms == _dict_combination(x, y, ONE)
        assert (x - y).terms == _dict_combination(x, y, -ONE)
        assert (-x).terms == _dict_combination(YtElement(), x, -ONE)
        assert x.scale(c).terms == _dict_combination(YtElement(), x, c)
        assert x.scale(0).is_zero()
        assert (x - x).is_zero()
        assert _unchanged(x, sx) and _unchanged(y, sy)
        z = YtElement(x.terms)
        z.add_scaled(y, c)
        assert z.terms == _dict_combination(x, y, c)
        assert _unchanged(x, sx) and _unchanged(y, sy)
        z.add_scaled(z, -ONE)
        assert z.is_zero()


def test_term_arithmetic_returns_new_elements(b2):
    x = random_element(b2, random.Random(1))
    for result in (x + YtElement(), x - YtElement(), x.scale(1), -(-x)):
        assert result == x and result is not x and result.terms is not x.terms


def test_yt_element_is_unhashable(b2):
    """add_scaled mutates an element in place, so a hash of its terms would go stale."""
    x = random_element(b2, random.Random(2))
    with pytest.raises(TypeError):
        hash(x)


def _mul_by_double_loop(alg, x, y):
    """Reference product: one bichar_n per pair of terms."""
    d = {}
    for m1, p1 in x.items():
        for m2, p2 in y.items():
            key = m1.times(m2)
            d[key] = d.get(key, TPoly.zero()) + p1 * p2 * TPoly.t_power(alg.bichar_n(m1, m2))
    return YtElement(d)


def _grouped_right_factor(alg, rng):
    """Terms in several twist groups of mul, with exponents of either sign.

    n0 * A^-w comes before n0, which it factors over, so it is the first
    reference and n0 starts a second group; n0 * A^-w2 joins n0's group;
    random unrelated terms follow.
    """
    nodes = list(alg.cartan.nodes())
    n0 = Monomial({(rng.choice(nodes), rng.randrange(-4, 5)): rng.choice([-2, -1, 1, 2])
                   for _ in range(3)})
    below = n0.times(alg.a_monomial_expand({(nodes[0], 3): 1}))
    beside = n0.times(alg.a_monomial_expand({(nodes[-1], 1): 1, (nodes[0], -2): 2}))
    terms = {below: TPoly({1: 2}), n0: ONE, beside: TPoly({-2: -1, 0: 3})}
    for m, p in random_element(alg, rng).items():
        terms.setdefault(m, p)
    return YtElement(terms)


def _reversed(x):
    return YtElement(dict(reversed(list(x.items()))))


def test_monomial_times_matches_constructor():
    rng = random.Random(3)
    for _ in range(200):
        d1 = {(rng.randrange(1, 3), rng.randrange(-2, 3)): rng.randrange(-2, 3) for _ in range(3)}
        d2 = {(rng.randrange(1, 3), rng.randrange(-2, 3)): rng.randrange(-2, 3) for _ in range(3)}
        want = {k: d1.get(k, 0) + d2.get(k, 0) for k in set(d1) | set(d2)}
        got = Monomial(d1).times(Monomial(d2))
        assert got == Monomial(want) and hash(got) == hash(Monomial(want))
        assert got.data == Monomial(want).data


@pytest.mark.parametrize("name", KERNEL_TYPES + ["E6"])
def test_mul_matches_double_loop(name):
    alg = algebra(name)
    rng = random.Random(f"mul:{name}")
    for _ in range(6):
        x = random_element(alg, rng)
        for y in (random_element(alg, rng), _grouped_right_factor(alg, rng)):
            assert alg.mul(x, y) == _mul_by_double_loop(alg, x, y)
            assert alg.mul(y, x) == _mul_by_double_loop(alg, y, x)
        z = _grouped_right_factor(alg, rng)
        assert alg.mul(x, y, z) == _mul_by_double_loop(alg, _mul_by_double_loop(alg, x, y), z)
    refs, right = alg._twist_groups(z)
    assert len(refs) >= 2 and any(psi for _, g, psi, _ in right if g == 1)
    # e_t products: fundamentals, and the same factors with the terms reversed
    i, j = alg.cartan.nodes()[0], alg.cartan.nodes()[-1]
    f_i, f_j = fundamental(alg, i, 0), fundamental(alg, j, 1)
    for y in (f_j, _reversed(f_j)):
        assert alg.mul(f_i, y) == _mul_by_double_loop(alg, f_i, y)
    e = e_t(alg, Monomial({(i, 2): 1, (j, 0): 1}))
    for y in (e, _reversed(e)):
        assert alg.mul(x, y) == _mul_by_double_loop(alg, x, y)
        assert alg.mul(y, x) == _mul_by_double_loop(alg, y, x)


def test_mul_results_are_normal_form_and_drop_cancelled_terms(sl2):
    """Each product monomial has sorted, zero-free data and the hash of the
    constructor's; a pair sum that cancels leaves no term, not a zero TPoly."""
    y0, y2 = Monomial.y(1, 0), Monomial.y(1, 2)
    gap = sl2.bichar_n(y0, y2) - sl2.bichar_n(y2, y0)
    assert gap  # Y[1,0] Y[1,2] and Y[1,2] Y[1,0] differ by a t-power
    x = YtElement({y0: ONE, y2: ONE, Monomial.y(1, 5, -1): TPoly({1: 2})})
    y = YtElement({y2: ONE, y0: TPoly.t_power(gap, -1), Monomial.y(1, 5): ONE})
    got = sl2.mul(x, y)
    assert got == _mul_by_double_loop(sl2, x, y)
    assert y0.times(y2) not in got.terms
    assert Monomial.unit() in got.terms  # Y[1,5]^-1 Y[1,5] cancels to the unit
    for m, p in got.items():
        normal = Monomial(dict(m.items()))
        assert p and m.data == normal.data and hash(m) == hash(normal)


def test_scale_by_one_copies_the_map_and_shares_the_coefficients(b2):
    x = random_element(b2, random.Random(4))
    for one in (ONE, TPoly.t_power(0), 1):
        y = x.scale(one)
        assert y == x and y.terms is not x.terms
        assert all(y.terms[m] is p for m, p in x.items())
    snap = _snapshot(x)
    y.add_scaled(random_element(b2, random.Random(5)))
    assert _unchanged(x, snap)


def test_twist_groups_try_one_reference_per_term(b2, monkeypatch):
    """Unrelated terms cost one factor_over_A each, not one per reference."""
    rng = random.Random(8)
    y = YtElement.zero()
    while len(y) < 40:
        y = y + random_element(b2, rng)
    calls = []
    factor = b2.factor_over_A
    monkeypatch.setattr(b2, "factor_over_A", lambda m, base: calls.append(m) or factor(m, base))
    refs, right = b2._twist_groups(y)
    assert len(calls) == len(y) - 1 and len(right) == len(y)
    assert len(refs) > len(y) // 2


@pytest.mark.parametrize("name", TYPES)
def test_bar_involution_and_antimultiplicativity(name):
    alg = algebra(name)
    rng = random.Random(11)
    for _ in range(25):
        x, y = random_element(alg, rng), random_element(alg, rng)
        assert alg.bar(alg.bar(x)) == x
        assert alg.bar(alg.mul(x, y)) == alg.mul(alg.bar(y), alg.bar(x))
    assert alg.bar(YtElement.unit().scale(TPoly.t_power(3))) == YtElement.unit().scale(
        TPoly.t_power(-3)
    )


@pytest.mark.parametrize("name", TYPES + ["B3", "C3", "F4"])
def test_gamma_is_antisymmetrized_bicharacter(name):
    alg = algebra(name)
    for i in alg.cartan.nodes():
        for j in alg.cartan.nodes():
            for d in range(-9, 10):
                g = alg.gamma(i, d, j, 0)
                assert g == alg.n_pair(i, d, j, 0) - alg.n_pair(j, 0, i, d)
                assert g == -alg.gamma(j, 0, i, d)


@pytest.mark.parametrize("name", TYPES)
def test_alpha_beta_match_expansions(name):
    alg = algebra(name)
    for i in alg.cartan.nodes():
        for j in alg.cartan.nodes():
            for d in range(-8, 9):
                ma, mb = alg.a_monomial_expand({(i, d): 1}), alg.a_monomial_expand({(j, 0): 1})
                assert alg.alpha(i, d, j, 0) == alg.bichar_n(ma, mb) - alg.bichar_n(
                    mb, ma
                )
                a, y = alg.a_monomial_expand({(i, d): -1}), Monomial.y(j, 0)
                assert alg.beta(i, d, j, 0) == alg.bichar_n(a, y) - alg.bichar_n(y, a)


@settings(max_examples=60, deadline=None)
@given(exps, exps, exps)
def test_bichar_n_biadditive(d1, d2, d3):
    alg = algebra("B2")
    a, b, c = Monomial(d1), Monomial(d2), Monomial(d3)
    assert alg.bichar_n(a.times(b), c) == alg.bichar_n(a, c) + alg.bichar_n(b, c)
    assert alg.bichar_n(a, b.times(c)) == alg.bichar_n(a, b) + alg.bichar_n(a, c)


def _copy_word_twist(alg, *monomials):
    """Ordering character of the level-sorted generator-copy word."""
    copies = []
    for m in monomials:
        for (i, l), e in m.items():
            sign = 1 if e > 0 else -1
            copies.extend([(i, l, sign)] * abs(e))
    copies.sort(key=lambda g: g[1])
    total = 0
    for a in range(len(copies)):
        ia, la, ea = copies[a]
        for b in range(a + 1, len(copies)):
            ib, lb, eb = copies[b]
            total += ea * eb * alg.n_pair(ia, la, ib, lb)
    return total


@pytest.mark.parametrize("name", TYPES)
def test_nt_bichar_matches_ordering_character(name):
    """Second route: N_t from the twist of the generator-copy word."""
    alg = algebra(name)
    rng = random.Random(31)
    for _ in range(30):
        d1 = {
            (rng.choice(list(alg.cartan.nodes())), rng.randrange(-3, 4)): rng.choice(
                [-2, -1, 1, 2]
            )
            for _ in range(rng.randrange(1, 4))
        }
        d2 = {
            (rng.choice(list(alg.cartan.nodes())), rng.randrange(-3, 4)): rng.choice(
                [-2, -1, 1, 2]
            )
            for _ in range(rng.randrange(1, 4))
        }
        m1, m2 = Monomial(d1), Monomial(d2)
        want = (
            alg.bichar_n(m1, m2)
            - _copy_word_twist(alg, m1, m2)
            + _copy_word_twist(alg, m1)
            + _copy_word_twist(alg, m2)
        )
        assert alg.nt_bichar(m1, m2) == want


def test_d_bicharacter_requires_simply_laced(b2):
    with pytest.raises(NotSimplyLaced):
        b2.d_bicharacter({}, {}, {}, {})
    with pytest.raises(NotSimplyLaced):
        b2.vv_epsilon(1, 0, 2, 0)


def test_word_product_and_nt_exponent(sl2):
    w = [(1, 2, 1), (1, 0, 1)]
    x = sl2.mul(*(YtElement.from_monomial(Monomial.y(i, l, e)) for i, l, e in w))
    assert x == YtElement.from_monomial(
        Monomial({(1, 0): 1, (1, 2): 1}), TPoly.t_power(sl2.n_pair(1, 2, 1, 0))
    )
    assert sl2.nt_exponent(w) == sl2.n_pair(1, 2, 1, 0) - sl2.n_pair(1, 0, 1, 2)
    assert sl2.nt_exponent([(1, 0, 1), (1, 2, 1)]) == 0
