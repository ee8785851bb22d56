import random

import pytest

from qtchar import algebra, screening
from qtchar.algebra import Monomial, YtElement
from qtchar.errors import NotIDominant
from qtchar.screening import (
    e_it,
    f_it,
    ft_sl2,
    i_dominant_part,
    in_kernel,
    in_kernel_all,
    s_it,
)
from qtchar.sl2 import sl2_algebra
from qtchar.suites import KERNEL_TYPES
from qtchar.tpoly import ONE, ZERO, TPoly

from conftest import random_element


def test_screening_is_additive(b2):
    rng = random.Random(3)
    for _ in range(10):
        x, y = random_element(b2, rng), random_element(b2, rng)
        for i in b2.cartan.nodes():
            left = s_it(b2, i, x + y)
            want = s_it(b2, i, x)
            for l, c in s_it(b2, i, y).comps.items():
                want.comps[l] = want.comps[l] + c
            assert left == want


def test_screening_of_single_y(sl2):
    vec = s_it(sl2, 1, YtElement.from_monomial(Monomial.y(1, 0)))
    assert vec.component(0) == YtElement.from_monomial(Monomial.y(1, 0))
    assert vec.component(-1).is_zero()


def test_screening_ignores_other_nodes(b2):
    x = YtElement.from_monomial(Monomial({(2, 0): 3, (2, 5): -1}))
    assert s_it(b2, 1, x).is_zero()


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2"])
def test_e_and_f_lie_in_the_node_kernel(name):
    alg = algebra(name)
    for i in alg.cartan.nodes():
        for l in (0, 1):
            m = Monomial.y(i, l)
            assert in_kernel(alg, i, e_it(alg, i, m))
            assert in_kernel(alg, i, f_it(alg, i, m))
        m2 = Monomial({(i, 0): 1, (i, 2 * alg.cartan.ri(i)): 1})
        assert in_kernel(alg, i, f_it(alg, i, m2))


def test_single_y_not_in_kernel(b2):
    y = YtElement.from_monomial(Monomial.y(1, 0))
    assert not in_kernel(b2, 1, y)
    assert in_kernel(b2, 2, y)
    assert not in_kernel_all(b2, y)


def test_f_it_unique_i_dominant_monomial(b2):
    for i in (1, 2):
        for m in [
            Monomial.y(i, 0),
            Monomial({(i, 0): 1, (i, 2 * b2.cartan.ri(i)): 1}),
            Monomial({(i, 0): 2}),
        ]:
            f = f_it(b2, i, m)
            assert f.coeff(m) == ONE
            assert list(i_dominant_part(f, i)) == [m]


def test_f_it_mixed_residues(b2):
    # node 2 of B2 has r = 2, so levels 0 and 1 sit in different classes
    m = Monomial({(2, 0): 1, (2, 1): 1})
    f = f_it(b2, 2, m)
    assert in_kernel(b2, 2, f)
    assert list(i_dominant_part(f, 2)) == [m]


def test_not_i_dominant_raises(b2):
    bad = Monomial({(1, 0): -1})
    with pytest.raises(NotIDominant):
        e_it(b2, 1, bad)
    with pytest.raises(NotIDominant):
        f_it(b2, 1, bad)
    # dominance is only checked at the given node
    spectator = Monomial({(1, 0): 1, (2, 3): -1})
    assert f_it(b2, 1, spectator).coeff(spectator) == ONE


def test_sigma_window_reduction(g2):
    # node 2 of G2 has r = 3: screening indices reduce into [-3, 3)
    x = YtElement.from_monomial(Monomial({(2, 7): 1, (2, -5): 1}))
    vec = s_it(g2, 2, x)
    assert vec.ri == 3
    assert sorted(vec.comps) == list(range(-3, 3))
    assert not vec.is_zero()


def test_kernel_closed_under_products(b2):
    f1 = f_it(b2, 1, Monomial.y(1, 0))
    f2 = f_it(b2, 1, Monomial.y(1, 3))
    assert in_kernel(b2, 1, b2.mul(f1, f2))
    assert in_kernel(b2, 1, f1 + f2.scale(ONE))


# ---------------------------------------------------------------------------
# the local lift against the twisted product it replaces
# ---------------------------------------------------------------------------


def _f_it_by_mul(alg, i, m):
    """f_it as the twisted product m * prod_k chi_k, chi_k the lifted A-string
    polynomial of the rank-1 shadow of m in residue class k."""
    s2 = sl2_algebra()
    ri = alg.cartan.ri(i)
    shadows = {}
    for (j, l), u in m.items():
        if j == i:
            shadows.setdefault(l % ri, {})[(1, l // ri)] = u
    result = YtElement.from_monomial(m)
    for k, shadow in sorted(shadows.items()):
        mk = Monomial(shadow)
        chi = {}
        for mu, lam in f_it(s2, 1, mk).items():
            v = s2.factor_over_A(mu, mk)
            c = lam * TPoly.t_power(-s2.bichar_n(mk, s2.a_monomial_expand(v)))
            target = alg.a_monomial_expand({(i, k + lv * ri): e for (_, lv), e in v.items()})
            chi[target] = chi.get(target, ZERO) + c
        result = alg.mul(result, YtElement(chi))
    return result


def _random_i_dominant(alg, i, rng):
    """Exponents 1..3 at node i on levels of 1 to 3 residue classes mod r_i,
    plus spectator factors of either sign at the other nodes."""
    ri = alg.cartan.ri(i)
    d = {}
    for k in rng.sample(range(ri), rng.randint(1, min(ri, 3))):
        for lv in rng.sample(range(-2, 3), rng.randint(1, 2)):
            d[(i, k + lv * ri)] = rng.randint(1, 3)
    for j in alg.cartan.nodes():
        if j != i and rng.random() < 0.5:
            d[(j, rng.randint(-4, 4))] = rng.choice([-2, -1, 1, 2])
    return Monomial(d)


@pytest.mark.parametrize("name", KERNEL_TYPES + ["E6", "F4"])
def test_f_it_matches_twisted_product(name):
    alg = algebra(name)
    rng = random.Random(f"f_it {name}")
    for i in alg.cartan.nodes():
        for _ in range(8):
            m = _random_i_dominant(alg, i, rng)
            assert f_it(alg, i, m) == _f_it_by_mul(alg, i, m), (i, m)
            assert i_dominant_part(f_it(alg, i, m), i) == {m: ONE}, (i, m)


def test_ft_sl2_rejects_higher_rank_and_leaves_table_unchanged():
    cached = Monomial.y(1, 0)
    ft_sl2(sl2_algebra(), cached)
    fresh = Monomial({(1, 901): 1, (1, 903): 1})
    before = dict(screening._FT_SL2)
    for m in (cached, fresh):
        with pytest.raises(ValueError):
            ft_sl2(algebra("A2"), m)
    assert screening._FT_SL2 == before


@pytest.mark.parametrize("name", ["A3", "B2", "G2", "F4", "E6", "E8"])
def test_y_against_a_inverse_twist_is_local(name):
    """N(Y_{j,k}, A_{i,l}^-1) is +1 at (i, l + r_i), -1 at (i, l - r_i), else 0."""
    alg = algebra(name)
    nodes = list(alg.cartan.nodes())
    for i in nodes:
        ri = alg.cartan.ri(i)
        for l in (0, 5):
            a_inv = alg.a_expand_inv(i, l)
            for j in nodes:
                for k in range(l - 40, l + 41):
                    local = (j == i) * ((k == l + ri) - (k == l - ri))
                    assert alg.bichar_n(Monomial.y(j, k), a_inv) == local, (i, l, j, k)


@pytest.mark.parametrize("name", ["B2", "C3", "G2", "F4"])
def test_a_strings_of_different_residues_commute_untwisted(name):
    """N(A_{i,k}^-1, A_{i,l}^-1) = 0 for k != l mod r_i."""
    alg = algebra(name)
    for i in alg.cartan.nodes():
        ri = alg.cartan.ri(i)
        for k in range(-3 * ri, 3 * ri + 1):
            if k % ri:
                n = alg.bichar_n(alg.a_expand_inv(i, k), alg.a_expand_inv(i, 0))
                assert n == 0, (i, k)
