import gc
import random
import weakref
from itertools import combinations_with_replacement

import pytest

from qtchar import algebra, characters, screening
from qtchar.algebra import Monomial, YtAlgebra, YtElement
from qtchar.characters import fundamental, lt_and_kl, t_algorithm
from qtchar.errors import NotIDominant
from qtchar.grammar import parse_basis_monomial
from qtchar.screening import (
    e_it,
    f_it,
    ft_sl2,
    i_dominant_part,
    in_kernel,
    in_kernel_all,
    s_it,
)
from qtchar.sl2 import is_irregular, sl2_algebra
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
            for l, c in s_it(b2, i, y).items():
                want[l] = want[l] + c
            assert left == want


def _s_it_by_mul(alg, i, x):
    """s_it with each window step a twisted product of one-term elements."""
    ri = alg.cartan.ri(i)
    out = {l: YtElement.zero() for l in range(-ri, ri)}
    for m, p in x.items():
        for (j, l), u in m.items():
            if j != i or u == 0:
                continue
            coeff = YtElement.from_monomial(m, p * screening._sigma(u))
            ll = l
            while ll >= ri:
                a = alg.a_monomial_expand({(i, ll - ri): -1})
                coeff = alg.mul(coeff, YtElement.from_monomial(a, TPoly.t_power(1)))
                ll -= 2 * ri
            while ll < -ri:
                a_inv = alg.a_monomial_expand({(i, ll + ri): 1})
                coeff = alg.mul(coeff, YtElement.from_monomial(a_inv, TPoly.t_power(-1)))
                ll += 2 * ri
            out[ll].add_scaled(coeff)
    return out


@pytest.mark.parametrize("name", KERNEL_TYPES)
def test_s_it_matches_twisted_products(name):
    """With a one-term right factor the twist of mul is bichar_n, so s_it's
    window steps equal the twisted products, on levels up to several windows
    away on either side."""
    alg = algebra(name)
    rng = random.Random(f"s_it {name}")
    for i in alg.cartan.nodes():
        for _ in range(40):
            x = YtElement.zero()
            for _ in range(rng.randint(1, 3)):
                m = Monomial({(rng.choice(list(alg.cartan.nodes())), rng.randint(-12, 12)):
                              rng.choice([-2, -1, 1, 2]) for _ in range(rng.randint(1, 4))})
                x.add_scaled(YtElement.from_monomial(m, TPoly.t_power(rng.randint(-3, 3))))
            assert s_it(alg, i, x) == _s_it_by_mul(alg, i, x), (i, x)


def test_screening_of_single_y(sl2):
    vec = s_it(sl2, 1, YtElement.from_monomial(Monomial.y(1, 0)))
    assert vec[0] == YtElement.from_monomial(Monomial.y(1, 0))
    assert vec[-1].is_zero()


def test_screening_ignores_other_nodes(b2):
    x = YtElement.from_monomial(Monomial({(2, 0): 3, (2, 5): -1}))
    assert all(v.is_zero() for v in s_it(b2, 1, x).values())


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
    assert sorted(vec) == list(range(-3, 3))
    assert not all(v.is_zero() for v in vec.values())
    with pytest.raises(KeyError):
        vec[3]


def test_e_it_carries_other_nodes_as_spectators(b2):
    """The Y_2 factor of Y[1,0] Y[2,1] rides along in the node-1 e_it."""
    x = e_it(b2, 1, Monomial({(1, 0): 1, (2, 1): 1}))
    t_inv = TPoly.t_power(-1)
    assert x == YtElement({Monomial({(1, 0): 1, (2, 1): 1}): t_inv,
                           Monomial({(1, 2): -1, (2, 1): 2}): t_inv})
    assert in_kernel(b2, 1, x)


def test_kernel_closed_under_products(b2):
    f1 = f_it(b2, 1, Monomial.y(1, 0))
    f2 = f_it(b2, 1, Monomial.y(1, 3))
    assert in_kernel(b2, 1, b2.mul(f1, f2))
    assert in_kernel(b2, 1, f1 + f2.scale(ONE))


def test_one_wrong_t_power_leaves_the_kernels():
    """E6 node 4's character lies in every kernel (the kernel suite checks
    it); multiplying one coefficient by t^2, the seed's or one halfway down,
    takes it out of some kernel."""
    e6 = algebra("E6")
    f = fundamental(e6, 4)
    terms = list(f.items())
    for m, p in (terms[0], terms[len(terms) // 2]):
        wrong = f + YtElement.from_monomial(m, p * TPoly.t_power(2) - p)
        assert not in_kernel_all(e6, wrong), m


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
            a_inv = alg.a_monomial_expand({(i, l): 1})
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
                n = alg.bichar_n(alg.a_monomial_expand({(i, k): 1}),
                                 alg.a_monomial_expand({(i, 0): 1}))
                assert n == 0, (i, k)


# ---------------------------------------------------------------------------
# the rank-1 table against the triangular subtraction from E_t it replaces
# ---------------------------------------------------------------------------


def _reference_character(s2, m, memo):
    """E_t(m) = e_it with leading coefficient 1, minus lam times the reference
    character of each lower dominant term lam * mu."""
    if m not in memo:
        e = e_it(s2, 1, m)
        power, coeff = e.coeff(m).single_power()
        assert coeff == 1
        out = e.scale(TPoly.t_power(-power))
        for mu, lam in out.dominant_part().items():
            if mu != m:
                out.add_scaled(_reference_character(s2, mu, memo), -lam)
        memo[m] = out
    return memo[m]


def _reference_strings(s2, m, memo):
    """The reference character of m as a map v -> coefficient, per term m A^-v."""
    return {
        tuple(sorted((l, e) for (_, l), e in s2.factor_over_A(mu, m).items())): lam
        for mu, lam in _reference_character(s2, m, memo).items()
    }


def _levels_monomial(levels):
    d = {}
    for l in levels:
        d[(1, l)] = d.get((1, l), 0) + 1
    return Monomial(d)


def test_ft_sl2_matches_triangular_subtraction_from_e_t():
    """Every dominant rank-1 monomial of degree <= 4 on levels 0..8, and Y^u for u <= 12."""
    s2 = sl2_algebra()
    memo = {}
    tops = [_levels_monomial(levels) for degree in range(1, 5)
            for levels in combinations_with_replacement(range(9), degree)]
    tops += [Monomial.y(1, 0, u) for u in range(5, 13)]
    for m in tops:
        assert dict(ft_sl2(s2, m)) == _reference_strings(s2, m, memo), m


def test_ft_sl2_twist_rules_are_the_bicharacter():
    """The local rules that combine the segment strings agree with N, and N is antisymmetric."""
    s2 = sl2_algebra()
    for k in range(-6, 7):
        y_k, a_k = Monomial.y(1, k), s2.a_monomial_expand({(1, k): 1})
        for l in range(-6, 7):
            a_l = s2.a_monomial_expand({(1, l): 1})
            assert screening._n_y_a({k: 1}, ((l, 1),)) == s2.bichar_n(y_k, a_l), (k, l)
            assert screening._n_a_a({k: 1}, ((l, 1),)) == s2.bichar_n(a_k, a_l), (k, l)
            assert s2.bichar_n(a_l, y_k) == -s2.bichar_n(y_k, a_l), (k, l)
    rng = random.Random("ft_sl2 twist")
    for _ in range(20):
        y = {l: rng.randint(-2, 3) for l in rng.sample(range(-4, 5), 3)}
        w = {l: rng.randint(1, 3) for l in rng.sample(range(-4, 5), 3)}
        v = {l: rng.randint(1, 3) for l in rng.sample(range(-4, 5), 3)}
        a_v = s2.a_monomial_expand({(1, l): e for l, e in v.items()})
        a_w = s2.a_monomial_expand({(1, l): e for l, e in w.items()})
        y_m = Monomial({(1, l): e for l, e in y.items()})
        assert screening._n_y_a(y, v.items()) == s2.bichar_n(y_m, a_v)
        assert screening._n_a_a(w, v.items()) == s2.bichar_n(a_w, a_v)


def test_ft_sl2_builds_without_twisted_product(monkeypatch):
    """A fresh entry, and the lower entries it recurses into, come from the
    segment strings alone: no e_it, f_it, twisted mul or factor_over_A."""

    def forbidden(*args, **kwargs):
        raise AssertionError("the rank-1 table build reached a twisted-product path")

    monkeypatch.setattr(screening, "_FT_SL2", {})
    monkeypatch.setattr(screening, "e_it", forbidden)
    monkeypatch.setattr(screening, "f_it", forbidden)
    monkeypatch.setattr(YtAlgebra, "mul", forbidden)
    monkeypatch.setattr(YtAlgebra, "factor_over_A", forbidden)
    s2 = sl2_algebra()
    m = Monomial({(1, 1001): 2, (1, 1003): 1})
    assert is_irregular(m)
    got = dict(ft_sl2(s2, m))
    assert Monomial.y(1, 1001) in screening._FT_SL2  # the lower entry was built too
    assert got == {
        (): ONE,
        ((1004, 1),): ONE,
        ((1002, 1), (1004, 1)): TPoly({-1: 1, 1: 1}),
        ((1002, 2),): -ONE,
        ((1002, 2), (1004, 1)): ONE,
    }
    with pytest.raises(NotIDominant):
        ft_sl2(s2, Monomial({(1, 0): 1, (1, 2): -1}))
    assert Monomial({(1, 0): 1, (1, 2): -1}) not in screening._FT_SL2


# ---------------------------------------------------------------------------
# the per-algebra lift table, keyed by level-shift class
# ---------------------------------------------------------------------------

B2_BENCH = [[2, -2], [-1, 2]]
KL_SEEDS = [(B2_BENCH, "Y[2,0] Y[1,5] Y[2,4]"), (B2_BENCH, "Y[2,0] Y[1,5] Y[2,4] Y[1,1] Y[2,8]"),
            ("A3", "Y[1,1] Y[2,0] Y[2,2] Y[2,4] Y[3,3]"),
            ("A2", "Y[1,0] Y[1,2] Y[1,4] Y[2,1] Y[2,3] Y[2,5]")]


def _recorded_lifts(monkeypatch, run):
    """The (i, m) of every lift_it call that the frontier loop makes during run()."""
    calls = []

    def lift_it(alg, i, m):
        calls.append((i, m))
        return screening.lift_it(alg, i, m)

    with monkeypatch.context() as patch:
        patch.setattr(characters, "lift_it", lift_it)
        run()
    return calls


def _assert_lifts_match_the_build(alg, calls):
    """lift_it's terms, moved up by its offset, equal the uncached build on m,
    and on m shifted by -7, -1, 1, 2 and 3."""
    assert calls
    for i, m in calls:
        for s in (-7, -1, 0, 1, 2, 3):
            ms = m.shift(s)
            terms, lo = screening.lift_it(alg, i, ms)
            got = [(Monomial.from_sorted(d).shift(lo), w, c) for d, w, c in terms]
            pairs = [(l, u) for (j, l), u in ms.data if j == i]
            assert got == screening._build_lift(alg, i, pairs, ms), (i, m, s)


@pytest.mark.parametrize("name", KERNEL_TYPES + ["F4", "E6"])
def test_lift_table_matches_the_uncached_build_on_fundamentals(name, monkeypatch):
    alg = algebra(name)
    for i in alg.cartan.nodes():
        calls = _recorded_lifts(monkeypatch, lambda: t_algorithm(alg, Monomial.y(i, 0)))
        _assert_lifts_match_the_build(alg, calls)


@pytest.mark.parametrize("cartan,seed", KL_SEEDS)
def test_lift_table_matches_the_uncached_build_on_kl_seeds(cartan, seed, monkeypatch):
    alg = algebra(cartan)
    calls = _recorded_lifts(monkeypatch, lambda: lt_and_kl(alg, parse_basis_monomial(seed)))
    assert any(e > 1 for _, m in calls for _, e in m.items())  # parts with exponents past 1
    _assert_lifts_match_the_build(alg, calls)


@pytest.mark.parametrize("cartan,seed", [(B2_BENCH, "Y[2,0] Y[1,5] Y[2,4]"), ("G2", "Y[2,0]"),
                                         ("E6", "Y[4,0]")])
def test_rerun_and_shifted_seed_build_no_lift(cartan, seed, monkeypatch):
    """Every lift of a run on the seed shifted by 1 (which moves the residue
    classes of r_i = 2 and 3) is in the table that the first run filled."""
    alg = algebra(cartan)
    m = parse_basis_monomial(seed)
    builds = []
    real = screening._build_lift
    monkeypatch.setattr(screening, "_build_lift",
                        lambda *args: builds.append(args[1:3]) or real(*args))
    want = t_algorithm(alg, m)
    assert builds
    del builds[:]
    assert t_algorithm(alg, m) == want
    assert list(t_algorithm(alg, m.shift(1)).items()) == list(want.shift(1).items())
    assert builds == []


F4_BENCH = [[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]]


@pytest.mark.parametrize("cartan", ["A3", "B2", "C3", "G2", F4_BENCH])
def test_build_lift_moves_with_a_level_shift(cartan):
    """_build_lift on node-i pairs moved by s is the unmoved build with each
    Y-delta moved by s: each residue class is relabelled from its own lowest
    level, whatever class that level falls in."""
    alg = algebra(cartan)
    rng = random.Random(33)
    for _ in range(25):
        i = rng.choice(list(alg.cartan.nodes()))
        levels = sorted(rng.sample(range(9), rng.randint(1, 3)))
        pairs = [(l, rng.randint(1, 2)) for l in levels]
        m = Monomial({(i, l): u for l, u in pairs})
        want = screening._build_lift(alg, i, pairs, m)
        for s in (-5, 1, 3):
            moved = [(l + s, u) for l, u in pairs]
            got = screening._build_lift(alg, i, moved, m.shift(s))
            assert got == [(dl.shift(s), w, c) for dl, w, c in want], (cartan, i, pairs, s)


def test_lift_table_does_not_keep_the_algebra_alive():
    alg = algebra("B2")
    t_algorithm(alg, Monomial.y(2, 0))
    assert screening._LIFTS[alg][0]
    ref = weakref.ref(alg)
    size = len(screening._LIFTS)
    del alg
    gc.collect()
    assert ref() is None and len(screening._LIFTS) < size


@pytest.mark.parametrize("cartan,seed", KL_SEEDS[:2] + [
    ("A1", "Y[1,5]^2 Y[1,7]"), ("A1", "Y[1,3] Y[1,5]^2 Y[1,7]^2 Y[1,9]"), ("G2", "Y[2,1]"),
    ("F4", "Y[3,5]"), ("C3", "Y[1,-4] Y[3,3]")])
def test_t_algorithm_adds_rank_1_entries_at_level_0(cartan, seed, monkeypatch):
    """Every shadow, and every lower entry that an irregular one recurses
    into, is looked up moved down to level 0."""
    monkeypatch.setattr(screening, "_FT_SL2", {})
    t_algorithm(algebra(cartan), parse_basis_monomial(seed))
    assert screening._FT_SL2
    assert all(m.data[0][0][1] == 0 for m in screening._FT_SL2)


def test_ft_sl2_of_a_shifted_monomial_is_the_shifted_entry():
    """Dominant rank-1 monomials of degree <= 4 on levels 0..6, shifted by -7, 1, 2, 3 and 100."""
    s2 = sl2_algebra()
    tops = [_levels_monomial(levels) for degree in range(1, 5)
            for levels in combinations_with_replacement(range(7), degree)]
    for m in tops:
        strings = ft_sl2(s2, m)
        for s in (-7, 1, 2, 3, 100):
            want = [(tuple((l + s, e) for l, e in v), lam) for v, lam in strings]
            assert ft_sl2(s2, m.shift(s)) == want, (m, s)
