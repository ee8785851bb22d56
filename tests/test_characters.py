import gc
import heapq
import random
import weakref

import pytest

from qtchar import algebra, characters, screening
from qtchar.algebra import Monomial, YtElement
from qtchar.characters import (
    _FUNDAMENTALS,
    Budget,
    RepElement,
    character_tree,
    chi_qt,
    chi_qt_inverse,
    decomposition_t1,
    dominant_product,
    e_t,
    e_t_normalized,
    fundamental,
    lt_and_kl,
    positivity_report,
    star_product,
    t_algorithm,
)
from qtchar.errors import BudgetExceeded, InternalInconsistency, InversionFails, NotDominant
from qtchar.screening import e_it, f_it, ft_sl2
from qtchar.sl2 import sl2_algebra
from qtchar.suites import KERNEL_TYPES
from qtchar.tpoly import ONE, ZERO, TPoly


def test_budget_validation():
    with pytest.raises(ValueError):
        Budget(max_monomials=0)
    with pytest.raises(ValueError):
        Budget(max_a_depth=0)


def test_fundamental_sizes():
    sizes = {"A1": [2], "A2": [3, 3], "B2": [4, 5], "G2": [7, 15]}
    for name, want in sizes.items():
        alg = algebra(name)
        assert [len(fundamental(alg, i)) for i in alg.cartan.nodes()] == want


def test_t_algorithm_rejects_bad_seed(sl2):
    with pytest.raises(NotDominant):
        t_algorithm(sl2, Monomial({(1, 0): -1}))


def test_budget_exceeded(g2):
    with pytest.raises(BudgetExceeded):
        t_algorithm(g2, Monomial.y(2, 0), Budget(max_monomials=3))
    with pytest.raises(BudgetExceeded):
        t_algorithm(g2, Monomial.y(2, 0), Budget(max_a_depth=1))


def test_budget_checked_against_exact_size_up_front(sl2):
    """Y[1,0]^61 has exactly depth_bound + 1 = 62 monomials."""
    m = Monomial.y(1, 0, 61)
    with pytest.raises(BudgetExceeded):
        t_algorithm(sl2, m, Budget(61))
    with pytest.raises(BudgetExceeded):
        e_t(sl2, m, Budget(61))
    assert len(t_algorithm(sl2, m, Budget(62))) == 62


def test_depth_past_exact_bound_is_inconsistent(monkeypatch):
    """The exact bound is a correctness check, not a budget: passing it aborts."""
    g2 = algebra("G2")
    monkeypatch.setattr(g2, "depth_bound", lambda m_plus: 1)
    with pytest.raises(InternalInconsistency):
        t_algorithm(g2, Monomial.y(2, 0))


def _lifted(alg, seed):
    """(i, m) for each lift of the frontier loop: every monomial m of the
    result and node i where m has a Y_i factor and is i-dominant."""
    return [(i, m) for m in t_algorithm(alg, seed).monomials()
            for i in sorted({i for (i, _), _ in m.items()}) if m.is_dominant([i])]


@pytest.mark.parametrize("name,node", [("G2", 2), ("C3", 2), ("F4", 3)])
def test_a_depth_is_additive_along_blocks(name, node):
    """Depth from the parent: depth(mr) = depth(m) + depth of mr below m."""
    alg = algebra(name)
    seed = Monomial.y(node, 0)
    depth = {}
    for i, m in _lifted(alg, seed):
        if m not in depth:
            depth[m] = alg.a_depth(m, seed)
        for mr in f_it(alg, i, m).monomials():
            assert alg.a_depth(mr, seed) == depth[m] + alg.a_depth(mr, m), (m, mr)


def test_lift_with_wrong_leading_coefficient_is_inconsistent(monkeypatch):
    """The term W = {} of every lift is m itself with coefficient 1."""
    real_ft_sl2 = screening.ft_sl2

    def ft_sl2(alg, m):
        return [(v, lam if v else TPoly.t_power(1)) for v, lam in real_ft_sl2(alg, m)]

    monkeypatch.setattr(screening, "ft_sl2", ft_sl2)
    a2 = algebra("A2")
    with pytest.raises(InternalInconsistency):
        t_algorithm(a2, Monomial.y(1, 0))
    with pytest.raises(InternalInconsistency):
        f_it(a2, 1, Monomial.y(1, 0))


A1_A2 = [[2, 0, 0], [0, 2, -1], [0, -1, 2]]


@pytest.mark.parametrize(
    "name,node,bound",
    [("E6", 4, 42), ("E7", 2, 49), ("F4", 3, 42), ("G2", 1, 6), ("G2", 2, 10),
     ("B3", 2, 8), ("C3", 2, 10), ("A4", 2, 6), ("D5", 3, 18),
     (A1_A2, 1, 1), (A1_A2, 3, 2)],
)
def test_exact_depth_bound_is_reached(name, node, bound):
    """2<wt(m_plus), rho^v> equals the deepest monomial of the fundamental."""
    alg = algebra(name)
    seed = Monomial.y(node, 0)
    result = t_algorithm(alg, seed)
    assert alg.depth_bound(seed) == bound
    assert max(alg.a_depth(m, seed) for m in result.monomials()) == bound


def _reference_t_algorithm(alg, m_plus):
    """The frontier loop written with the public f_it and a_depth."""
    nodes = list(alg.cartan.nodes())
    acc = {i: {} for i in nodes}
    s = {}
    heap = [(0, m_plus.sortkey(), m_plus)]
    seen = {m_plus}
    while heap:
        depth_m, _, m = heapq.heappop(heap)
        si = {i: acc[i].pop(m, ZERO) for i in nodes}
        neg = [i for i in nodes if any(e < 0 for (j, _), e in m.items() if j == i)]
        if m == m_plus:
            sm = ONE
        elif not neg:
            sm = ZERO
        else:
            assert all(si[i] == si[neg[0]] for i in neg), m
            sm = si[neg[0]]
        s[m] = sm
        for i in nodes:
            mu_i = sm - si[i]
            if i in neg or mu_i.is_zero():
                continue
            for mr, coeff in screening.f_it(alg, i, m).items():
                if mr == m:
                    continue
                acc[i][mr] = acc[i].get(mr, ZERO) + mu_i * coeff
                if mr not in seen:
                    seen.add(mr)
                    depth = depth_m + alg.a_depth(mr, m)
                    heapq.heappush(heap, (depth, mr.sortkey(), mr))
    return YtElement(s)


@pytest.mark.parametrize(
    "name,node",
    [(name, i) for name in KERNEL_TYPES for i in algebra(name).cartan.nodes()] + [("E6", 4)],
)
def test_t_algorithm_matches_reference_loop(name, node):
    """Term for term, in the same order, as the loop over f_it and a_depth."""
    alg = algebra(name)
    seed = Monomial.y(node, 0)
    got = list(t_algorithm(alg, seed).items())
    assert got == list(_reference_t_algorithm(alg, seed).items())


B2_BENCH = [[2, -2], [-1, 2]]  # r = [1, 2]
F4_BENCH = [[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]]


@pytest.mark.parametrize(
    "matrix,seed",
    [(B2_BENCH, {(2, 0): 1, (2, 1): 1}),
     (B2_BENCH, {(1, 3): 1, (2, 0): 1, (2, 1): 1}),
     (B2_BENCH, {(2, 0): 2, (2, 3): 1}),
     (F4_BENCH, {(3, 0): 1})],
)
def test_t_algorithm_matches_reference_loop_across_residue_classes(matrix, seed):
    """Lifts whose node-i exponents span more than one residue class mod r_i."""
    alg = algebra(matrix)
    seed = Monomial(seed)
    got = list(t_algorithm(alg, seed).items())
    assert got == list(_reference_t_algorithm(alg, seed).items())


def test_lift_is_built_once_per_node_part(monkeypatch):
    """lift_it runs once per (i, node-i exponents) of a call, not once per lift."""
    calls = []

    def lift_it(alg, i, m):
        calls.append((i, m))
        return screening.lift_it(alg, i, m)

    monkeypatch.setattr(characters, "lift_it", lift_it)
    lifted = _lifted(algebra("E6"), Monomial.y(4, 0))
    keys = {(i, tuple(kv for kv in m.items() if kv[0][0] == i)) for i, m in lifted}
    assert len(calls) == len(keys) < len(lifted)


def test_fundamental_shift(b2):
    f0 = fundamental(b2, 1, 0)
    f3 = fundamental(b2, 1, 3)
    assert f3 == f0.shift(3)
    assert f3.coeff(Monomial.y(1, 3)) == ONE


def test_fundamental_cached_per_algebra():
    """Computed once per algebra and node; the cache does not keep the algebra alive."""
    alg = algebra("B2")
    first = fundamental(alg, 2)
    assert fundamental(alg, 2, 4) == first.shift(4)
    assert fundamental(alg, 2) is first
    assert fundamental(algebra("B2"), 2) is not first
    ref = weakref.ref(alg)
    del alg
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("name", ["A1", "A2", "B2"])
def test_fundamental_unique_dominant_and_unit_lead(name):
    alg = algebra(name)
    for i in alg.cartan.nodes():
        f = fundamental(alg, i)
        assert f.dominant_part() == {Monomial.y(i, 0): ONE}


@pytest.mark.parametrize("name", ["A2", "B2"])
def test_fundamental_is_bar_invariant_up_to_twist(name):
    alg = algebra(name)
    for i in alg.cartan.nodes():
        m = Monomial.y(i, 0)
        f = fundamental(alg, i)
        assert alg.bar(f) == f.scale(TPoly.t_power(alg.bichar_n(m, m)))


def test_e_t_leading_power_and_normalization(b2):
    m = Monomial({(1, 0): 1, (2, 3): 1})
    e = e_t(b2, m)
    exp, c = e.coeff(m).single_power()
    assert c == 1
    assert e_t_normalized(b2, m).coeff(m) == ONE
    with pytest.raises(NotDominant):
        e_t(b2, Monomial({(1, 0): -1}))


def test_chi_qt_inverse_roundtrip(b2):
    rng = random.Random(17)
    for _ in range(6):
        terms = {}
        for _ in range(rng.randrange(1, 3)):
            m = Monomial(
                {(rng.randrange(1, 3), rng.randrange(0, 4)): 1 for _ in range(2)}
            )
            terms[m] = TPoly({rng.randrange(-2, 3): rng.choice([-1, 1, 2])})
        x = RepElement(terms)
        assert chi_qt_inverse(b2, chi_qt(b2, x)) == x


def test_chi_qt_inverse_leaves_its_argument_unchanged(b2):
    """The peel works in place on a private copy of z's terms."""
    x = RepElement({Monomial({(1, 0): 1, (2, 3): 1}): TPoly({1: 2}), Monomial.y(2, 0): ONE})
    y = RepElement.from_monomial(Monomial.y(1, 2), TPoly({-1: 1, 0: 1}))
    z = b2.mul(chi_qt(b2, x), chi_qt(b2, y))
    before = list(z.terms.items())
    copy = YtElement(dict(z.terms))
    assert chi_qt_inverse(b2, z) == star_product(b2, x, y)
    assert z == copy
    assert list(z.terms.items()) == before
    assert all(z.terms[m] is p for m, p in before)


@pytest.mark.parametrize("name", ["A3", "B2", "G2"])
def test_dominant_product_is_dominant_part_of_ordered_product(name):
    """Pruned and indexed, in any factor order, against the full twisted product."""
    alg = algebra(name)
    nodes = list(alg.cartan.nodes())
    rng = random.Random(f"dominant_product:{name}")
    for _ in range(8):
        keys = [(rng.choice(nodes), rng.randrange(0, 5)) for _ in range(rng.randrange(1, 4))]
        full = alg.mul(*(fundamental(alg, i, l) for i, l in keys))
        assert dominant_product(alg, keys) == YtElement(full.dominant_part()), keys
    assert dominant_product(alg, []) == YtElement.unit()


def test_chi_qt_inverse_rejects_an_element_outside_the_image(b2):
    """A bare Y[1,0] has a dominant monomial but is no chi_qt image."""
    with pytest.raises(InversionFails):
        chi_qt_inverse(b2, YtElement.from_monomial(Monomial.y(1, 0)))


def _random_rep_element(rng):
    terms = {}
    for _ in range(rng.randrange(1, 4)):
        m = Monomial({(rng.randrange(1, 3), rng.randrange(0, 4)): rng.randrange(1, 3)
                      for _ in range(rng.randrange(0, 3))})
        terms[m] = TPoly({rng.randrange(-2, 3): rng.choice([-2, -1, 1, 2])})
    return RepElement(terms)


def test_rep_element_arithmetic_matches_dicts():
    rng = random.Random(23)
    for _ in range(40):
        x, y = _random_rep_element(rng), _random_rep_element(rng)
        c = TPoly({rng.randrange(-2, 3): rng.choice([-1, 2])})
        sx, sy = list(x.items()), list(y.items())
        for got, cy in ((x + y, ONE), (x - y, -ONE)):
            want = dict(sx)
            for m, q in sy:
                want[m] = want.get(m, TPoly.zero()) + q * cy
            assert type(got) is RepElement
            assert got.terms == {m: p for m, p in want.items() if not p.is_zero()}
        assert x.scale(c).terms == {m: p * c for m, p in sx}
        z = RepElement(x.terms)
        z.add_scaled(y, c)
        assert z == x + y.scale(c)
        assert list(x.items()) == sx and list(y.items()) == sy


def test_rep_element_is_not_a_yt_element():
    m = Monomial({(1, 0): 1, (2, 1): 2})
    x, y = RepElement.from_monomial(m, TPoly({1: 3})), YtElement.from_monomial(m, TPoly({1: 3}))
    assert x.terms == y.terms
    assert x != y and y != x
    with pytest.raises(TypeError):
        hash(x)
    with pytest.raises(TypeError):
        x.add_scaled(y)
    with pytest.raises(TypeError):
        y + x
    with pytest.raises(ValueError):
        RepElement({Monomial({(1, 0): -1}): ONE})


def test_products_leave_cached_characters_unchanged():
    """chi_qt, star_product, lt_and_kl and ft_sl2 only read the cached characters."""
    alg = algebra("B2")
    s2 = sl2_algebra()
    for i in alg.cartan.nodes():
        fundamental(alg, i)
    # rank-1 characters not cached yet whose lower dominant monomials are cached
    tops = [Monomial({(1, 1001): 2, (1, 1003): 1}),
            Monomial({(1, 1001): 1, (1, 1003): 2, (1, 1005): 1})]
    for top in tops:
        assert top not in screening._FT_SL2
        for mu in e_it(s2, 1, top).dominant_part():
            if mu != top:
                ft_sl2(s2, mu)
    fundamentals = _FUNDAMENTALS[alg]

    def snapshot():
        return ({key: list(x.terms.items()) for key, x in fundamentals.items()},
                {key: list(s) for key, s in screening._FT_SL2.items()})

    before = snapshot()
    x = RepElement({Monomial({(1, 0): 1, (2, 3): 1}): TPoly({1: 2}), Monomial.y(2, 0): ONE})
    y = RepElement.from_monomial(Monomial.y(1, 2), TPoly({-1: 1, 0: 1}))
    chi_qt(alg, x)
    star_product(alg, x, y)
    lt_and_kl(alg, Monomial({(2, 0): 1, (1, 5): 1}))
    for top in tops:
        assert f_it(s2, 1, top).dominant_part() == {top: ONE}
    after = snapshot()
    assert after[0] == before[0]
    assert {key: after[1][key] for key in before[1]} == before[1]


def test_star_product_shadow_is_commutative_product(a2):
    x = RepElement.from_monomial(Monomial.y(1, 0))
    y = RepElement.from_monomial(Monomial.y(2, 1))
    left = star_product(a2, x, y)
    assert left.at_one() == x.mul_commutative(y).at_one()
    # and the two orders agree up to a single overall t-power
    right = star_product(a2, y, x)
    ratio = set()
    for m, p in left.items():
        q = right.coeff(m)
        sp_p, sp_q = p.single_power(), q.single_power()
        assert sp_p and sp_q and sp_p[1] == sp_q[1]
        ratio.add(sp_p[0] - sp_q[0])
    assert len(ratio) == 1


def test_kl_simplest_nontrivial_pair(sl2):
    m = Monomial({(1, 0): 2, (1, 2): 1})
    kl, lt = lt_and_kl(sl2, m)
    assert kl == [(Monomial.y(1, 0), 0, TPoly.t_power(-2))]
    # E_t(m) = L_t(m) + t^-2 L_t(Y0) term by term
    e = e_t_normalized(sl2, m)
    rebuilt = lt[m] + lt[Monomial.y(1, 0)].scale(TPoly.t_power(-2))
    assert e == rebuilt


def test_kl_mixed_nodes(b2):
    kl, _ = lt_and_kl(b2, Monomial({(2, 0): 1, (1, 5): 1}))
    assert kl == [(Monomial.y(1, 1), 0, TPoly.t_power(-1))]


def test_decomposition_t1_nonnegative(b2):
    rows = decomposition_t1(b2, Monomial({(2, 0): 1, (1, 5): 1}))
    assert rows == [(Monomial.y(1, 1), 1)]


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
def test_positivity_of_fundamentals(name):
    alg = algebra(name)
    for i in alg.cartan.nodes():
        rep = positivity_report(alg, i)
        assert rep["positive"], rep["offending"]


def test_character_tree_shapes(sl2, a2):
    tr = character_tree(sl2, Monomial.y(1, 0))
    assert len(tr.vertices) == 2
    assert tr.edges == [
        (Monomial.y(1, 0), Monomial({(1, 2): -1}), (1, 1))
    ]
    tr2 = character_tree(a2, Monomial.y(1, 0))
    assert len(tr2.vertices) == 3 and len(tr2.edges) == 2
    assert [key for _, _, key in tr2.edges] == [(1, 1), (2, 2)]
