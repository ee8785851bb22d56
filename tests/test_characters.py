import gc
import heapq
import random
import re
import weakref
from collections import namedtuple

import pytest

from qtchar import algebra, characters, screening
from qtchar.algebra import Monomial, YtAlgebra, YtElement
from qtchar.classical import cc_mul
from qtchar.characters import (
    _FUNDAMENTALS,
    Budget,
    _Packing,
    RepElement,
    character_tree,
    chi_qt,
    chi_qt_inverse,
    dominant_product,
    e_t,
    e_t_normalized,
    fundamental,
    lt_and_kl,
    star_product,
    t_algorithm,
)
from qtchar.errors import (
    AlgorithmFails,
    BudgetExceeded,
    InternalInconsistency,
    InversionFails,
    NotDominant,
    ParseError,
)
from qtchar.grammar import parse_basis_monomial
from qtchar.screening import e_it, f_it, ft_sl2
from qtchar.sl2 import sl2_algebra
from qtchar.suites import KERNEL_TYPES
from qtchar.tpoly import ONE, ZERO, TPoly


def _whole_loop(alg, seed, **kw):
    """t_algorithm on the whole loop for a fundamental seed Y_{i,l0}: a top_level
    of l0 + c, the level of the lowest monomial Y_{i*,l0+c}^-1, truncates
    nothing but turns off the half-depth mirror."""
    [((i, l0), _)] = seed.items()
    return t_algorithm(alg, seed, top_level=l0 + alg.cartan.duality(i)[1], **kw)


def _a_depths(alg, x, seed):
    """m -> its A-depth below seed, (depth_bound(seed) - depth_bound(m)) / 2."""
    bound = alg.depth_bound(seed)
    return {m: (bound - alg.depth_bound(m)) // 2 for m in x.monomials()}


def test_budget_validation():
    with pytest.raises(ValueError):
        Budget(max_monomials=0)
    with pytest.raises(ValueError):
        Budget(max_a_depth=0)


def test_budget_helpers_validate():
    """_make and _replace build a Budget through the same checks as the constructor."""
    with pytest.raises(ValueError):
        Budget(300, 40)._replace(max_monomials=0)
    with pytest.raises(ValueError):
        Budget._make([0, -5])
    assert Budget(300, 40)._replace(max_a_depth=None) == Budget(300)
    assert Budget._make([300, 40]) == Budget(300, 40)


@pytest.mark.parametrize("build,field", [
    (lambda: Budget(2.5), "max_monomials"),
    (lambda: Budget(True), "max_monomials"),
    (lambda: Budget("5"), "max_monomials"),
    (lambda: Budget(None), "max_monomials"),
    (lambda: Budget(10, 2.5), "max_a_depth"),
    (lambda: Budget(10, False), "max_a_depth"),
    (lambda: Budget(300, 40)._replace(max_a_depth=1.5), "max_a_depth"),
    (lambda: Budget(300, 40)._replace(max_monomials=True), "max_monomials"),
    (lambda: Budget._make([0.0, None]), "max_monomials"),  # TypeError before the range check
    (lambda: Budget._make([300, "40"]), "max_a_depth"),
])
def test_budget_refuses_non_integer_limits(build, field):
    """A limit whose type is not int, bool included, is a TypeError naming its
    field; max_a_depth alone may be None."""
    with pytest.raises(TypeError, match=f"^Budget {field} must be an int, not "):
        build()


@pytest.mark.parametrize("limits", [[3], [0.5], [300, 40, 7], [0, "x", None]])
def test_budget_make_refuses_a_wrong_number_of_limits(limits):
    """_make with other than two limits raises namedtuple's own TypeError,
    before the type and range checks of the limits it was given."""
    plain = namedtuple("Budget", Budget._fields)
    with pytest.raises(TypeError) as want:
        plain._make(limits)
    with pytest.raises(TypeError) as got:
        Budget._make(limits)
    assert str(got.value) == str(want.value) == f"Expected 2 arguments, got {len(limits)}"


def test_budget_is_an_immutable_value():
    b = Budget(300, 40)
    assert b == Budget(max_monomials=300, max_a_depth=40) != Budget()
    assert hash(b) == hash(Budget(300, 40))
    assert repr(Budget()) == "Budget(max_monomials=200000, max_a_depth=None)"
    assert (b.max_monomials, b.max_a_depth) == (300, 40)
    with pytest.raises(AttributeError):
        b.max_monomials = 1
    with pytest.raises(AttributeError):
        del b.max_a_depth
    with pytest.raises(AttributeError):
        b.other = 1


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


def test_loop_errors_name_the_whole_monomial(monkeypatch):
    """The three consistency errors of the frontier loop name the monomial in full."""
    real_lift_it = screening.lift_it

    def dominant_lift(alg, i, m):  # one term m Y[2,5], at A-depth 1
        return [((((2, 5), 1),), 1, ((0, 1),))], 0

    monkeypatch.setattr(characters, "lift_it", dominant_lift)
    with pytest.raises(InternalInconsistency,
                       match=re.escape("Y[1,0] Y[2,5] below the seed Y[1,0] is dominant")):
        t_algorithm(algebra("A2"), Monomial.y(1, 0))

    def tilted_lift(alg, i, m):  # t times the node-1 lift of the part Y[1,0] alone
        tilt = i == 1 and [kv for kv in m.items() if kv[0][0] == 1] == [((1, 0), 1)]
        terms, lo = real_lift_it(alg, i, m)
        return [(d, w, tuple((e + tilt, c) for e, c in coeff)) for d, w, coeff in terms], lo

    monkeypatch.setattr(characters, "lift_it", tilted_lift)
    with pytest.raises(AlgorithmFails,
                       match=re.escape("node values disagree at Y[1,4]^-1 Y[2,3]^-1: t vs 1")):
        t_algorithm(algebra("A2"), Monomial({(1, 0): 1, (2, 1): 1}))
    monkeypatch.undo()

    g2 = algebra("G2")
    monkeypatch.setattr(g2, "depth_bound", lambda m_plus: 1)
    with pytest.raises(InternalInconsistency,
                       match=re.escape("A-depth 2 of Y[1,1] Y[1,3] Y[1,7]^-1 exceeds the bound 1")):
        _whole_loop(g2, Monomial.y(2, 0))


def test_half_depth_seam_names_the_seed_and_the_depth(monkeypatch):
    """With a wrong depth_bound the half-depth run of a fundamental stops at
    the wrong middle, and its seam check fails, naming the seed and depth."""
    g2 = algebra("G2")
    monkeypatch.setattr(g2, "depth_bound", lambda m_plus: 1)
    with pytest.raises(InternalInconsistency, match=re.escape(
            "the terms of Y[2,0] at A-depth 1 are not the duality images of those at A-depth 0")):
        t_algorithm(g2, Monomial.y(2, 0))


def _c_plus_2(star, c):
    return star, c + 2


def _identity_star(star, c):
    return {k: k for k in star}, c


@pytest.mark.parametrize("wrong,node", [(_c_plus_2, 1), (_c_plus_2, 4),
                                        (_identity_star, 1), (_identity_star, 3)])
def test_half_depth_seam_refuses_a_wrong_duality(monkeypatch, wrong, node):
    """On E6, where -w0 swaps nodes 1 and 6 and nodes 3 and 5, a c two levels
    too high or i* = i fails the seam.  i* = i is tried on nodes that -w0
    moves: F_t(Y_{4,0}) is invariant under the diagram automorphism, so there
    the map with i* = i leaves it invariant too."""
    e6 = algebra("E6")
    real = e6.cartan.duality
    monkeypatch.setattr(e6.cartan, "duality", lambda i: wrong(*real(i)))
    with pytest.raises(InternalInconsistency, match="are not the duality images"):
        t_algorithm(e6, Monomial.y(node, 0))


def test_mirrored_terms_count_toward_the_budget():
    """E6 node 4 has 2925 terms, about half of them mirrored, not discovered:
    Budget(2924) fails, and Budget(2925) returns them all."""
    e6 = algebra("E6")
    seed = Monomial.y(4, 0)
    with pytest.raises(BudgetExceeded, match="^Y\\[4,0\\] has 2925 monomials, more than 2924$"):
        t_algorithm(e6, seed, Budget(2924))
    assert len(t_algorithm(e6, seed, Budget(2925))) == 2925


def test_monomial_cap_fires_inside_the_loop():
    """E6 node 4 reaches A-depth 42, so Budget(43) passes the up-front check
    and the cap fires in the loop, on the 44th monomial discovered."""
    e6 = algebra("E6")
    seed = Monomial.y(4, 0)
    assert e6.depth_bound(seed) == 42
    with pytest.raises(BudgetExceeded, match="^more than 43 monomials discovered$"):
        t_algorithm(e6, seed, Budget(43))


@pytest.mark.parametrize("name,node,terms", [("E6", 4, 2925), ("E8", 1, 3875)])
def test_each_node_part_is_unpacked_once_per_call(monkeypatch, name, node, terms):
    """t_algorithm unpacks each distinct node part of its monomials once per
    call, and there are fewer parts than terms: one unpack per (node i,
    node-i exponents) of the result."""
    calls = []
    unpack = _Packing.unpack

    def counted(code, part):
        calls.append(part)
        return unpack(code, part)

    monkeypatch.setattr(_Packing, "unpack", counted)
    result = _whole_loop(algebra(name), Monomial.y(node, 0))
    assert len(result) == terms
    parts = {(i, tuple(kv for kv in m.items() if kv[0][0] == i))
             for m in result.monomials() for (i, _), _ in m.items()}
    assert len(calls) == len(set(calls)) == len(parts) < terms


@pytest.mark.parametrize("name,node,terms", [("E6", 4, 2925), ("E8", 1, 3875)])
def test_half_depth_run_unpacks_each_part_up_to_the_middle_once(monkeypatch, name, node, terms):
    """The half-depth run unpacks once each distinct node part of the terms at
    A-depths <= H = ceil(D/2), the depths it computes; the mirror unpacks none."""
    alg = algebra(name)
    seed = Monomial.y(node, 0)
    calls = []
    unpack = _Packing.unpack

    def counted(code, part):
        calls.append(part)
        return unpack(code, part)

    monkeypatch.setattr(_Packing, "unpack", counted)
    result = t_algorithm(alg, seed)
    assert len(result) == terms
    depth = _a_depths(alg, result, seed)
    middle = (alg.depth_bound(seed) + 1) // 2
    parts = {(i, tuple(kv for kv in m.items() if kv[0][0] == i))
             for m in result.monomials() if depth[m] <= middle for (i, _), _ in m.items()}
    assert len(calls) == len(set(calls)) == len(parts)


@pytest.mark.parametrize("name,node", [("E6", 4), ("G2", 2), ("D5", 4)])
def test_mirrored_pairs_are_the_unpacked_ones(name, node):
    """A (key, exponent) pair is one object across the half-depth result,
    whether unpacked or made for a mirrored term."""
    result = t_algorithm(algebra(name), Monomial.y(node, 0))
    pairs = [kv for m in result.monomials() for kv in m.items()]
    assert len({id(kv) for kv in pairs}) == len(set(pairs))


@pytest.mark.parametrize(
    "name,node",
    [(name, i) for name in KERNEL_TYPES for i in algebra(name).cartan.nodes()]
    + [("E6", i) for i in range(1, 7)],
)
def test_result_monomials_are_in_normal_form(name, node):
    """Every monomial joined from node parts has sorted, zero-free data: it
    equals, and hashes as, the monomial built from its exponent map."""
    for m in t_algorithm(algebra(name), Monomial.y(node, 0)).monomials():
        built = Monomial(dict(m.items()))
        assert m == built and hash(m) == hash(built), m


def test_parts_memoized_before_slots_are_added_stay_exact(monkeypatch):
    """Slots added after the first parts are memoized change the bias, not the
    unbiased parts, so parts met again after that are memo hits: the result
    equals the reference loop, in A-depth order."""
    biases = []

    class Recorded(_Packing):
        def unpack(self, part):
            biases.append(self.bias)
            return super().unpack(part)

    monkeypatch.setattr(characters, "_Packing", Recorded)
    alg = algebra(B2_BENCH)
    seed = Monomial({(1, 3): 1, (2, 0): 1, (2, 1): 1})
    got = t_algorithm(alg, seed)
    occurrences = sum(len({i for (i, _), _ in m.items()}) for m in got.monomials())
    assert biases[0] < biases[-1] and len(biases) < occurrences
    _assert_matches_reference(alg, got, seed)


@pytest.mark.parametrize("name,node,values", [("E6", 4, 7), ("G2", 2, 1)])
def test_equal_coefficients_are_one_object(name, node, values):
    """Equal s(m) share one TPoly: in the result of t_algorithm, in
    fundamental's cache and in a shift of it."""
    alg = algebra(name)
    seed = Monomial.y(node, 0)
    for x in (t_algorithm(alg, seed), fundamental(alg, node), fundamental(alg, node, 3)):
        coeffs = [p for _, p in x.items()]
        assert len(set(coeffs)) == values
        assert len({id(p) for p in coeffs}) == values


def test_zero_entries_are_no_disagreement(monkeypatch):
    """A zero left in a node's coefficient map (here an extra t^99 item with
    coefficient 0 on every node-1 lift) is no disagreement with a node whose
    map lacks it: the maps differ as dicts but agree as TPolys."""
    alg = algebra("A2")
    seed = Monomial({(1, 0): 1, (2, 1): 1})
    want = t_algorithm(alg, seed)
    real_lift_it = screening.lift_it

    def lift_with_zero(alg, i, m):
        terms, lo = real_lift_it(alg, i, m)
        return [(d, w, coeff + ((99, 0),) if i == 1 else coeff) for d, w, coeff in terms], lo

    monkeypatch.setattr(characters, "lift_it", lift_with_zero)
    got = t_algorithm(alg, seed)
    assert got == want
    assert all(99 not in p.coeffs for _, p in got.items())


def _lifted(alg, seed):
    """(i, m) for each lift of the whole frontier loop: every monomial m of the
    result and node i where m has a Y_i factor and is i-dominant."""
    return [(i, m) for m in _whole_loop(alg, seed).monomials()
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


@pytest.mark.parametrize("name, seed", [
    ("A1", "Y[1,0]^2 Y[1,2]"),  # irregular
    ("A1", "Y[1,0] Y[1,4]"),
    ("A2", "Y[1,0] Y[2,1]"),
    ("A3", "Y[1,0]^2 Y[3,4]"),
    ("B2", "Y[2,0] Y[1,5]"),
    ("C3", "Y[3,0] Y[1,2]"),
    ("G2", "Y[1,0] Y[2,2]"),
])
def test_depth_bound_is_reached_past_fundamentals(name, seed):
    alg = algebra(name)
    m = parse_basis_monomial(seed)
    result = t_algorithm(alg, m)
    assert max(alg.a_depth(x, m) for x in result.monomials()) == alg.depth_bound(m)


def test_depth_budget_is_checked_before_the_loop(monkeypatch):
    """The result reaches depth_bound, so a lower max_a_depth fails up front."""
    b2 = algebra("B2")
    m = parse_basis_monomial("Y[2,0] Y[1,5]")
    bound = b2.depth_bound(m)

    def no_lift(alg, i, m):
        raise AssertionError("the frontier loop ran")

    with monkeypatch.context() as patch:
        patch.setattr(characters, "lift_it", no_lift)
        with pytest.raises(BudgetExceeded, match=f"A-depth {bound}, more than the budget {bound - 1}"):
            t_algorithm(b2, m, Budget(max_a_depth=bound - 1))
    assert t_algorithm(b2, m, Budget(max_a_depth=bound)) == t_algorithm(b2, m)


def _levels_at_most(m, top):
    return all(l <= top for (_, l), _ in m.items())


@pytest.mark.parametrize(
    "name,node",
    [(name, i) for name in KERNEL_TYPES for i in algebra(name).cartan.nodes()]
    + [("D4", i) for i in range(1, 5)] + [("E6", i) for i in range(1, 7)],
)
def test_truncated_fundamental_is_the_whole_one_restricted(name, node):
    """At every top from 0 to one past the highest level, the run truncated
    there keeps exactly the whole run's terms with no Y above the top, with
    the same coefficients and in the same order; from the highest level on
    it is the whole character."""
    alg = algebra(name)
    seed = Monomial.y(node, 0)
    whole = list(_whole_loop(alg, seed).items())
    highest = max(l for m, _ in whole for (_, l), _ in m.items())
    for top in range(highest + 2):
        got = list(t_algorithm(alg, seed, top_level=top).items())
        assert got == [(m, p) for m, p in whole if _levels_at_most(m, top)], top
    assert got == whole and len(t_algorithm(alg, seed, top_level=highest - 1)) < len(whole)


@pytest.mark.parametrize(
    "name,node",
    [(name, i) for name in KERNEL_TYPES for i in algebra(name).cartan.nodes()]
    + [("D4", i) for i in range(1, 5)] + [("E6", i) for i in range(1, 7)],
)
@pytest.mark.parametrize("l0", [0, -3])
def test_half_depth_run_is_the_whole_loop_mirrored(name, node, l0):
    """The half-depth run of Y_{i,l0} equals the whole loop as a map, comes in
    A-depth order, and lists its terms at A-depths <= D - H, the ones it
    keeps from its own loop, in the whole loop's order."""
    alg = algebra(name)
    seed = Monomial.y(node, l0)
    whole, half = _whole_loop(alg, seed), t_algorithm(alg, seed)
    assert half == whole and _depth_never_increases(alg, half)
    bound = alg.depth_bound(seed)
    kept = bound - (bound + 1) // 2
    depth = _a_depths(alg, whole, seed)
    assert ([(m, p) for m, p in half.items() if depth[m] <= kept]
            == [(m, p) for m, p in whole.items() if depth[m] <= kept])


def test_fundamental_caches_each_truncation_once_per_relative_top():
    """fundamental(alg, i, l, top=b) is the truncation at b - l shifted by l:
    one cache entry (i, b - l) serves every l, next to the whole entry (i, None)."""
    alg = algebra("B2")
    whole = fundamental(alg, 2, 3)
    got = fundamental(alg, 2, 3, top=8)
    assert list(got.items()) == [(m, p) for m, p in whole.items() if _levels_at_most(m, 8)]
    assert 0 < len(got) < len(whole)
    assert fundamental(alg, 2, 10, top=15) == got.shift(7)
    assert fundamental(alg, 2, 0, top=5) is _FUNDAMENTALS[alg][(2, 5)]
    assert {key for key in _FUNDAMENTALS[alg] if key[0] == 2} == {(2, None), (2, 5)}


def test_truncated_run_skips_the_up_front_depth_checks(monkeypatch):
    """E6 node 4 truncated at level 4 has 35 terms down to A-depth 8, far short
    of its depth_bound 42.  A budget of 35 monomials and A-depth 8 fails the
    whole run before its loop, and the truncated run completes under it."""
    e6 = algebra("E6")
    seed = Monomial.y(4, 0)
    want = t_algorithm(e6, seed, top_level=4)
    assert len(want) == 35 and max(e6.a_depth(m, seed) for m in want.monomials()) == 8
    budget = Budget(max_monomials=35, max_a_depth=8)

    def no_lift(alg, i, m):
        raise AssertionError("the frontier loop ran")

    with monkeypatch.context() as patch:
        patch.setattr(characters, "lift_it", no_lift)
        with pytest.raises(BudgetExceeded, match="at least 43 monomials"):
            t_algorithm(e6, seed, budget)
        with pytest.raises(BudgetExceeded, match="A-depth 42, more than the budget 8"):
            t_algorithm(e6, seed, Budget(max_a_depth=8))
    assert list(t_algorithm(e6, seed, budget, top_level=4).items()) == list(want.items())
    with pytest.raises(BudgetExceeded, match="more than 34 monomials discovered"):
        t_algorithm(e6, seed, Budget(max_monomials=34), top_level=4)


def test_truncated_run_stops_at_the_first_monomial_past_max_a_depth(monkeypatch):
    """E6 node 4 truncated at level 5 reaches A-depth 13.  Under max_a_depth 8
    the run fails when it finds a monomial deeper than 8, and lifts no monomial
    deeper than 8."""
    e6 = algebra("E6")
    seed = Monomial.y(4, 0)
    lifted = []

    def lift_it(alg, i, m):
        lifted.append(m)
        return screening.lift_it(alg, i, m)

    monkeypatch.setattr(characters, "lift_it", lift_it)
    with pytest.raises(BudgetExceeded, match=r"reaches A-depth (9|1\d) at levels up to 5, "
                                             r"more than the budget 8"):
        t_algorithm(e6, seed, Budget(max_a_depth=8), top_level=5)
    assert lifted and max(e6.a_depth(m, seed) for m in lifted) <= 8


def test_truncation_below_the_seed_is_refused(a2):
    with pytest.raises(ValueError, match="above the top level 1"):
        t_algorithm(a2, Monomial({(1, 0): 1, (2, 2): 1}), top_level=1)


@pytest.mark.parametrize("node", [0, -1, 3])
def test_node_outside_rank_is_parse_error(a2, node):
    """Node 0 must not read node n's height, nor node 3 run past the list."""
    seed = Monomial.y(node, 0)
    for call in (a2.depth_bound, lambda m: t_algorithm(a2, m)):
        with pytest.raises(ParseError, match=f"node {node} outside rank-2 algebra"):
            call(seed)


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


def _depth_never_increases(alg, x):
    """Whether depth_bound, which each A_{i,l}^-1 lowers by 2, never increases
    along the terms of x: the A-depth order of t_algorithm's result."""
    bounds = [alg.depth_bound(m) for m in x.monomials()]
    return all(a >= b for a, b in zip(bounds, bounds[1:]))


def _assert_matches_reference(alg, got, seed):
    """got equals the reference loop term for term and is in A-depth order;
    within a depth the two loops may order their terms differently."""
    assert got == _reference_t_algorithm(alg, seed)
    assert _depth_never_increases(alg, got)


@pytest.mark.parametrize(
    "name,node",
    [(name, i) for name in KERNEL_TYPES for i in algebra(name).cartan.nodes()] + [("E6", 4)],
)
def test_t_algorithm_matches_reference_loop(name, node):
    """Term for term, in A-depth order, as the loop over f_it and a_depth."""
    alg = algebra(name)
    seed = Monomial.y(node, 0)
    _assert_matches_reference(alg, t_algorithm(alg, seed), seed)


@pytest.mark.parametrize(
    "name,seed",
    [(name, Monomial.y(i, 0))
     for name in [*KERNEL_TYPES, "E6"] for i in algebra(name).cartan.nodes()]
    + [("B2", parse_basis_monomial("Y[2,0] Y[1,5] Y[2,4]"))],
    ids=str,
)
def test_t_algorithm_terms_come_in_a_depth_order(name, seed):
    """Along the result, whole and truncated one level below its highest,
    depth_bound never increases; the same terms in reversed order fail the
    check wherever they span more than one depth."""
    alg = algebra(name)
    whole = t_algorithm(alg, seed)
    highest = max(l for m in whole.monomials() for (_, l), _ in m.items())
    for got in (whole, t_algorithm(alg, seed, top_level=highest - 1)):
        assert _depth_never_increases(alg, got)
        if len({alg.depth_bound(m) for m in got.monomials()}) > 1:
            assert not _depth_never_increases(alg, YtElement(dict(reversed(got.items()))))


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
    _assert_matches_reference(alg, t_algorithm(alg, seed), seed)


@pytest.mark.parametrize("cartan", [*KERNEL_TYPES, B2_BENCH, F4_BENCH], ids=str)
def test_a_inverse_moves_each_exponent_by_at_most_one(cartan):
    """Every A_{i,l}^-1 has Y-exponents +-1 only, so no exponent of a monomial at
    A-depth d is farther than d from the seed's: the field width of t_algorithm
    rests on this."""
    alg = algebra(cartan)
    for i in alg.cartan.nodes():
        assert {abs(e) for _, e in alg.a_monomial_expand({(i, 0): 1}).items()} == {1}, i


@pytest.mark.parametrize("u,width", [(63, 8), (64, 9)])
def test_t_algorithm_matches_reference_loop_at_the_field_width_edge(sl2, u, width):
    """Y[1,0]^u reaches exponents up to u + depth_bound = 2u: 126 still fits
    8-bit fields, 128 needs 9-bit ones."""
    seed = Monomial.y(1, 0, u)
    assert u + sl2.depth_bound(seed) == 2 * u
    assert _Packing(sl2.cartan.nodes(), 2 * u).width == width
    _assert_matches_reference(sl2, t_algorithm(sl2, seed), seed)


def test_exponents_past_64_bit_fields_exceed_the_budget(sl2):
    """Y[1,0]^(2^62) reaches 2^62 + depth_bound = 2^63: refused before any lift."""
    with pytest.raises(BudgetExceeded, match="64-bit fields"):
        t_algorithm(sl2, Monomial.y(1, 0, 1 << 62), Budget(max_monomials=1 << 64))


def test_field_width_is_the_narrowest_that_holds_the_reach():
    """W = reach.bit_length() + 1 is the narrowest W with reach < 2^(W-1), up to
    2^63 - 1 in 64-bit fields; one more does not fit."""
    for reach in range(1 << 12):
        width = _Packing([1], reach).width
        assert width == reach.bit_length() + 1
        assert reach < 1 << (width - 1) and (width == 1 or reach >= 1 << (width - 2)), reach
    assert _Packing([1], (1 << 63) - 1).width == 64
    with pytest.raises(BudgetExceeded, match="64-bit fields"):
        _Packing([1], 1 << 63)


def test_e6_node4_runs_on_7_bit_fields(monkeypatch):
    """E6 node 4 reaches exponents up to 1 + depth_bound = 43, so its run packs
    into 7-bit fields."""
    widths = []

    class Recorded(_Packing):
        def __init__(self, nodes, reach):
            super().__init__(nodes, reach)
            widths.append(self.width)

    monkeypatch.setattr(characters, "_Packing", Recorded)
    assert len(t_algorithm(algebra("E6"), Monomial.y(4, 0))) == 2925
    assert widths == [7]


@pytest.mark.parametrize("width", [8, 9, 16])
def test_packing_round_trips_at_the_field_edges(width):
    """Encode and add are exact for exponents up to +-(2^(W-1) - 1): the node
    parts of x unpack, joined in node order, to the monomial's data; and
    the biased top bits of a node's slots tell its dominance.  Data moved
    down by s levels and encoded with the offset s packs the same."""
    top = (1 << (width - 1)) - 1
    code = _Packing([1, 2], top)
    assert code.width == width
    a = Monomial({(1, 0): top - 1, (2, 1): 1 - top})
    b = Monomial({(1, 0): 1, (2, 1): -1, (2, 3): top})
    c = Monomial({(1, 0): -top, (1, 2): -top})
    xa, xb, xc = (code.encode(m.data, 0) for m in (a, b, c))
    ab, abc = a.times(b), a.times(b).times(c)
    assert {(1, 0): top, (2, 1): -top, (2, 3): top} == dict(ab.items())
    for m, x in [(a, xa), (b, xb), (c, xc), (ab, xa + xb), (abc, xa + xb + xc)]:
        biased = x + code.bias
        unbiased = biased ^ code.bias
        assert sum((code.unpack(unbiased & mask) for mask in code.masks), ()) == m.data
        assert code.encode(m.data, 0) == x
        assert all(code.encode(m.shift(-s).data, s) == x for s in (-7, 1, 3))
        for i, mask in zip(code.nodes, code.masks):
            top = code.bias & mask
            assert (biased & top == top) == m.is_dominant([i]), (m, i)


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


def test_half_depth_run_lifts_each_part_below_the_middle_once(monkeypatch):
    """The half-depth run builds one lift per (i, node-i exponents) of its
    terms at A-depths below H = ceil(D/2), fewer than the whole loop builds."""
    e6, seed = algebra("E6"), Monomial.y(4, 0)
    lifted = _lifted(e6, seed)
    depth = _a_depths(e6, _whole_loop(e6, seed), seed)
    middle = (e6.depth_bound(seed) + 1) // 2
    keys = {(i, tuple(kv for kv in m.items() if kv[0][0] == i)) for i, m in lifted}
    below = {(i, tuple(kv for kv in m.items() if kv[0][0] == i))
             for i, m in lifted if depth[m] < middle}
    calls = []

    def lift_it(alg, i, m):
        calls.append((i, tuple(kv for kv in m.items() if kv[0][0] == i)))
        return screening.lift_it(alg, i, m)

    monkeypatch.setattr(characters, "lift_it", lift_it)
    t_algorithm(e6, seed)
    assert len(calls) == len(set(calls)) == len(below) < len(keys)
    assert set(calls) == below


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


@pytest.mark.parametrize("name", ["A3", "B2", "G2", "D4", "E6"])
def test_dominant_product_is_dominant_part_of_ordered_product(name):
    """Pruned, on truncated factors, in any factor order, against the full twisted product.
    E6 draws from its 27- and 78-term fundamentals only, to keep the full
    products small."""
    alg = algebra(name)
    nodes = {"E6": [1, 2, 6]}.get(name, list(alg.cartan.nodes()))
    rng = random.Random(f"dominant_product:{name}")
    for _ in range(8):
        keys = [(rng.choice(nodes), rng.randrange(0, 5)) for _ in range(rng.randrange(1, 4))]
        full = alg.mul(*(fundamental(alg, i, l) for i, l in keys))
        assert dominant_product(alg, keys) == YtElement(full.dominant_part()), keys
    assert dominant_product(alg, []) == YtElement.unit()


def test_dominant_product_keeps_a_term_that_needs_the_whole_supply(sl2):
    """In Y[1,0] * Y[1,2], the term Y[1,2]^-1 of the first factor meets the
    supply 1 at (1, 2) exactly, and its pair with Y[1,2] reaches the unit.
    Truncated at level 2, the second factor is Y[1,2] alone."""
    keys = [(1, 0), (1, 2)]
    full = sl2.mul(*(fundamental(sl2, i, l) for i, l in keys))
    got = dominant_product(sl2, keys)
    assert got == YtElement(full.dominant_part())
    assert sorted(map(str, got.monomials())) == ["1", "Y[1,0] Y[1,2]"]


def test_dominant_product_drops_non_dominant_products_at_the_last_step(sl2):
    """In Y[1,0] * Y[1,2] * Y[1,0], the last factor, truncated at level 2, is
    Y[1,0] + Y[1,2]^-1, and no supply is left for it: the last step drops
    every product with a negative exponent, Y[1,2]^-1 among them."""
    keys = [(1, 0), (1, 2), (1, 0)]
    full = sl2.mul(*(fundamental(sl2, i, l) for i, l in keys))
    got = dominant_product(sl2, keys)
    assert got == YtElement(full.dominant_part())
    assert sorted(map(str, got.monomials())) == ["Y[1,0]", "Y[1,0]^2 Y[1,2]"]


@pytest.mark.parametrize("n,width", [(63, 8), (64, 9)])
def test_dominant_product_at_the_field_width_edge(monkeypatch, sl2, n, width):
    """n copies of the A1 fundamental Y[1,0], each truncated at level 0 to its
    seed: one term Y[1,0]^n with the twist of its pairs. The reach 2n sits on
    either side of the 8-bit field edge (126 fits, 128 needs 9 bits);
    dominant_product prunes on monomials and packs nothing at either."""
    assert _Packing(sl2.cartan.nodes(), 2 * n).width == width
    # built before the patch, whole and at the top level that dominant_product
    # reads, so any packing recorded would be dominant_product's own
    for top in (None, 0):
        fundamental(sl2, 1, top=top)
    widths = []

    class Recorded(_Packing):
        def __init__(self, nodes, reach):
            super().__init__(nodes, reach)
            widths.append(self.width)

    monkeypatch.setattr(characters, "_Packing", Recorded)
    keys = [(1, 0)] * n
    full = sl2.mul(*(fundamental(sl2, i, l) for i, l in keys))
    assert dominant_product(sl2, keys) == YtElement(full.dominant_part())
    assert widths == []


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
    """chi_qt, star_product, lt_and_kl and ft_sl2 only read the cached characters.
    The fundamentals are cached whole and truncated at every top that the
    products below read (levels 0 to 5), so the cache gains no entry."""
    alg = algebra("B2")
    s2 = sl2_algebra()
    for i in alg.cartan.nodes():
        for top in (None, *range(6)):
            fundamental(alg, i, 0, top=top)
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
    assert left.at_one() == cc_mul(x.at_one(), y.at_one())
    # and the two orders agree up to a single overall t-power
    right = star_product(a2, y, x)
    ratio = set()
    for m, p in left.items():
        q = right.coeff(m)
        sp_p, sp_q = p.single_power(), q.single_power()
        assert sp_p and sp_q and sp_p[1] == sp_q[1]
        ratio.add(sp_p[0] - sp_q[0])
    assert len(ratio) == 1


def _reference_closure(alg, m):
    """The dominant closure of m read off full products, e_t(mu).dominant_part()."""
    queue, seen = [m], {m}
    while queue:
        for nu in e_t(alg, queue.pop()).dominant_part():
            if nu not in seen:
                seen.add(nu)
                queue.append(nu)
    return seen


@pytest.mark.parametrize(
    "cartan,seed",
    [(B2_BENCH, "Y[2,0] Y[1,5] Y[2,4]"),
     (B2_BENCH, "Y[2,0] Y[1,5] Y[2,4] Y[1,1] Y[2,8]"),
     ("A3", "Y[1,1] Y[2,0] Y[2,2] Y[2,4] Y[3,3]"),
     ("A2", "Y[1,0] Y[1,2] Y[1,4] Y[2,1] Y[2,3] Y[2,5]"),
     ("G2", "Y[2,0] Y[2,1]")],
)
def test_dominant_closure_forms_no_full_product(monkeypatch, cartan, seed):
    """The closure from dominant_product equals the one read off full E_t's,
    and taking it forms no twisted product and no E_t."""
    alg = algebra(cartan)
    m = parse_basis_monomial(seed)
    want = _reference_closure(alg, m)

    def refuse(*args, **kwargs):
        raise AssertionError("a full product was formed")

    monkeypatch.setattr(YtAlgebra, "mul", refuse)
    monkeypatch.setattr(characters, "e_t", refuse)
    assert characters._dominant_closure(alg, m, Budget()) == want


def test_lt_and_kl_forms_each_e_t_once_before_its_t_algorithm(monkeypatch, b2):
    """One e_t_normalized per closure member, each just before that member's
    t_algorithm."""
    m = parse_basis_monomial("Y[2,0] Y[1,5] Y[2,4]")
    lt_and_kl(b2, m)  # warm the fundamentals, so t_algorithm runs only for members
    events = []
    real_e_t, real_t = characters.e_t_normalized, characters.t_algorithm

    def e_t_normalized(alg, mu, budget):
        events.append(("E_t", mu))
        return real_e_t(alg, mu, budget)

    def t_algorithm(alg, mu, budget):
        events.append(("t", mu))
        return real_t(alg, mu, budget)

    monkeypatch.setattr(characters, "e_t_normalized", e_t_normalized)
    monkeypatch.setattr(characters, "t_algorithm", t_algorithm)
    _, lt = lt_and_kl(b2, m)
    members = [mu for _, mu in events[0::2]]
    assert len(members) == len(set(members)) == len(lt) > 1
    assert set(members) == characters._dominant_closure(b2, m, Budget())
    assert events == [(kind, mu) for mu in members for kind in ("E_t", "t")]


def test_lt_and_kl_closure_check_is_live(monkeypatch, b2):
    """A closure that misses a lower member fails the full closure check."""
    closure = characters._dominant_closure
    dropped = Monomial.y(1, 1)

    def short_closure(alg, m, budget):
        members = closure(alg, m, budget)
        assert dropped in members
        return members - {dropped}

    monkeypatch.setattr(characters, "_dominant_closure", short_closure)
    with pytest.raises(InternalInconsistency, match="did not close over the canonical basis"):
        lt_and_kl(b2, Monomial({(2, 0): 1, (1, 5): 1}))


def test_lt_and_kl_closure_check_reads_non_dominant_terms(monkeypatch, b2):
    """t^2 times one non-dominant term of the first member's E_t changes no
    dominant coefficient, so no row; only the full zero test of the
    residual sees it."""
    real_e_t = characters.e_t_normalized
    tilted = []

    def e_t_normalized(alg, mu, budget):
        e = real_e_t(alg, mu, budget)
        if not tilted:
            tilted.append(mu)
            m2 = next(m2 for m2 in e.monomials() if not m2.is_dominant())
            e.terms[m2] = e.terms[m2] * TPoly.t_power(2)
        return e

    monkeypatch.setattr(characters, "e_t_normalized", e_t_normalized)
    with pytest.raises(InternalInconsistency, match="did not close over the canonical basis") as err:
        lt_and_kl(b2, parse_basis_monomial("Y[2,0] Y[1,5] Y[2,4]"))
    assert str(err.value).startswith(f"E_t({tilted[0]}) ")


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
    kl, _ = lt_and_kl(b2, Monomial({(2, 0): 1, (1, 5): 1}))
    assert [(nu, p.at_one()) for nu, _, p in kl] == [(Monomial.y(1, 1), 1)]


def test_character_tree_shapes(sl2, a2):
    vertices, edges = character_tree(sl2, Monomial.y(1, 0))
    assert len(vertices) == 2
    assert edges == [
        (Monomial.y(1, 0), Monomial({(1, 2): -1}), (1, 1))
    ]
    vertices, edges = character_tree(a2, Monomial.y(1, 0))
    assert len(vertices) == 3 and len(edges) == 2
    assert [key for _, _, key in edges] == [(1, 1), (2, 2)]
