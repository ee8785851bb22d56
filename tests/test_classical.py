import math
import random

import pytest

from qtchar import algebra, classical
from qtchar.algebra import Monomial, YtAlgebra
from qtchar.characters import fundamental, t_algorithm
from qtchar.classical import (
    cc_add,
    cc_mul,
    classical_algorithm,
    sl2_classical_e,
    sl2_classical_f,
)
from qtchar.errors import BudgetExceeded, InternalInconsistency, NotDominant
from qtchar.sl2 import classic_L, is_irregular


def mono(*levels):
    d = {}
    for l in levels:
        d[(1, l)] = d.get((1, l), 0) + 1
    return Monomial(d)


def test_cc_ring_ops():
    a = {Monomial.y(1, 0): 1}
    b = {Monomial.y(1, 2, -1): 2}
    assert cc_mul(a, b) == {Monomial({(1, 0): 1, (1, 2): -1}): 2}
    assert cc_add(a, a, -1) == {}


def test_sl2_classical_e_weight_count():
    # one fundamental per factor: 2^k commutative terms before cancellation
    assert sum(sl2_classical_e(mono(0)).values()) == 2
    assert sum(sl2_classical_e(mono(0, 4)).values()) == 4


def test_sl2_classical_f_matches_segment_formula():
    rng = random.Random(2)
    done = 0
    while done < 10:
        m = mono(*(rng.choice(range(0, 10, 2)) for _ in range(rng.randrange(1, 4))))
        if is_irregular(m):
            continue
        done += 1
        assert sl2_classical_f(m) == classic_L(m)


def test_classical_rejects_bad_seed(b2):
    with pytest.raises(NotDominant):
        classical_algorithm(b2, Monomial({(1, 0): -1}))


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2"])
def test_classical_is_the_t1_shadow_of_the_t_algorithm(name):
    alg = algebra(name)
    for i in alg.cartan.nodes():
        cc = classical_algorithm(alg, Monomial.y(i, 0))
        assert cc == fundamental(alg, i).at_one()


@pytest.mark.parametrize("name,node", [("G2", 2), ("E6", 1)])
def test_classical_heap_needs_no_a_depth(monkeypatch, name, node):
    """The heap is keyed by 2<wt(m_plus) - wt(m), rho^v>, read from the heights."""
    alg = algebra(name)
    want = t_algorithm(alg, Monomial.y(node, 0)).at_one()

    def refuse(*_args):
        raise AssertionError("classical_algorithm called YtAlgebra.a_depth")

    monkeypatch.setattr(YtAlgebra, "a_depth", refuse)
    assert classical_algorithm(alg, Monomial.y(node, 0)) == want


def test_classical_lift_above_the_popped_monomial_is_refused(monkeypatch, a2):
    def upward(_alg, _i, m):
        return {m: 1, m.times(Monomial.y(2, 1)): 1}

    monkeypatch.setattr(classical, "classical_f_i", upward)
    with pytest.raises(InternalInconsistency, match="is not below"):
        classical_algorithm(a2, Monomial.y(1, 0))


def test_classical_past_depth_60(sl2):
    """Y[1,0]^61 reaches A-depth 61; its character is (Y[1,0] + Y[1,2]^-1)^61."""
    m = Monomial.y(1, 0, 61)
    want = {Monomial({(1, 0): 61 - k, (1, 2): -k}): math.comb(61, k) for k in range(62)}
    cc = classical_algorithm(sl2, m)
    assert cc == want
    assert cc == t_algorithm(sl2, m).at_one()


def test_classical_tensor_seed(a2):
    m = Monomial({(1, 0): 1, (2, 1): 1})
    cc = classical_algorithm(a2, m)
    ft = t_algorithm(a2, m)
    assert cc == ft.at_one()
    assert cc[m] == 1
    assert all(isinstance(c, int) for c in cc.values())


def test_classical_frontier_over_budget(a2):
    """Y[1,0] has three monomials, so a budget of two is outgrown."""
    with pytest.raises(BudgetExceeded, match="^classical frontier outgrew budget$"):
        classical_algorithm(a2, Monomial.y(1, 0), max_monomials=2)
    assert len(classical_algorithm(a2, Monomial.y(1, 0), max_monomials=3)) == 3
