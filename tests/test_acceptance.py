"""Acceptance gate: one test per numbered criterion.

Every check is exact (integer Laurent coefficients, no tolerances); the two
strict-xfail tests record identities that fail on mathematically forced
counterexamples, each with a passing test of the corrected identity next
to it.
"""

import random
import time

import pytest

from qtchar import YtAlgebra, algebra, suites
from qtchar.algebra import Monomial
from qtchar.cartan import cartan_from_json
from qtchar.characters import RepElement, fundamental, lt_and_kl, star_product
from qtchar.classical import classical_algorithm
from qtchar.screening import f_it
from qtchar.sl2 import classic_L, sl2_algebra
from qtchar.suites import FIXTURE_KEYS, KERNEL_TYPES, fixture_element
from qtchar.tpoly import TPoly


def _assert_suite(checks, count):
    assert len(checks) == count
    for check in checks:
        assert check["ok"], check["name"]


def test_criterion_1_rank2_fixture_reproduction():
    start = time.monotonic()
    checks = suites.appendix()
    assert time.monotonic() - start < 5.0
    _assert_suite(checks, 16)
    sizes = {"a1a1": [2, 2], "a2": [3, 3], "b2": [4, 5], "g2": [7, 15]}
    for key, cartan in FIXTURE_KEYS:
        alg = YtAlgebra(cartan_from_json(cartan))
        for i in alg.cartan.nodes():
            for variant in ("k1", "k2"):
                assert len(fixture_element(alg, f"{key}_f{i}_{variant}")) == sizes[key][i - 1]


def test_criterion_2_classical_oracle():
    for key, cartan in FIXTURE_KEYS:
        alg = YtAlgebra(cartan_from_json(cartan))
        for i in alg.cartan.nodes():
            assert fundamental(alg, i).at_one() == classical_algorithm(
                alg, Monomial.y(i, 0)
            )
    s2 = sl2_algebra()
    for start in range(0, 5):
        for count in range(1, 6):
            m = Monomial({(1, l): 1 for l in range(2 * start, 2 * start + 2 * count, 2)})
            assert f_it(s2, 1, m).at_one() == classic_L(m)


def test_criterion_3_kernel_suite():
    start = time.monotonic()
    checks = suites.kernels()
    assert time.monotonic() - start < 60.0
    _assert_suite(checks, 45)


def test_criterion_4_positivity():
    _assert_suite(suites.positivity(), 49)


def test_criterion_5_kl_examples():
    s2 = sl2_algebra()
    rows, _ = lt_and_kl(s2, Monomial({(1, 0): 2, (1, 2): 1}))
    assert rows == [(Monomial.y(1, 0), 0, TPoly.t_power(-2))]
    rows, _ = lt_and_kl(s2, Monomial({(1, 0): 1, (1, 2): 1}))
    assert rows == [(Monomial.unit(), 0, TPoly.t_power(-1))]
    b2 = algebra("B2")
    rows, _ = lt_and_kl(b2, Monomial({(2, 0): 1, (1, 5): 1}))
    assert rows == [(Monomial.y(1, 1), 0, TPoly.t_power(-1))]
    # multiplicity-free seeds: every row has P = t^-depth
    rng = random.Random(12345)
    for _ in range(10):
        levels = rng.sample(range(0, 14, 2), rng.randrange(2, 5))
        m = Monomial({(1, l): 1 for l in levels})
        rows, _ = lt_and_kl(s2, m)
        for nu, _shift, p in rows:
            assert p == TPoly.t_power(-s2.a_depth(nu, m)), (m, nu, p)


def _star_chain(alg, levels):
    acc = RepElement.from_monomial(Monomial.unit())
    for l in levels:
        acc = star_product(alg, acc, RepElement.from_monomial(Monomial.y(1, l)))
    return acc


def test_criterion_6_deformed_product_rank1():
    s2 = sl2_algebra()
    # (a) ascending chains multiply without deformation
    for levels in [(0, 4), (0, 1, 5), (2, 3, 4), (0, 4, 8)]:
        d = {}
        for l in levels:
            d[(1, l)] = d.get((1, l), 0) + 1
        assert _star_chain(s2, levels) == RepElement.from_monomial(Monomial(d))
    # (b) swapping non-adjacent levels costs exactly t^gamma
    for l in range(0, 9):
        for lp in range(0, l):
            if l == lp + 2:
                continue
            got = star_product(
                s2,
                RepElement.from_monomial(Monomial.y(1, l)),
                RepElement.from_monomial(Monomial.y(1, lp)),
            )
            want = RepElement.from_monomial(
                Monomial({(1, lp): 1, (1, l): 1}),
                TPoly.t_power(s2.gamma(1, l, 1, lp)),
            )
            assert got == want, (l, lp)
    # (c) adjacent levels pick up the scalar t - t^-1
    for lp in range(0, 7):
        l = lp + 2
        got = star_product(
            s2,
            RepElement.from_monomial(Monomial.y(1, l)),
            RepElement.from_monomial(Monomial.y(1, lp)),
        )
        want = RepElement(
            {
                Monomial({(1, lp): 1, (1, l): 1}): TPoly.t_power(-2),
                Monomial.unit(): TPoly({1: 1, -1: -1}),
            }
        )
        assert got == want, (l, lp)
    # associativity on random triples
    rng = random.Random(606)
    for _ in range(50):
        xs = [
            RepElement.from_monomial(Monomial.y(1, rng.randrange(0, 9)))
            for _ in range(3)
        ]
        left = star_product(s2, star_product(s2, xs[0], xs[1]), xs[2])
        right = star_product(s2, xs[0], star_product(s2, xs[1], xs[2]))
        assert left == right


@pytest.mark.xfail(
    strict=True,
    reason="with the validated commutation exponents, the adjacent-level "
    "scalar is t - t^-1, not 1 - t^-2: the normal-ordered string "
    "Y[1,0] A[1,1]^-1 Y[1,2] equals its plain exponent map with twist "
    "t^0, so the constant term of X[1,2]*X[1,0] is (t)(1) - (t^-1)(1)",
)
def test_criterion_6_adjacent_scalar_alternative_form():
    s2 = sl2_algebra()
    got = star_product(
        s2,
        RepElement.from_monomial(Monomial.y(1, 2)),
        RepElement.from_monomial(Monomial.y(1, 0)),
    )
    want = RepElement(
        {
            Monomial({(1, 0): 1, (1, 2): 1}): TPoly.t_power(-2),
            Monomial.unit(): TPoly({0: 1, -2: -1}),
        }
    )
    assert got == want


def test_criterion_6_products_suite():
    """star_product against the full twisted product and the full chi_qt_inverse."""
    _assert_suite(suites.products(), 24)


def test_criterion_7_involution_suite():
    _assert_suite(suites.involution(), 3)


def test_criterion_8_bicharacter_suite():
    _assert_suite(suites.bicharacters(), 11)


def _random_yv(rng, nodes):
    y = {}
    for _ in range(rng.randrange(1, 3)):
        y[(rng.choice(nodes), rng.randrange(0, 4))] = rng.randrange(1, 3)
    v = {}
    for _ in range(rng.randrange(0, 3)):
        key = (rng.choice(nodes), rng.randrange(0, 4))
        v[key] = v.get(key, 0) + 1
    return y, v


@pytest.mark.xfail(
    strict=True,
    reason="the y-part reduction N_t(m1, m2) = N_t(y1, y2) + 2 d(m1, m2) "
    "contradicts the defining Heisenberg pairing: already on A2 the mixed "
    "term N_t(Y[1,l], A[2,l]^-1) equals -1, not 0, so cross-node y-v and "
    "v-v contributions survive and the discrepancy is nonzero on generic "
    "presentations",
)
def test_criterion_8_y_part_reduction_on_a2():
    a2 = algebra("A2")
    rng = random.Random(7)
    for _ in range(30):
        y1, v1 = _random_yv(rng, [1, 2])
        y2, v2 = _random_yv(rng, [1, 2])
        m1 = Monomial(y1).times(a2.a_monomial_expand(v1))
        m2 = Monomial(y2).times(a2.a_monomial_expand(v2))
        want = a2.nt_bichar(Monomial(y1), Monomial(y2)) + 2 * a2.d_bicharacter(
            y1, v1, y2, v2
        )
        assert a2.nt_bichar(m1, m2) == want


def test_criterion_9_fundamental_structure():
    for name in KERNEL_TYPES:
        alg = algebra(name)
        funds = []
        for i in alg.cartan.nodes():
            f = fundamental(alg, i)
            funds.append(f)
            top = Monomial.y(i, 0)
            for m in f.monomials():
                if m == top:
                    continue
                assert m.is_right_negative(), (name, i, m)
                assert all(l >= 0 for (_, l), _e in m.items()), (name, i, m)
                assert all(l != 0 for (_, l), _e in m.items()), (name, i, m)
        for a in range(len(funds)):
            for b in range(a + 1, len(funds)):
                assert alg.mul(funds[a], funds[b]) == alg.mul(funds[b], funds[a])
