"""The invariant suites: the one definition behind `qtchar verify` and the
acceptance gate.

Each suite takes a Budget and returns check records {"name", "ok"}; the CLI
prints them and tests/test_acceptance.py asserts every one.  The random
suites draw from fixed seeds, so both callers check the same samples.
"""

from __future__ import annotations

import os
import random

from .algebra import Monomial, YtAlgebra, YtElement
from .cartan import cartan_from_json
from .characters import (
    DEFAULT_BUDGET,
    Budget,
    RepElement,
    chi_qt,
    chi_qt_inverse,
    fundamental,
    star_product,
    t_algorithm,
)
from .grammar import parse_element_lines, parse_rep_monomial
from .screening import in_kernel_all
from .sl2 import sl2_algebra
from .tpoly import TPoly

FIXTURE_KEYS = [
    ("a1a1", {"matrix": [[2, 0], [0, 2]]}),
    ("a2", "A2"),
    ("b2", "B2"),
    ("g2", "G2"),
]

KERNEL_TYPES = ["A1", "A2", "A3", "A4", "B2", "C2", "B3", "C3", "G2"]

# the kernel suite's larger algebras, (label, Cartan input, nodes or None for
# all); the F4 matrix is the benchmark's, which no relabelling of F4 changes
F4_MATRIX = {"matrix": [[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]]}
KERNEL_LARGE = [("D4", "D4", None), ("D5", "D5", None), ("E6", "E6", None),
                ("F4 matrix", F4_MATRIX, None), ("E7", "E7", [1, 2, 7]), ("E8", "E8", [8])]

# (type, left, right): the star products of the product benchmark
PRODUCT_INPUTS = [
    ("D5", "X[3,2]", "X[3,0]"),
    ("A4", "X[2,4] X[3,2]", "X[2,0] X[3,1]"),
    ("E6", "X[1,2]", "X[1,0]"),
]

POSITIVITY_TYPES = (
    [f"A{n}" for n in range(1, 7)]
    + [f"B{n}" for n in range(2, 5)]
    + [f"C{n}" for n in range(2, 5)]
    + ["D4", "G2", "F4"]
)


def _algebra(cartan) -> YtAlgebra:
    return YtAlgebra(cartan_from_json(cartan))


def fixture_element(alg: YtAlgebra, name: str) -> YtElement:
    """The shipped fixture fixtures/<name>.txt, evaluated in alg."""
    path = os.path.join(os.path.dirname(__file__), "fixtures", name + ".txt")
    with open(path, encoding="utf-8") as fh:
        return parse_element_lines(alg, fh.read())


def random_element(alg: YtAlgebra, rng: random.Random) -> YtElement:
    """One to three terms, each a t-power times a small random monomial."""
    total = YtElement.zero()
    for _ in range(rng.randrange(1, 4)):
        d = {}
        for _ in range(rng.randrange(1, 4)):
            key = (rng.choice(list(alg.cartan.nodes())), rng.randrange(-4, 5))
            d[key] = d.get(key, 0) + rng.choice([-2, -1, 1, 2])
        coeff = TPoly({rng.randrange(-3, 4): rng.choice([-2, -1, 1, 2])})
        total.add_scaled(YtElement.from_monomial(Monomial(d), coeff))
    return total


def random_rep_element(alg: YtAlgebra, rng: random.Random, degree: int) -> RepElement:
    """One or two terms, each a t-power times a product of degree X_{i,l}."""
    terms = {}
    for _ in range(rng.randrange(1, 3)):
        d = {}
        for _ in range(degree):
            key = (rng.choice(list(alg.cartan.nodes())), rng.randrange(0, 4))
            d[key] = d.get(key, 0) + 1
        terms[Monomial(d)] = TPoly.t_power(rng.randrange(-2, 3), rng.choice([-2, -1, 1, 2]))
    return RepElement(terms)


def appendix(budget: Budget = DEFAULT_BUDGET):
    """Every rank-2 fundamental equals both of its fixtures."""
    checks = []
    for key, cartan in FIXTURE_KEYS:
        alg = _algebra(cartan)
        for i in alg.cartan.nodes():
            computed = t_algorithm(alg, Monomial.y(i, 0), budget)
            for variant in ("k1", "k2"):
                want = fixture_element(alg, f"{key}_f{i}_{variant}")
                checks.append(
                    {"name": f"{key} fundamental {i} vs {variant}", "ok": computed == want}
                )
    return checks


def kernels(budget: Budget = DEFAULT_BUDGET):
    """Every fundamental lies in the kernel of every deformed screening."""
    checks = []
    for name, cartan, nodes in [(n, n, None) for n in KERNEL_TYPES] + KERNEL_LARGE:
        alg = _algebra(cartan)
        for i in nodes or alg.cartan.nodes():
            f = fundamental(alg, i, 0, budget)
            checks.append({"name": f"{name} node {i} kernel", "ok": in_kernel_all(alg, f)})
    return checks


def positivity(budget: Budget = DEFAULT_BUDGET):
    """Every fundamental has coefficients in N[t^±]."""
    checks = []
    for name in POSITIVITY_TYPES:
        alg = _algebra(name)
        for i in alg.cartan.nodes():
            f = fundamental(alg, i, 0, budget)
            checks.append({"name": f"{name} node {i} positive",
                           "ok": all(p.nonnegative() for _, p in f.items())})
    return checks


def involution(budget: Budget = DEFAULT_BUDGET):
    """bar is an antimultiplicative involution with the closed forms on generators."""
    alg = _algebra("B2")
    rng = random.Random(20240917)
    ok_double = ok_anti = True
    for _ in range(100):
        x = random_element(alg, rng)
        y = random_element(alg, rng)
        ok_double &= alg.bar(alg.bar(x)) == x
        ok_anti &= alg.bar(alg.mul(x, y)) == alg.mul(alg.bar(y), alg.bar(x))
    ok_forms = True
    for i in alg.cartan.nodes():
        ri = alg.cartan.ri(i)
        exp = alg.tilde(i, i, ri) - alg.tilde(i, i, -ri)
        for l in range(-3, 4):
            y = YtElement.from_monomial(Monomial.y(i, l))
            ok_forms &= alg.bar(y) == y.scale(TPoly.t_power(exp))
            a = YtElement.from_monomial(alg.a_monomial_expand({(i, l): 1}))
            ok_forms &= alg.bar(a) == a
    return [
        {"name": "bar is an involution", "ok": ok_double},
        {"name": "bar is antimultiplicative", "ok": ok_anti},
        {"name": "bar closed forms on generators", "ok": ok_forms},
    ]


def bicharacters(budget: Budget = DEFAULT_BUDGET):
    """gamma = N - N^T is antisymmetric, N is biadditive, and the rank-1 and
    A2 epsilon - epsilon' tables hold."""
    rng = random.Random(20240918)
    checks = []
    for name in ["A2", "B2", "G2"]:
        alg = _algebra(name)
        nodes = list(alg.cartan.nodes())
        ok_anti = ok_split = True
        for _ in range(30):
            i, j = rng.choice(nodes), rng.choice(nodes)
            l, k = rng.randrange(-8, 9), rng.randrange(-8, 9)
            g = alg.gamma(i, l, j, k)
            ok_anti &= g == -alg.gamma(j, k, i, l)
            ok_split &= g == alg.n_pair(i, l, j, k) - alg.n_pair(j, k, i, l)
        checks.append({"name": f"{name} gamma antisymmetric", "ok": ok_anti})
        checks.append({"name": f"{name} gamma = N - N^T", "ok": ok_split})
        ok_biadd = True
        for _ in range(30):
            a, b, c = (
                Monomial({(rng.choice(nodes), rng.randrange(-4, 5)): rng.choice([-2, -1, 1, 2])})
                for _ in range(3)
            )
            n = alg.bichar_n
            ok_biadd &= n(a.times(b), c) == n(a, c) + n(b, c)
            ok_biadd &= n(a, b.times(c)) == n(a, b) + n(a, c)
        checks.append({"name": f"{name} N biadditive", "ok": ok_biadd})
    # rank-1 case table for N(Y_l, Y_k), |l - k| <= 8
    s2 = sl2_algebra()
    ok_table = True
    for d in range(-8, 9):
        if d == 0:
            want = -1
        elif d % 2 or d > 0:
            want = 0
        else:
            want = 2 * (-1) ** (d // 2 + 1)
        ok_table &= s2.n_pair(1, d, 1, 0) == want
    checks.append({"name": "rank-1 N case table", "ok": ok_table})
    # geometric pairing comparison on A2
    a2 = _algebra("A2")
    ok_eps = True
    for _ in range(30):
        i, j = rng.choice([1, 2]), rng.choice([1, 2])
        l, k = rng.randrange(-6, 7), rng.randrange(-6, 7)
        lhs = a2.vv_epsilon(i, l, j, k) - a2.vv_epsilon_prime(i, l, j, k)
        ok_eps &= lhs == a2.n_pair(i, l, j, k)
    checks.append({"name": "A2 epsilon - epsilon' = N", "ok": ok_eps})
    return checks


def products(budget: Budget = DEFAULT_BUDGET):
    """star_product against the full path: chi_qt of the result equals the
    full twisted product chi_qt(x) chi_qt(y), and chi_qt_inverse of that
    product, with its full check, returns the same element."""
    cases = []
    for name, left, right in PRODUCT_INPUTS:
        x, y = (RepElement.from_monomial(parse_rep_monomial(t)) for t in (left, right))
        cases.append((_algebra(name), f"{name} {left} * {right}", x, y))
    rng = random.Random(20240919)
    for name in KERNEL_TYPES:
        alg = _algebra(name)
        x, y = random_rep_element(alg, rng, 2), random_rep_element(alg, rng, 1)
        cases.append((alg, f"{name} random {x!r} * {y!r}", x, y))
    checks = []
    for alg, label, x, y in cases:
        full = alg.mul(chi_qt(alg, x, budget), chi_qt(alg, y, budget))
        got = star_product(alg, x, y, budget)
        # chi_qt_inverse raises InversionFails unless chi_qt of its result is
        # full, so an equal result already has a zero full residual
        same = chi_qt_inverse(alg, full, budget) == got
        checks.append({"name": f"{label}: zero full residual",
                       "ok": same or chi_qt(alg, got, budget) == full})
        checks.append({"name": f"{label}: equals chi_qt_inverse of the full product",
                       "ok": same})
    return checks


SUITES = {
    "appendix": appendix,
    "kernels": kernels,
    "positivity": positivity,
    "involution": involution,
    "bicharacters": bicharacters,
    "products": products,
}
