"""The t-algorithm, fundamental q,t-characters, deformed products,
and the bar-invariant canonical basis with its KL-analogue polynomials."""

from __future__ import annotations

import heapq
import weakref
from dataclasses import dataclass

from .algebra import Monomial, Terms, YtAlgebra, YtElement
from .errors import (
    AlgorithmFails,
    BudgetExceeded,
    InternalInconsistency,
    InversionFails,
    NonIntegralShift,
    NotDominant,
)
from .screening import f_it, lift_it
from .sl2 import _normalize_leading
from .tpoly import ONE, TPoly, ZERO


@dataclass(frozen=True)
class Budget:
    """Resource limits for the frontier computation.

    max_a_depth is an optional cap on the A-depth; None leaves only the exact
    bound 2<wt(m_plus), rho^v>, which no correct run can pass.
    """

    max_monomials: int = 200000
    max_a_depth: int | None = None

    def __post_init__(self):
        if self.max_monomials < 1 or (self.max_a_depth is not None and self.max_a_depth < 1):
            raise ValueError("budgets must be >= 1")


DEFAULT_BUDGET = Budget()


def _depth_bound_in_budget(alg: YtAlgebra, m: Monomial, budget: Budget) -> int:
    """The exact A-depth bound of m, after checking that it fits the budget.

    The weights of the simple module with highest monomial m include a
    saturated chain from wt(m) down to w0 wt(m) of depth_bound(m) + 1 distinct
    weights, so its character, and any product of fundamentals containing it,
    has at least that many monomials.
    """
    bound = alg.depth_bound(m)
    if bound + 1 > budget.max_monomials:
        raise BudgetExceeded(
            f"{m} has at least {bound + 1} monomials, more than {budget.max_monomials}"
        )
    return bound


def t_algorithm(alg: YtAlgebra, m_plus: Monomial, budget: Budget = DEFAULT_BUDGET) -> YtElement:
    """Frontier computation of the deformed character with highest monomial m_plus.

    Monomials are processed in (A-depth, lexicographic) order, which extends
    the partial order.  Each processed monomial m adds s(m) times the terms
    of f_it(m) other than m, at every node i where m has a Y_i factor and is
    i-dominant.  Those terms are never i-dominant, so nothing reaches m at
    such a node, and every monomial but m_plus has a negative exponent.
    lift_it reads only the node-i part of m.data (its keys name i), so a
    memo that lives only for this call holds its result once per part; a
    term is m times its Y-delta, at A-depth depth(m) + sum W.  Coefficients
    are summed per monomial and node as integer maps {t-exponent: integer}
    and made into TPolys once, when the monomial is processed.  A
    non-dominant monomial must receive the same value from every node where
    it has a negative exponent; disagreement aborts loudly, and so does an
    A-depth past the bound of depth_bound.
    """
    if not m_plus.is_dominant():
        raise NotDominant(f"seed {m_plus} is not dominant")
    bound = _depth_bound_in_budget(alg, m_plus, budget)
    acc = {}  # monomial -> {node i: {t-exponent: integer coefficient}}
    lifts = {}  # node-i part of m.data -> lift_it(alg, i, m)
    s = {}
    heap = [(0, m_plus.sortkey(), m_plus)]
    seen = {m_plus}
    cap = budget.max_a_depth
    while heap:
        depth_m, _, m = heapq.heappop(heap)
        neg, parts = set(), {}  # nodes with a negative exponent in m; node -> its part of m.data
        for kv in m.data:
            i = kv[0][0]
            if kv[1] < 0:
                neg.add(i)
            parts.setdefault(i, []).append(kv)
        si = {i: TPoly.adopt(d) for i, d in acc.pop(m, {}).items()}
        if m == m_plus:
            sm = ONE
        elif not neg:
            raise InternalInconsistency(f"{m} below the seed {m_plus} is dominant")
        else:
            vals = [si.get(i, ZERO) for i in sorted(neg)]
            for v in vals[1:]:
                if v != vals[0]:
                    raise AlgorithmFails(
                        f"node values disagree at {m}: {vals[0]} vs {v}"
                    )
            sm = vals[0]
        s[m] = sm
        sm_items = sm.coeffs.items()
        if not sm_items:
            continue
        for i, part in parts.items():
            if i in neg:
                continue
            key = tuple(part)
            lift = lifts.get(key)
            if lift is None:
                lift = lifts[key] = lift_it(alg, i, m)
            for delta, depth_w, coeff in lift:
                mr = m.times(delta)
                d = acc.setdefault(mr, {}).setdefault(i, {})
                for e1, c1 in sm_items:
                    for e2, c2 in coeff:
                        d[e1 + e2] = d.get(e1 + e2, 0) + c1 * c2
                if mr not in seen:
                    seen.add(mr)
                    if len(seen) > budget.max_monomials:
                        raise BudgetExceeded(
                            f"more than {budget.max_monomials} monomials discovered"
                        )
                    depth = depth_m + depth_w
                    if depth > bound:
                        raise InternalInconsistency(
                            f"A-depth {depth} of {mr} exceeds the bound {bound}"
                        )
                    if cap is not None and depth > cap:
                        raise BudgetExceeded(f"A-depth {depth} exceeds budget {cap}")
                    heapq.heappush(heap, (depth, mr.sortkey(), mr))
    return YtElement(s)


# algebra -> {node i: fundamental character with highest monomial Y_{i,0}};
# an entry lives as long as its algebra
_FUNDAMENTALS = weakref.WeakKeyDictionary()


def fundamental(alg: YtAlgebra, i: int, l: int = 0, budget: Budget = DEFAULT_BUDGET) -> YtElement:
    """Deformed character of the fundamental with highest monomial Y_{i,l}."""
    cache = _FUNDAMENTALS.setdefault(alg, {})
    base = cache.get(i)
    if base is None:
        base = t_algorithm(alg, Monomial.y(i, 0), budget)
        cache[i] = base
    return base if l == 0 else base.shift(l)


def _fundamental_order(m: Monomial) -> list:
    """The shifted fundamentals (i, l) whose ordered product is E_t(m): levels
    increasing, then nodes, each Y_{i,l} repeated u_{i,l} times."""
    return [key for key, u in sorted(m.items(), key=lambda kv: (kv[0][1], kv[0][0]))
            for _ in range(u)]


def e_t(alg: YtAlgebra, m: Monomial, budget: Budget = DEFAULT_BUDGET) -> YtElement:
    """Ordered product of shifted fundamentals (levels increasing).

    The leading coefficient on m is the t-power accumulated by ordering the
    highest terms, not 1; peeling and the canonical basis divide it out where
    they need a unit leading term.
    """
    if not m.is_dominant():
        raise NotDominant(f"{m} is not dominant")
    _depth_bound_in_budget(alg, m, budget)
    acc = YtElement.unit()
    for i, l in _fundamental_order(m):
        acc = alg.mul(acc, fundamental(alg, i, l, budget))
        if len(acc) > budget.max_monomials:
            raise BudgetExceeded(
                f"E_t({m}) reached {len(acc)} monomials, more than {budget.max_monomials}"
            )
    return acc


def e_t_normalized(alg: YtAlgebra, m: Monomial, budget: Budget = DEFAULT_BUDGET) -> YtElement:
    """e_t rescaled so the coefficient of m is exactly 1."""
    return _normalize_leading(e_t(alg, m, budget), m)


def dominant_product(alg: YtAlgebra, keys, budget: Budget = DEFAULT_BUDGET) -> YtElement:
    """Dominant part of the ordered product of the shifted fundamentals Y_{i,l}, (i, l) in keys.

    The factors are multiplied left to right, a partial term m1 times a
    factor term m2 with the twist t^N(m1, m2).  The supply at (i, l) is the
    sum, over the factors still to come, of each one's largest positive
    exponent there; a partial term whose exponent at some (i, l) is below
    minus the supply can reach no dominant monomial and is dropped.  Each
    factor is indexed by its positive keys, so a partial term short at some
    key is paired only with the factor terms that supply enough there.
    Every kept partial product is held to budget.max_monomials.
    """
    factors = [fundamental(alg, i, l, budget) for i, l in keys]
    supplies = [{}]  # supplies[k]: the most that the factors after factor k add per key
    for f in reversed(factors[1:]):
        supply = dict(supplies[-1])
        top = {}
        for m in f.monomials():
            for key, e in m.items():
                if e > top.get(key, 0):
                    top[key] = e
        for key, e in top.items():
            supply[key] = supply.get(key, 0) + e
        supplies.append(supply)
    supplies.reverse()
    acc = {Monomial.unit(): ONE}
    for f, supply in zip(factors, supplies):
        terms = list(f.items())
        by_key = {}  # key -> [(exponent, m2, p2)] over the terms positive there
        for m2, p2 in terms:
            for key, e in m2.items():
                if e > 0:
                    by_key.setdefault(key, []).append((e, m2, p2))
        out = {}
        for m1, p1 in acc.items():
            candidates = terms
            for key, e in m1.items():
                short = -e - supply.get(key, 0)
                if short > 0:
                    candidates = [(m2, p2) for e2, m2, p2 in by_key.get(key, ()) if e2 >= short]
                    break
            for m2, p2 in candidates:
                m = m1.times(m2)
                if any(e < 0 and e + supply.get(key, 0) < 0 for key, e in m.items()):
                    continue
                q = p1 * p2 * TPoly.t_power(alg.bichar_n(m1, m2))
                if m in out:
                    q = out[m] + q
                out[m] = q
        acc = {m: p for m, p in out.items() if p}
        if len(acc) > budget.max_monomials:
            raise BudgetExceeded(
                f"partial product reached {len(acc)} monomials, more than {budget.max_monomials}"
            )
    return YtElement(acc)


# ---------------------------------------------------------------------------
# representation-ring elements and the deformed product
# ---------------------------------------------------------------------------


class RepElement(Terms):
    """Z[t^±]-combination of commutative monomials in the classes X_{i,l}."""

    __slots__ = ()

    def __init__(self, terms=None):
        if terms:
            for m in terms:
                if any(e < 0 for _, e in m.items()):
                    raise ValueError(f"Rep-monomial {m} has a negative exponent")
        super().__init__(terms)

    def mul_commutative(self, other) -> "RepElement":
        """Ordinary commutative product (the t=1 shadow of *)."""
        d = {}
        for m1, p1 in self.terms.items():
            for m2, p2 in other.terms.items():
                key = m1.times(m2)
                d[key] = d.get(key, ZERO) + p1 * p2
        return RepElement(d)

    def __repr__(self):
        # imported here so that `import qtchar` does not bind `qtchar.grammar`
        from .grammar import format_rep_monomial

        if not self.terms:
            return "RepElement(0)"
        parts = [f"({p}) {format_rep_monomial(m)}" for m, p in self.sorted_terms()]
        return "RepElement[" + " + ".join(parts) + "]"


def chi_qt(alg: YtAlgebra, x: RepElement, budget: Budget = DEFAULT_BUDGET) -> YtElement:
    """Linear extension of X-monomial -> E_t(matching Y-monomial)."""
    out = YtElement.zero()
    for m, p in x.items():
        out.add_scaled(e_t(alg, m, budget), p)
    return out


def q_char(alg: YtAlgebra, x: RepElement, budget: Budget = DEFAULT_BUDGET) -> dict:
    """Classical character: chi_qt specialized at t = 1."""
    return chi_qt(alg, x, budget).at_one()


def _peel(alg: YtAlgebra, rest: YtElement, budget: Budget) -> RepElement:
    """The RepElement whose chi_qt has the dominant part rest, rest being dominant.

    Each step takes a maximal dominant monomial mu of rest and subtracts
    lam E_t(mu), in place, until rest is zero.  Only the dominant part of
    each E_t(mu) is formed, by dominant_product, so rest stays dominant.
    """
    out = {}
    while not rest.is_zero():
        doms = list(rest.monomials())
        maximal = [
            m for m in doms
            if not any(other != m and alg.leq(m, other) for other in doms)
        ]
        mu = max(maximal, key=lambda m: (m.degree(), m.sortkey()))
        _depth_bound_in_budget(alg, mu, budget)
        e = dominant_product(alg, _fundamental_order(mu), budget)
        sp = e.coeff(mu).single_power()
        if sp is None or sp[1] != 1:
            raise InversionFails(f"leading coefficient of E_t({mu}) is not a t-power")
        lam = rest.coeff(mu) * TPoly.t_power(-sp[0])
        out[mu] = out.get(mu, ZERO) + lam
        rest.add_scaled(e, -lam)
    return RepElement(out)


def chi_qt_inverse(alg: YtAlgebra, z: YtElement, budget: Budget = DEFAULT_BUDGET) -> RepElement:
    """Invert chi_qt: peel the dominant part of z, then check the whole of z.

    The peel reads only dominant coefficients, which determine an element of
    Im chi_qt.  For a z outside the image the peel still returns something,
    so chi_qt of the result is compared with z in full; z is left unchanged.
    """
    x = _peel(alg, YtElement(z.dominant_part()), budget)
    if chi_qt(alg, x, budget) != z:
        raise InversionFails("z is not in the image of chi_qt: chi_qt of the peel differs from z")
    return x


def star_product(alg: YtAlgebra, x: RepElement, y: RepElement,
                 budget: Budget = DEFAULT_BUDGET) -> RepElement:
    """Deformed Grothendieck product chi_qt^-1(chi_qt(x) chi_qt(y)), from dominant monomials only.

    chi_qt(x) chi_qt(y) is the sum, over the terms p_x m_x of x and p_y m_y
    of y, of p_x p_y times the ordered product of the fundamentals of
    E_t(m_x) followed by those of E_t(m_y).  It lies in Im chi_qt, the
    intersection of the kernels of the deformed screening operators, and a
    nonzero element there has a dominant monomial (Frenkel-Mukhin,
    "Combinatorics of q-characters", math/9911112, carried to q,t by the
    paper).  So the peel of chi_qt_inverse reads only dominant coefficients
    and ends exactly when the dominant part is zero, and its answer depends
    only on the dominant part of the product.  That part, and the dominant
    part of each E_t(mu) peeled, comes from dominant_product; no
    non-dominant term of either is formed.  The product is in the image by
    construction, so the full check of chi_qt_inverse is not repeated here;
    suites.products compares the result with the full product.
    """
    for m in (*x.monomials(), *y.monomials()):
        _depth_bound_in_budget(alg, m, budget)
    right = [(_fundamental_order(my), py) for my, py in y.items()]
    z = YtElement.zero()
    for mx, px in x.items():
        left = _fundamental_order(mx)
        for keys, py in right:
            z.add_scaled(dominant_product(alg, left + keys, budget), px * py)
    return _peel(alg, z, budget)


# ---------------------------------------------------------------------------
# canonical basis and KL-analogue polynomials
# ---------------------------------------------------------------------------


def _dominant_closure(alg: YtAlgebra, m: Monomial, budget: Budget):
    """All dominant monomials reachable through iterated E_t expansions."""
    e_cache = {}
    queue = [m]
    seen = {m}
    while queue:
        mu = queue.pop()
        e = e_t_normalized(alg, mu, budget)
        e_cache[mu] = e
        for nu in e.dominant_part():
            if nu not in seen:
                seen.add(nu)
                queue.append(nu)
    return e_cache


def lt_and_kl(alg: YtAlgebra, m: Monomial, budget: Budget = DEFAULT_BUDGET):
    """Canonical-basis expansion of E_t(m).

    Returns (kl, lt): kl is a list of (monomial, shift, P) triples where the
    bar-invariant representative of the lower dominant monomial mu is
    t^shift * mu, and P is the KL-analogue polynomial in t^-1 Z[t^-1];
    lt maps each dominant monomial to its (representative-normalized)
    canonical element.
    """
    if not m.is_dominant():
        raise NotDominant(f"{m} is not dominant")
    e_cache = _dominant_closure(alg, m, budget)
    doms = list(e_cache)
    depth = {mu: alg.a_depth(mu, m) for mu in doms}
    if any(d is None for d in depth.values()):
        raise InternalInconsistency("dominant closure left the cone below m")
    order = sorted(doms, key=lambda mu: (-depth[mu], mu.sortkey()))  # deepest first
    nn = {mu: alg.bichar_n(mu, mu) for mu in doms}
    lhat = {}
    kl_for = {}
    for mu in order:
        fhat = t_algorithm(alg, mu, budget)
        residual = e_cache[mu] - fhat
        lowers = sorted(
            (nu for nu in doms if nu != mu and depth[nu] > depth[mu] and alg.leq(nu, mu)),
            key=lambda nu: (depth[nu], nu.sortkey()),
        )
        rows = []
        lsum = fhat  # a new element from t_algorithm, so it is summed into in place
        for nu in lowers:
            a = residual.coeff(nu)
            residual.add_scaled(lhat[nu], -a)
            diff = nn[nu] - nn[mu]
            if diff % 2:
                raise NonIntegralShift(f"odd quadratic-form gap between {nu} and {mu}")
            c = diff // 2
            alpha = a * TPoly.t_power(-c)
            neg, const, pos = alpha.split_signs()
            beta = const + pos + pos.invert_t()
            p = alpha - beta
            rows.append((nu, c, p))
            lsum.add_scaled(lhat[nu], beta * TPoly.t_power(c))
        if not residual.is_zero():
            raise InternalInconsistency(
                f"E_t({mu}) did not close over the canonical basis"
            )
        lhat[mu] = lsum
        kl_for[mu] = rows
    shift = {mu: (nn[mu] - nn[m]) // 2 for mu in doms}
    lt = {mu: lhat[mu].scale(TPoly.t_power(shift[mu])) for mu in doms}
    return kl_for[m], lt


def decomposition_t1(alg: YtAlgebra, m: Monomial, budget: Budget = DEFAULT_BUDGET):
    """Putative classical multiplicities: all P evaluated at t = 1."""
    kl, _ = lt_and_kl(alg, m, budget)
    return [(nu, p.at_one()) for nu, _, p in kl]


def positivity_report(alg: YtAlgebra, i: int, budget: Budget = DEFAULT_BUDGET):
    """Scan fundamental(i, 0) for negative coefficients."""
    f = fundamental(alg, i, 0, budget)
    offending = [(m, p) for m, p in f.items() if not p.nonnegative()]
    return {"node": i, "positive": not offending, "offending": offending}


# ---------------------------------------------------------------------------
# character trees
# ---------------------------------------------------------------------------


class CharacterTree:
    """Colored-edge view of a deformed character, mirroring the usual figures."""

    def __init__(self, root: Monomial, vertices, edges):
        self.root = root
        self.vertices = vertices  # list of Monomial
        self.edges = edges  # list of (src, dst, (i, l))


def character_tree(alg: YtAlgebra, m_plus: Monomial,
                   budget: Budget = DEFAULT_BUDGET) -> CharacterTree:
    """The character of m_plus with an edge m1 -> m2 colored (i, l) for m2 = m1 A_{i,l}^-1.

    The blocks are the lifts f_it(m) for every monomial m of the character
    and every node i where m has a Y_i factor and is i-dominant, in the
    order of the character's terms and then of the nodes.  An edge
    joins two monomials of the character in one node-i block whose
    quotient is a single A_{i,l}^-1.
    """
    result = t_algorithm(alg, m_plus, budget)
    support = set(result.monomials())
    edges = {}
    for m in result.monomials():
        for i in sorted({i for (i, _), _ in m.items()}):
            if not m.is_dominant([i]):
                continue
            members = [mm for mm in f_it(alg, i, m).monomials() if mm in support]
            for m1 in members:
                for m2 in members:
                    if m1 == m2:
                        continue
                    v = alg.factor_over_A(m2, m1)
                    if v and sum(v.values()) == 1:
                        [(key, _)] = v.items()
                        if key[0] == i:
                            edges[(m1, m2)] = key
    vertices = sorted(support, key=lambda m: m.sortkey())
    edge_list = sorted(
        ((src, dst, key) for (src, dst), key in edges.items()),
        key=lambda e: (e[0].sortkey(), e[1].sortkey()),
    )
    return CharacterTree(m_plus, vertices, edge_list)
