"""Classical (undeformed) character algorithm, kept as an oracle.

Everything here is commutative with integer coefficients: rank-1 characters
come from expanding products of (Y_l + Y_{l+2}^-1), node lifts relabel
A-string levels directly, and the frontier recursion mirrors the classical
monomial-expansion algorithm.  No code path below touches TPoly or the
twisted product.  The heap is ordered by 2<wt(m_plus) - wt(m), rho^v>,
twice the A-depth of m, read from the heights alone.  It is not independent
of the engine: the lifts use YtAlgebra.a_monomial_expand, so a wrong
A-template reaches both sides alike (ROADMAP item 13).
"""

from __future__ import annotations

import heapq

from .algebra import Monomial, YtAlgebra
from .errors import (
    AlgorithmFails,
    BudgetExceeded,
    InternalInconsistency,
    NotDominant,
    NotIDominant,
)

# commutative characters: dict Monomial -> int


def cc_add(a: dict, b: dict, factor: int = 1) -> dict:
    d = dict(a)
    for m, c in b.items():
        v = d.get(m, 0) + factor * c
        if v:
            d[m] = v
        elif m in d:
            del d[m]
    return d


def cc_mul(a: dict, b: dict) -> dict:
    d = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            key = m1.times(m2)
            v = d.get(key, 0) + c1 * c2
            if v:
                d[key] = v
            elif key in d:
                del d[key]
    return d


def _sl2_counts(m: Monomial) -> dict:
    counts = {}
    for (i, l), e in m.items():
        if i != 1:
            raise ValueError("rank-1 monomial expected")
        if e < 0:
            raise NotDominant(f"negative exponent at level {l}")
        counts[l] = e
    return counts


def sl2_classical_e(m: Monomial) -> dict:
    """Product of classical rank-1 fundamentals Y_l + Y_{l+2}^-1."""
    counts = _sl2_counts(m)
    total = {Monomial.unit(): 1}
    for l, u in sorted(counts.items()):
        factor = {
            Monomial.y(1, l): 1,
            Monomial.y(1, l + 2, -1): 1,
        }
        for _ in range(u):
            total = cc_mul(total, factor)
    return total


# dominant rank-1 monomial -> sl2_classical_f of it; the oracle's own table,
# shared with nothing in the t-algorithm
_SL2_F = {}


def sl2_classical_f(m: Monomial) -> dict:
    """Classical rank-1 character with m as unique dominant monomial."""
    hit = _SL2_F.get(m)
    if hit is not None:
        return hit
    e = sl2_classical_e(m)
    out = dict(e)
    for mu, lam in e.items():
        if mu != m and mu.is_dominant():
            out = cc_add(out, sl2_classical_f(mu), -lam)
    _SL2_F[m] = out
    return out


def _sl2_factor(mu: Monomial, mk: Monomial):
    """A-string exponents v with mu = mk * prod A_l^-v_l, solved level by level."""
    levels = set()
    for (_, l), _e in mu.items():
        levels.add(l)
    for (_, l), _e in mk.items():
        levels.add(l)
    if not levels:
        return {}
    lo, hi = min(levels), max(levels)
    v = {}
    for l in range(lo - 1, hi + 2):
        # u_l(mu) = u_l(mk) - v_{l-1} - v_{l+1}
        v[l + 1] = mk.u(1, l) - mu.u(1, l) - v.get(l - 1, 0)
        if v[l + 1] < 0:
            raise InternalInconsistency(f"{mu} does not lie under {mk}")
    return {l: e for l, e in v.items() if e}


def classical_f_i(alg: YtAlgebra, i: int, m: Monomial) -> dict:
    """Classical node-i lift: relabel rank-1 A-strings per residue class."""
    if not m.is_dominant([i]):
        raise NotIDominant(f"{m} is not dominant for node {i}")
    ri = alg.cartan.ri(i)
    shadows = {}
    for (j, l), u in m.items():
        if j == i:
            k = l % ri
            shadows.setdefault(k, {})[(1, (l - k) // ri)] = u
    total = {m: 1}
    for k, d in sorted(shadows.items()):
        mk = Monomial(d)
        lift = {}
        for mu, lam in sl2_classical_f(mk).items():
            v = _sl2_factor(mu, mk)
            target = alg.a_monomial_expand({(i, k + lv * ri): e for lv, e in v.items()})
            lift[target] = lift.get(target, 0) + lam
        total = cc_mul(total, lift)
    return total


def classical_algorithm(alg: YtAlgebra, m_plus: Monomial,
                        max_monomials: int = 200000) -> dict:
    """Classical monomial-expansion algorithm (integer coefficients)."""
    if not m_plus.is_dominant():
        raise NotDominant(f"seed {m_plus} is not dominant")
    nodes = list(alg.cartan.nodes())
    # each A_{i,l}^-1 lowers 2<wt, rho^v> by 2
    h2 = alg.cartan.double_heights
    top = sum(h2[i - 1] * e for (i, _), e in m_plus.items())
    acc = {i: {} for i in nodes}
    s = {}
    heap = [(0, m_plus.sortkey(), m_plus)]
    seen = {m_plus}
    while heap:
        depth2, _, m = heapq.heappop(heap)
        si = {i: acc[i].pop(m, 0) for i in nodes}
        if m == m_plus:
            sm = 1
        elif m.is_dominant():
            sm = 0
        else:
            vals = [si[i] for i in nodes if not m.is_dominant([i])]
            for v in vals[1:]:
                if v != vals[0]:
                    raise AlgorithmFails(f"classical node values disagree at {m}")
            sm = vals[0]
        if sm:
            s[m] = sm
        for i in nodes:
            if not m.is_dominant([i]):
                continue
            mu_i = sm - si[i]
            if not mu_i:
                continue
            for mr, coeff in classical_f_i(alg, i, m).items():
                if mr == m:
                    continue
                v = acc[i].get(mr, 0) + mu_i * coeff
                if v:
                    acc[i][mr] = v
                elif mr in acc[i]:
                    del acc[i][mr]
                if mr not in seen:
                    seen.add(mr)
                    if len(seen) > max_monomials:
                        raise BudgetExceeded("classical frontier outgrew budget")
                    mr_depth2 = top - sum(h2[j - 1] * e for (j, _), e in mr.items())
                    if mr_depth2 <= depth2:
                        raise InternalInconsistency(f"classical lift {mr} is not below {m}")
                    heapq.heappush(heap, (mr_depth2, mr.sortkey(), mr))
    return s
