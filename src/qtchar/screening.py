"""Deformed screening operators and their kernels.

s_it maps an element to its components, one per canonical index of the
screening-current window; the kernel elements e_it and f_it generate the
node-i kernel, f_it being the unique kernel element whose only i-dominant
monomial is m.
ft_sl2 holds the rank-1 f_it in A-string form, built from the segment
strings with the local twist and no twisted product; lift_it lifts it to
node i with the same local twist, once per algebra and level-shift class of
the node-i exponents.
"""

from __future__ import annotations

import weakref

from .algebra import Monomial, YtAlgebra, YtElement
from .errors import InternalInconsistency, NotIDominant
from .sl2 import decompose_segments, sl2_algebra
from .tpoly import ONE, ZERO, TPoly


def _sigma(u: int) -> TPoly:
    """(t^{2u} - 1)/(t^2 - 1) in closed form; a Laurent polynomial for every u."""
    if u > 0:
        return TPoly({2 * s: 1 for s in range(u)})
    return TPoly({-2 * s: -1 for s in range(1, -u + 1)})


def s_it(alg: YtAlgebra, i: int, x: YtElement) -> dict:
    """Apply the node-i deformed screening operator.

    The result maps each canonical index l in [-r_i, r_i) to its component,
    a YtElement.  An entry Y_{i,l}^u of a term p m moves into the window,
    l = ll + 2 r_i q, through q twisted products with t^s A_{i,c}^s, s the
    sign of q, c = l - s r_i (2k + 1) for k < |q|; ll gets p sigma(u) t^n y,
    y = m times that A-string.  As C(z) C~(z) = I, N(m, A_{i,c}^-1) =
    u_{i,c+r_i}(m) - u_{i,c-r_i}(m) and N(A_{i,c}^-1, A_{i,c'}^-1) = [c = c'
    - 2 r_i] - [c = c' + 2 r_i].  So each step adds s to n, the N against m
    telescope to u_{i,ll}(m) - u, and each step after the first meets the A
    of the one before, adding -s: n = s + u_{i,ll}(m) - u, 0 when q = 0.
    """
    ri = alg.cartan.ri(i)
    out = {l: YtElement.zero() for l in range(-ri, ri)}
    for m, p in x.items():
        for (j, l), u in m.items():
            if j == i:
                q, ll = divmod(l + ri, 2 * ri)
                ll, s = ll - ri, (q > 0) - (q < 0)
                a = {(i, l - s * ri * (2 * k + 1)): -s for k in range(abs(q))}
                y = m.times(alg.a_monomial_expand(a)) if q else m
                n = s + m.u(i, ll) - u
                out[ll].add_scaled(YtElement.from_monomial(y, p * _sigma(u) * TPoly.t_power(n)))
    return out


def in_kernel(alg: YtAlgebra, i: int, x: YtElement) -> bool:
    return all(v.is_zero() for v in s_it(alg, i, x).values())


def in_kernel_all(alg: YtAlgebra, x: YtElement) -> bool:
    return all(in_kernel(alg, i, x) for i in alg.cartan.nodes())


def _check_i_dominant(i: int, m: Monomial):
    if not m.is_dominant([i]):
        raise NotIDominant(f"{m} is not dominant for node {i}")


def e_it(alg: YtAlgebra, i: int, m: Monomial) -> YtElement:
    """Ordered product of node-i kernel generators and spectator variables."""
    _check_i_dominant(i, m)
    ri = alg.cartan.ri(i)
    acc = YtElement.unit()
    for l in sorted({l for (_, l), _ in m.items()}):
        ui = m.u(i, l)
        if ui:
            a_inv = alg.a_monomial_expand({(i, l + ri): 1})
            bracket = YtElement.unit() + YtElement.from_monomial(a_inv, TPoly.t_power(1))
            factor = alg.mul(YtElement.from_monomial(Monomial.y(i, l)), bracket)
            for _ in range(ui):
                acc = alg.mul(acc, factor)
        for j in alg.cartan.nodes():
            if j != i:
                uj = m.u(j, l)
                if uj:
                    acc = alg.mul(acc, YtElement.from_monomial(Monomial.y(j, l, uj)))
    return acc


def _n_y_a(y: dict, v) -> int:
    """Rank-1 N(Y^y, A^-v), v as (level, exponent) pairs.  C(z) C~(z) = I makes
    N(Y_k, A_l^-1) +1 at k = l + 1, -1 at k = l - 1 and 0 elsewhere; N is antisymmetric."""
    return sum(e * (y.get(l + 1, 0) - y.get(l - 1, 0)) for l, e in v)


def _n_a_a(w: dict, v) -> int:
    """Rank-1 N(A^-w, A^-v), v as (level, exponent) pairs: N(A_k^-1, A_l^-1) is
    +1 at k = l - 2, -1 at k = l + 2 and 0 elsewhere."""
    return sum(e * (w.get(l - 2, 0) - w.get(l + 2, 0)) for l, e in v)


def _plus(w: tuple, v: tuple) -> tuple:
    """The sum of two A-exponent maps given as (level, exponent) pairs, as sorted pairs."""
    d = dict(w)
    for l, e in v:
        d[l] = d.get(l, 0) + e
    return tuple(sorted(d.items()))


# dominant rank-1 monomial -> its deformed character in A-string form: one
# (v, lam) per term lam * m A^-v, v a tuple of (level, exponent).  Every
# rank-1 algebra has the Cartan matrix [[2]], so one table serves them all,
# and every node and residue class whose shadow is m shares the entry;
# _build_lift keys it by shadows whose lowest level is 0.
_FT_SL2 = {}


def ft_sl2(alg: YtAlgebra, m: Monomial) -> list:
    """Rank-1 deformed character with m as unique dominant monomial, as A-strings.

    alg must have rank 1.  A segment s = [a, top] of m has the character
    sum_j s A^-v_j, j = 0 .. count, with v_j the A^-1 at top + 1, top - 1,
    ..., top + 3 - 2j and every coefficient 1 (the t^j of a string cancels
    the t^(1-j) among its own factors and the t^-1 against s).  The product
    of the segment characters of decompose_segments(m), in that order and
    with leading coefficient 1, is in the kernel.  Its twist is local: if y
    is the product of the segments before s, the term y A^-w times s A^-v_j
    gets t^n, n = N(y, A^-v_j) - N(s, A^-w) + N(A^-w, A^-v_j), once the
    N(y, s) common to all terms is normalized away.  Subtracting lam times
    the entry of mu = m A^-w, shifted by w, for each lower dominant term
    lam * mu leaves m as the only dominant monomial; a regular m has no such
    term.  Those entries come from this table, so the subtraction recurses
    through it.
    """
    if alg.cartan.n != 1:
        raise ValueError("ft_sl2 needs a rank-1 algebra")
    strings = _FT_SL2.get(m)
    if strings is None:
        _check_i_dominant(1, m)
        terms = {(): {0: 1}}  # w as sorted (level, exponent) pairs -> {t-exponent: integer}
        y = {}  # level -> exponent of the segments combined so far
        for seg in decompose_segments(m):
            s = {l: 1 for l in seg}
            top = seg[-1]
            v_js = [tuple((l, 1) for l in range(top + 3 - 2 * j, top + 2, 2))
                    for j in range(len(seg) + 1)]
            out = {}
            for w, p in terms.items():
                wd = dict(w)
                n0 = -_n_y_a(s, w)
                for v in v_js:
                    n = n0 + _n_y_a(y, v) + _n_a_a(wd, v)
                    d = out.setdefault(_plus(w, v), {})
                    for e, c in p.items():
                        d[e + n] = d.get(e + n, 0) + c
            terms = out
            for l in s:
                y[l] = y.get(l, 0) + 1
        for w, p in list(terms.items()):  # subtraction adds no dominant term
            u = dict(y)  # m A^-w, as A_l^-1 = Y_{l-1}^-1 Y_{l+1}^-1
            for l, e in w:
                u[l - 1] = u.get(l - 1, 0) - e
                u[l + 1] = u.get(l + 1, 0) - e
            if not w or min(u.values()) < 0:
                continue
            mu = Monomial.from_sorted(tuple(((1, l), e) for l, e in sorted(u.items()) if e))
            p = list(p.items())  # its own entry's v = () cancels it
            for v, lam in ft_sl2(alg, mu):
                d = terms.setdefault(_plus(w, v), {})
                for e1, c1 in p:
                    for e2, c2 in lam.coeffs.items():
                        d[e1 + e2] = d.get(e1 + e2, 0) - c1 * c2
        strings = [(w, lam) for w, p in terms.items() if (lam := TPoly.adopt(p))]
        _FT_SL2[m] = strings
    return strings


def _build_lift(alg: YtAlgebra, i: int, pairs, caller: Monomial) -> list:
    """The terms of f_it(m) other than m: (Y-delta, sum W, coefficient items) per m A^-W.

    pairs are the node-i (level, exponent) pairs of an i-dominant m, in
    level order.  They fall into the residue classes l mod r_i, taken in
    the order of each class's first level.  A class with lowest level l0
    has the shadow mk, the rank-1 monomial with Y_{1,(l - l0) / r_i} ^
    exponent per pair, so every shadow has lowest level 0.  The lift is the
    product over the classes of the rank-1 characters ft_sl2(mk), each term
    lam * mk A^-v relabelled back to node i as A^-W, W = {(i, l0 + level *
    r_i): exponent} over v.
    The twist is local in the A variables: C(z) C~(z) = I gives
    N(Y_{j,k}, A_{i,l}^-1) = +1 at (j, k) = (i, l + r_i), -1 at (i, l - r_i)
    and 0 otherwise.  Hence N(A_{i,k}^-1, A_{i,l}^-1) is nonzero only at
    |k - l| = 2 r_i, so the factors of different classes multiply
    untwisted, and the twist N(m, A^-W) = sum_l W_l (u_i(l + r_i) -
    u_i(l - r_i)) of each term equals the rank-1 N(mk, A^-v) and cancels.
    Each term m A^-W therefore has coefficient prod lam, with no twisted
    product or bicharacter lookup.  The term W = {} is m itself; its
    coefficient must be 1, else InternalInconsistency names caller, and it
    is left out.  The rest are returned as the Y-exponents of A^-W (so the
    term is m times them), the A-depth sum W, and the coefficient's
    (t-exponent, integer) items.
    """
    ri = alg.cartan.ri(i)
    s2 = sl2_algebra()
    classes = {}
    for l, u in pairs:
        classes.setdefault(l % ri, []).append((l, u))
    terms = [({}, ONE)]
    for members in classes.values():
        l0 = members[0][0]
        mk = Monomial.from_sorted(tuple([((1, (l - l0) // ri), u) for l, u in members]))
        strings = [({(i, l0 + lv * ri): e for lv, e in v}, lam) for v, lam in ft_sl2(s2, mk)]
        terms = [({**w, **wk}, p * lam) for w, p in terms for wk, lam in strings]
    lift, lead = [], ZERO
    for w, p in terms:
        if w:
            lift.append((alg.a_monomial_expand(w), sum(w.values()), tuple(p.coeffs.items())))
        else:
            lead = p
    if lead != ONE:
        raise InternalInconsistency(f"lift of {caller} at node {i} has leading coefficient {lead}")
    return lift


# algebra -> ({(i, node-i (level, exponent) pairs less their lowest level):
# (Y-delta data, sum W, coefficient items) per lift term}, {value: itself},
# which stores each (key, exponent) pair and coefficient tuple once); an
# entry lives as long as its algebra
_LIFTS = weakref.WeakKeyDictionary()


def lift_it(alg: YtAlgebra, i: int, m: Monomial) -> tuple:
    """The terms of f_it(m) other than m, as (terms, lo): each term as
    _build_lift returns it, but with its Y-delta as data at level 0, which
    lo levels up is the delta of m.

    The algebra is unchanged by a uniform level shift Y_{j,l} -> Y_{j,l+s}:
    N(Y_{i,l}, Y_{j,k}) depends only on l - k, and A_{i,l} moves with the
    shift.  So the lift depends only on the node-i exponents of m up to
    such a shift.  It is built once per algebra and shift class, on the
    node-i part moved down to level 0, and every lift_it returns the stored
    terms with lo, the part's lowest level; the caller shifts them up, so
    no monomial is made per call.  The terms are the table's own list,
    which the caller must not change.
    """
    pairs = [(l, u) for (j, l), u in m.data if j == i]
    lo = pairs[0][0] if pairs else 0
    key = (i, tuple([(l - lo, u) for l, u in pairs]))
    table, shared = _LIFTS.get(alg) or _LIFTS.setdefault(alg, ({}, {}))
    lift = table.get(key)
    if lift is None:
        lift = table[key] = [
            (tuple([shared.setdefault(kv, kv) for kv in dl.data]), dw, shared.setdefault(c, c))
            for dl, dw, c in _build_lift(alg, i, key[1], m)]
    return lift, lo


def f_it(alg: YtAlgebra, i: int, m: Monomial) -> YtElement:
    """Kernel element with m as its unique i-dominant monomial: m plus the terms of lift_it."""
    _check_i_dominant(i, m)
    lift, lo = lift_it(alg, i, m)
    terms = {m.times(Monomial.from_sorted(data).shift(lo)): TPoly(dict(coeff))
             for data, _, coeff in lift}
    return YtElement({m: ONE, **terms})


def i_dominant_part(x: YtElement, i: int) -> dict:
    return {m: p for m, p in x.items() if m.is_dominant([i])}
