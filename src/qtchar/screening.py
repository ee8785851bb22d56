"""Deformed screening operators and their kernels.

s_it maps an element to a vector over the canonical screening-current
window; the kernel elements e_it and f_it generate the node-i kernel, f_it
being the unique kernel element whose only i-dominant monomial is m.
"""

from __future__ import annotations

from .algebra import Monomial, YtAlgebra, YtElement
from .errors import InternalInconsistency, NotIDominant
from .sl2 import _normalize_leading, sl2_algebra
from .tpoly import ONE, ZERO, TPoly


class ScreeningVector:
    """Element of the free module over node i: canonical index l in [-r_i, r_i)."""

    __slots__ = ("i", "ri", "comps")

    def __init__(self, i: int, ri: int):
        self.i = i
        self.ri = ri
        self.comps = {l: YtElement.zero() for l in range(-ri, ri)}

    def add(self, l: int, elem: YtElement):
        if not (-self.ri <= l < self.ri):
            raise ValueError(f"index {l} outside canonical window")
        self.comps[l].add_scaled(elem)

    def component(self, l: int) -> YtElement:
        return self.comps[l]

    def is_zero(self) -> bool:
        return all(v.is_zero() for v in self.comps.values())

    def __eq__(self, other):
        return (
            isinstance(other, ScreeningVector)
            and (self.i, self.ri) == (other.i, other.ri)
            and self.comps == other.comps
        )

    def __repr__(self):
        parts = [f"{l}: {v!r}" for l, v in sorted(self.comps.items()) if not v.is_zero()]
        return f"ScreeningVector(i={self.i}, " + ("0" if not parts else "; ".join(parts)) + ")"


def _sigma(u: int) -> TPoly:
    """(t^{2u} - 1)/(t^2 - 1) in closed form; a Laurent polynomial for every u."""
    if u == 0:
        return TPoly.zero()
    if u > 0:
        return TPoly({2 * s: 1 for s in range(u)})
    return TPoly({-2 * s: -1 for s in range(1, -u + 1)})


def s_it(alg: YtAlgebra, i: int, x: YtElement) -> ScreeningVector:
    """Apply the node-i deformed screening operator."""
    ri = alg.cartan.ri(i)
    out = ScreeningVector(i, ri)
    for m, p in x.items():
        for (j, l), u in m.items():
            if j != i or u == 0:
                continue
            coeff = YtElement.from_monomial(m, p * _sigma(u))
            ll = l
            # reduce the current index into the canonical window, absorbing
            # the A factors into the left coefficient
            while ll >= ri:
                step = alg.a_elem(i, ll - ri).scale(TPoly.t_power(1))
                coeff = alg.mul(coeff, step)
                ll -= 2 * ri
            while ll < -ri:
                step = alg.a_inv_elem(i, ll + ri).scale(TPoly.t_power(-1))
                coeff = alg.mul(coeff, step)
                ll += 2 * ri
            out.add(ll, coeff)
    return out


def in_kernel(alg: YtAlgebra, i: int, x: YtElement) -> bool:
    return s_it(alg, i, x).is_zero()


def in_kernel_all(alg: YtAlgebra, x: YtElement) -> bool:
    return all(in_kernel(alg, i, x) for i in alg.cartan.nodes())


def _check_i_dominant(alg: YtAlgebra, i: int, m: Monomial):
    if not m.is_dominant([i]):
        raise NotIDominant(f"{m} is not dominant for node {i}")


def e_it(alg: YtAlgebra, i: int, m: Monomial) -> YtElement:
    """Ordered product of node-i kernel generators and spectator variables."""
    _check_i_dominant(alg, i, m)
    ri = alg.cartan.ri(i)
    acc = YtElement.unit()
    for l in m.levels():
        ui = m.u(i, l)
        if ui:
            bracket = YtElement.unit() + alg.a_inv_elem(i, l + ri).scale(TPoly.t_power(1))
            factor = alg.mul(YtElement.from_monomial(Monomial.y(i, l)), bracket)
            for _ in range(ui):
                acc = alg.mul(acc, factor)
        for j in alg.cartan.nodes():
            if j != i:
                uj = m.u(j, l)
                if uj:
                    acc = alg.mul(acc, YtElement.from_monomial(Monomial.y(j, l, uj)))
    return acc


def _residue_shadows(alg: YtAlgebra, i: int, m: Monomial):
    """Split the node-i exponents of m into rank-1 shadows per residue class.

    Class k = l mod r_i maps to its shadow, the rank-1 monomial with
    Y_{1,level} ^ exponent per Y_{i,l}, at level (l - k) / r_i.
    """
    ri = alg.cartan.ri(i)
    shadows = {}
    for (j, l), u in m.data:
        if j == i:
            k = l % ri
            shadows.setdefault(k, []).append(((1, (l - k) // ri), u))
    # m is level-sorted, so each shadow is too
    return {k: Monomial.from_sorted(tuple(s)) for k, s in shadows.items()}


# dominant rank-1 monomial -> its deformed character in A-string form: one
# (v, lam) per term lam * m A^-v, v a tuple of (level, exponent).  Every
# rank-1 algebra has the Cartan matrix [[2]], so one table serves them all,
# and every node and residue class whose shadow is m shares the entry.
_FT_SL2 = {}


def ft_sl2(alg: YtAlgebra, m: Monomial) -> list:
    """Rank-1 deformed character with m as unique dominant monomial, as A-strings.

    alg must have rank 1.  E_t(m), normalized to leading coefficient 1, is in
    the kernel; subtracting lam * f_it(mu) for each lower dominant term
    lam * mu leaves m as its only dominant monomial.  The f_it(mu) come from
    this table, so the triangular subtraction recurses through it.
    """
    if alg.cartan.n != 1:
        raise ValueError("ft_sl2 needs a rank-1 algebra")
    strings = _FT_SL2.get(m)
    if strings is None:
        out = _normalize_leading(e_it(alg, 1, m), m)  # a new element: subtract in place
        for mu, lam in out.dominant_part().items():
            if mu != m:
                out.add_scaled(f_it(alg, 1, mu), -lam)
        strings = []
        for mu, lam in out.items():
            v = alg.factor_over_A(mu, m)
            if v is None:
                raise NotIDominant(f"rank-1 character term {mu} does not factor over {m}")
            strings.append((tuple((lv, e) for (_, lv), e in v.items()), lam))
        _FT_SL2[m] = strings
    return strings


def lift_it(alg: YtAlgebra, i: int, m: Monomial) -> list:
    """The terms of f_it(m) other than m: (Y-delta, sum W, coefficient items) per m A^-W.

    m must be i-dominant.  The lift is the product over the residue shadows
    mk of m (its node-i exponents on the levels k mod r_i) of the rank-1
    characters ft_sl2(mk), each term lam * mk A^-v relabelled back to node i
    as A^-W, W = {(i, k + level * r_i): exponent} over v.  The twist is
    local in the A variables: C(z) C~(z) = I gives N(Y_{j,k}, A_{i,l}^-1) =
    +1 at (j, k) = (i, l + r_i), -1 at (i, l - r_i) and 0 otherwise.  Hence
    N(A_{i,k}^-1, A_{i,l}^-1) is nonzero only at |k - l| = 2 r_i, so the
    factors of different classes multiply untwisted, and the twist
    N(m, A^-W) = sum_l W_l (u_i(l + r_i) - u_i(l - r_i)) of each term equals
    the rank-1 N(mk, A^-v) and cancels.  Each term m A^-W therefore has
    coefficient prod lam, with no twisted product or bicharacter lookup.
    The term W = {} is m itself; its coefficient must be 1, and it is left
    out.  The rest are returned as the Y-exponents of A^-W (so the term is
    m times them), the A-depth sum W, and the coefficient's (t-exponent,
    integer) items.  The result depends only on the node-i exponents of m.
    """
    ri = alg.cartan.ri(i)
    s2 = sl2_algebra()
    terms = [({}, ONE)]
    for k, mk in _residue_shadows(alg, i, m).items():
        strings = [({(i, k + lv * ri): e for lv, e in v}, lam) for v, lam in ft_sl2(s2, mk)]
        terms = [({**w, **wk}, p * lam) for w, p in terms for wk, lam in strings]
    lift, lead = [], ZERO
    for w, p in terms:
        if w:
            lift.append((alg.a_monomial_expand(w), sum(w.values()), tuple(p.coeffs.items())))
        else:
            lead = p
    if lead != ONE:
        raise InternalInconsistency(f"lift of {m} at node {i} has leading coefficient {lead}")
    return lift


def f_it(alg: YtAlgebra, i: int, m: Monomial) -> YtElement:
    """Kernel element with m as its unique i-dominant monomial: m plus the terms of lift_it."""
    _check_i_dominant(alg, i, m)
    terms = {m.times(delta): TPoly(dict(coeff)) for delta, _, coeff in lift_it(alg, i, m)}
    return YtElement({m: ONE, **terms})


def i_dominant_part(x: YtElement, i: int) -> dict:
    return {m: p for m, p in x.items() if m.is_dominant([i])}
