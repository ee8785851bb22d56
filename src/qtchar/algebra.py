"""The twisted Laurent-monomial algebra in the variables Y_{i,l}.

Elements are stored in the normal-ordered basis: a finite map from
BasisMonomial (sparse (node, level) -> exponent) to TPoly coefficients.
The noncommutative product is governed by the bicharacter N built from
series coefficients of the inverse quantized Cartan matrix; gamma, alpha
and beta are the generator-level commutation exponents.
"""

from __future__ import annotations

from operator import itemgetter

from .cartan import InvCartanSeries, SymmetrizedCartan
from .errors import NotSimplyLaced, ParseError
from .tpoly import ONE, ZERO, TPoly

_level_node = itemgetter(1, 0)  # order (node, level) keys level-major

# ---------------------------------------------------------------------------
# monomials
# ---------------------------------------------------------------------------


class Monomial:
    """Immutable sparse exponent map (node i, level l) -> nonzero integer u_{i,l}."""

    __slots__ = ("data", "_hash")

    def __init__(self, data: dict | None = None):
        self.data = tuple(sorted((k, e) for k, e in data.items() if e != 0)) if data else ()
        self._hash = hash(self.data)

    @staticmethod
    def y(i: int, l: int, e: int = 1) -> "Monomial":
        return Monomial({(i, l): e})

    @staticmethod
    def unit() -> "Monomial":
        return Monomial()

    @staticmethod
    def from_sorted(items: tuple) -> "Monomial":
        """The monomial whose data is items, already sorted and zero-free.

        The tuple is kept as it is, so a caller that also holds it as a key
        shares it with the monomial.
        """
        m = object.__new__(Monomial)
        m.data = items
        m._hash = hash(items)
        return m

    def u(self, i: int, l: int) -> int:
        return dict(self.data).get((i, l), 0)

    def items(self):
        return self.data

    def times(self, other: "Monomial") -> "Monomial":
        if not other.data:
            return self
        if not self.data:
            return other
        d = dict(self.data)
        for k, e in other.data:
            v = d.get(k, 0) + e
            if v:
                d[k] = v
            else:
                del d[k]  # v = 0 with e != 0 means k was a key of self
        return Monomial.from_sorted(tuple(sorted(d.items())))

    def shift(self, dl: int) -> "Monomial":
        # a uniform level shift keeps data sorted and zero-free
        return Monomial.from_sorted(tuple([((i, l + dl), e) for (i, l), e in self.data]))

    def degree(self) -> int:
        return sum(e for _, e in self.data)

    def is_dominant(self, nodes=None) -> bool:
        if nodes is None:
            return all(e >= 0 for _, e in self.data)
        nodes = set(nodes)
        return all(e >= 0 for (i, _), e in self.data if i in nodes)

    def is_right_negative(self) -> bool:
        """At the maximal occurring level, every exponent is negative."""
        top = max((l for (_, l), _ in self.data), default=None)
        if top is None:
            return False
        return all(e < 0 for (_, l), e in self.data if l == top)

    def sortkey(self):
        # data is sorted by (node, level), so the key is node-major:
        # Y[1,5] comes before Y[2,0]; any total order works as a tiebreak
        return self.data

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.data == other.data

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Monomial({self})"

    def __str__(self):
        if not self.data:
            return "1"
        parts = []
        for (i, l), e in self.data:
            s = f"Y[{i},{l}]"
            if e != 1:
                s += f"^{e}"
            parts.append(s)
        return " ".join(parts)


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------


class Terms:
    """Finite map Monomial -> nonzero TPoly: the free Z[t^±]-module on monomials.

    YtElement and RepElement are both such maps and differ only in their
    product.  +, -, negation and scale return new elements and never touch
    their operands; add_scaled adds into self in place, so it is only for an
    element that its caller created itself.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        d = {}
        if terms:
            for m, p in terms.items():
                p = TPoly.coerce(p)
                if not p.is_zero():
                    d[m] = p
        self.terms = d

    @classmethod
    def from_monomial(cls, m: Monomial, coeff=ONE):
        return cls({m: coeff})

    @classmethod
    def _adopt(cls, terms: dict):
        """An element that takes over terms, whose coefficients are nonzero TPolys."""
        x = object.__new__(cls)
        x.terms = terms
        return x

    def items(self):
        return self.terms.items()

    def monomials(self):
        return self.terms.keys()

    def coeff(self, m: Monomial) -> TPoly:
        return self.terms.get(m, ZERO)

    def is_zero(self) -> bool:
        return not self.terms

    def __len__(self):
        return len(self.terms)

    def add_scaled(self, other: "Terms", c=ONE) -> None:
        """self += c * other, in place; other is left unchanged."""
        if type(other) is not type(self):
            raise TypeError(f"cannot add {type(other).__name__} to {type(self).__name__}")
        c = TPoly.coerce(c)
        if not c:
            return
        d = self.terms
        for m, q in list(other.terms.items()) if other is self else other.terms.items():
            if c is not ONE:
                q = q * c
            p = d.get(m)
            if p is not None:
                q = p + q
            if q:
                d[m] = q
            else:
                del d[m]

    def __add__(self, other):
        out = self._adopt(dict(self.terms))
        out.add_scaled(other)
        return out

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._adopt({m: -p for m, p in self.terms.items()})

    def scale(self, c):
        """c * self; by ONE, a new map that shares self's coefficients, which are immutable."""
        c = TPoly.coerce(c)
        if c == ONE:
            return self._adopt(dict(self.terms))
        return self._adopt({m: p * c for m, p in self.terms.items()} if c else {})

    def __eq__(self, other):
        return type(other) is type(self) and self.terms == other.terms

    def at_one(self) -> dict:
        """Specialize t -> 1; returns Monomial -> int with zeros dropped."""
        return {m: v for m, p in self.terms.items() if (v := p.at_one())}

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda mp: mp[0].sortkey())


class YtElement(Terms):
    """An element of the twisted algebra in the normal-ordered basis."""

    __slots__ = ()

    @staticmethod
    def zero() -> "YtElement":
        return YtElement()

    @staticmethod
    def unit() -> "YtElement":
        return YtElement({Monomial.unit(): ONE})

    def shift(self, dl: int) -> "YtElement":
        return YtElement._adopt({m.shift(dl): p for m, p in self.terms.items()})

    def dominant_part(self) -> dict:
        return {m: p for m, p in self.terms.items() if m.is_dominant()}

    def __repr__(self):
        if not self.terms:
            return "YtElement(0)"
        lines = [f"({p}) {m}" for m, p in self.sorted_terms()]
        return "YtElement[" + " + ".join(lines) + "]"


# ---------------------------------------------------------------------------
# the algebra
# ---------------------------------------------------------------------------


class YtAlgebra:
    """Commutation data and products for a fixed symmetrized Cartan matrix."""

    def __init__(self, cartan: SymmetrizedCartan):
        self.cartan = cartan
        self.series = InvCartanSeries(cartan)
        self._n_pair_cache = {}
        # per node i, the Y-entries (j, level offset, exponent) of A_{i,0}^-1
        self._a_inv = {i: self._a_inv_template(i) for i in cartan.nodes()}

    # -- series lookups ------------------------------------------------

    def tilde(self, a: int, b: int, r: int) -> int:
        """Series coefficient of z^r in C~(z)_{a,b}."""
        return self.series.entry_coeff(a, b, r)

    # -- generator-level commutation exponents -------------------------

    def gamma(self, i: int, l: int, j: int, k: int) -> int:
        """Exponent g with Y_{i,l} Y_{j,k} = t^g Y_{j,k} Y_{i,l}."""
        d = l - k
        rj = self.cartan.ri(j)
        t = lambda r: self.tilde(j, i, r)
        return t(-rj - d) + t(d + rj) - t(rj - d) - t(d - rj)

    def alpha(self, i: int, l: int, j: int, k: int) -> int:
        """Commutation exponent between the A^-1 generators."""
        d = l - k
        if i == j:
            ri = self.cartan.ri(i)
            return 2 * (-(d == 2 * ri) + (d == -2 * ri))
        cij = self.cartan.c(i, j)
        if cij == 0:
            return 0
        ri = self.cartan.ri(i)
        total = 0
        for r in range(cij + 1, -cij, 2):
            total += 2 * (-(d == -ri + r) + (d == ri + r))
        return total

    def beta(self, i: int, l: int, j: int, k: int) -> int:
        """Commutation exponent of A_{i,l} past Y_{j,k}."""
        if i != j:
            return 0
        ri = self.cartan.ri(i)
        d = l - k
        return 2 * (-(d == ri) + (d == -ri))

    # -- the bicharacter ------------------------------------------------

    def n_pair(self, i: int, l: int, j: int, k: int) -> int:
        """N(Y_{i,l}, Y_{j,k}) from two series lookups; depends only on (i, j, l-k)."""
        key = (i, j, l - k)
        hit = self._n_pair_cache.get(key)
        if hit is None:
            rj = self.cartan.ri(j)
            hit = self.tilde(j, i, rj + l - k) - self.tilde(j, i, -rj + l - k)
            self._n_pair_cache[key] = hit
        return hit

    def bichar_n(self, m1: Monomial, m2: Monomial) -> int:
        """N(m1, m2): biadditive extension of n_pair to exponent maps."""
        total = 0
        for (i, l), e1 in m1.items():
            for (j, k), e2 in m2.items():
                total += e1 * e2 * self.n_pair(i, l, j, k)
        return total

    # -- products -------------------------------------------------------

    def mul(self, *elements: YtElement) -> YtElement:
        """Product in the twisted algebra: m1 * m2 = t^N(m1,m2) (m1 m2).

        The terms of each right factor are grouped once per call: a term m2
        joins the group of the latest reference n0 if it factors over it,
        m2 = n0 A^-w, and otherwise becomes the next reference, with w = {}.
        Trying only the latest reference costs one factor_over_A per term;
        the terms of a fundamental or of E_t follow their highest monomial,
        so they form one group.  C(z) C~(z) = I gives N(m1, A_{i,l}^-1) = u_{i,l+r_i}(m1) -
        u_{i,l-r_i}(m1), so N(m1, m2) = N(m1, n0) + sum_k psi_k u_k(m1), with
        psi = +w at (i, l + r_i) and -w at (i, l - r_i): one bichar_n per
        left term and group, then a few lookups per pair.  A term in a group
        of its own therefore costs one bichar_n per pair, as before.
        m1 m2 is built from a copy of m1's exponent dict, which the psi
        lookups read too.  Coefficients are summed as integer maps that
        become the result TPolys, and a map that cancels to zero is dropped.
        """
        if not elements:
            return YtElement.unit()
        acc = elements[0]
        for other in elements[1:]:
            refs, right = self._twist_groups(other)
            out = {}
            for m1, p1 in acc.terms.items():
                u1 = dict(m1.data)
                base = [self.bichar_n(m1, n0) for n0 in refs]
                c1 = p1.coeffs.items()
                for m2, g, psi, c2 in right:
                    n = base[g]
                    for k, c in psi:
                        n += c * u1.get(k, 0)
                    u = u1.copy()
                    for k, e in m2.data:
                        v = u.get(k, 0) + e
                        if v:
                            u[k] = v
                        else:
                            del u[k]  # v = 0 with e != 0 means k was a key of m1
                    key = Monomial.from_sorted(tuple(sorted(u.items())))
                    d = out.get(key)
                    if d is None:
                        d = out[key] = {}
                    for e2, b in c2:
                        s = e2 + n
                        for e1, a in c1:
                            d[e1 + s] = d.get(e1 + s, 0) + a * b
            acc = YtElement._adopt({m: p for m, d in out.items() if (p := TPoly.adopt(d))})
        return acc

    def _twist_groups(self, x: YtElement):
        """The references n0 of mul, and (m2, group, psi, coefficient items) per term."""
        r = self.cartan.r
        refs, right = [], []
        for m2, p2 in x.terms.items():
            w = self.factor_over_A(m2, refs[-1]) if refs else None
            if w is None:
                refs.append(m2)
                w = {}
            g = len(refs) - 1
            psi = {}
            for (i, l), e in w.items():
                ri = r[i - 1]
                psi[(i, l + ri)] = psi.get((i, l + ri), 0) + e
                psi[(i, l - ri)] = psi.get((i, l - ri), 0) - e
            right.append((m2, g, [kc for kc in psi.items() if kc[1]], p2.coeffs.items()))
        return refs, right

    # -- the A variables ------------------------------------------------

    def _a_inv_template(self, i: int):
        ri = self.cartan.ri(i)
        entries = [(i, -ri, -1), (i, ri, -1)]
        for j in self.cartan.nodes():
            cji = self.cartan.c(j, i)
            if j != i and cji < 0:
                entries.extend((j, s, 1) for s in range(cji + 1, -cji, 2))
        return tuple(entries)

    def a_monomial_expand(self, v: dict) -> Monomial:
        """Y-exponent map of prod A_{i,l}^-v_{i,l}; {(i, l): 1} gives A_{i,l}^-1.

        Each such map is already normal ordered, so YtElement.from_monomial
        makes it an element.
        """
        d = {}
        for (i, l), e in v.items():
            for j, dl, de in self._a_inv[i]:
                key = (j, l + dl)
                d[key] = d.get(key, 0) + e * de
        return Monomial.from_sorted(tuple(sorted([kv for kv in d.items() if kv[1]])))

    def factor_over_A(self, m: Monomial, base: Monomial):
        """Unique v >= 0 with m = base * prod A_{i,l}^-v_{i,l}, or None.

        Peels the forced exponent at the lowest uncancelled level: the
        unique lowest Y-entry of A_{i,l}^-1 is (i, l - r_i) with exponent
        -1, and every A used must keep all its entries at or below the
        highest level of the discrepancy.
        """
        cur = dict(m.data)
        for key, e in base.data:
            nv = cur.get(key, 0) - e
            if nv:
                cur[key] = nv
            else:
                del cur[key]
        if not cur:
            return {}
        lmax = max(l for _, l in cur)
        r = self.cartan.r
        templates = self._a_inv
        v = {}
        while cur:
            (i, l0) = min(cur, key=_level_node)
            e = cur[(i, l0)]
            if e > 0:
                return None
            ri = r[i - 1]
            l = l0 + ri
            if l + ri > lmax:
                return None
            v[(i, l)] = v.get((i, l), 0) - e
            for j, dl, de in templates[i]:  # remove (-e) copies of A_{i,l}^-1
                key = (j, l + dl)
                nv = cur.get(key, 0) + e * de
                if nv:
                    cur[key] = nv
                else:
                    del cur[key]
        return v

    def a_depth(self, m: Monomial, base: Monomial):
        v = self.factor_over_A(m, base)
        return None if v is None else sum(v.values())

    def depth_bound(self, m_plus: Monomial) -> int:
        """Largest A-depth below m_plus: ht(lambda - w0 lambda) = 2 <lambda, rho^v>.

        lambda = wt(m_plus); every monomial of a character with highest
        weight lambda has weight at least w0 lambda (Frenkel-Mukhin).  For
        any m, dominant or not, the value is 2<wt(m), rho^v>, which each
        A_{i,l}^-1 lowers by exactly 2.  ParseError for a node outside 1..n.
        """
        self.within_rank(m_plus)
        twice = self.cartan.double_heights
        return sum(twice[i - 1] * e for (i, _), e in m_plus.items())

    def within_rank(self, m: Monomial) -> Monomial:
        """m itself, once every node in it is a node of this algebra; else ParseError."""
        for (i, _), _e in m.items():
            if i not in self.cartan.nodes():
                raise ParseError(f"node {i} outside rank-{self.cartan.n} algebra")
        return m

    def leq(self, m: Monomial, mp: Monomial) -> bool:
        """m <= m' in the partial order generated by the A_{i,l}^-1."""
        return self.factor_over_A(m, mp) is not None

    # -- bar involution -------------------------------------------------

    def bar(self, x: YtElement) -> YtElement:
        """t -> t^-1, antimultiplicative; fixes every A_{i,l}^-1."""
        return YtElement._adopt(
            {m: p.invert_t() * TPoly.t_power(self.bichar_n(m, m)) for m, p in x.terms.items()}
        )

    # -- word bookkeeping ----------------------------------------------

    def _word_twist(self, word) -> int:
        total = 0
        for a in range(len(word)):
            ia, la, ea = word[a]
            for b in range(a + 1, len(word)):
                ib, lb, eb = word[b]
                total += ea * eb * self.n_pair(ia, la, ib, lb)
        return total

    def nt_exponent(self, word) -> int:
        """Twist of an ordered generator word against its level-sorted form."""
        word = [tuple(g) for g in word]
        sorted_word = sorted(word, key=lambda g: g[1])  # stable in level
        return self._word_twist(word) - self._word_twist(sorted_word)

    def nt_bichar(self, m1: Monomial, m2: Monomial) -> int:
        """Antisymmetrized level-ordered bicharacter on exponent maps: the sum
        over Y_{i,l}^e1 in m1 and Y_{j,k}^e2 in m2 with k < l of
        e1 e2 (N(Y_{i,l}, Y_{j,k}) - N(Y_{j,k}, Y_{i,l}))."""
        total = 0
        for (i, l), e1 in m1.items():
            for (j, k), e2 in m2.items():
                if k < l:
                    total += e1 * e2 * (self.n_pair(i, l, j, k) - self.n_pair(j, k, i, l))
        return total

    # -- simply-laced extras --------------------------------------------

    def _require_ade(self):
        if not self.cartan.is_simply_laced():
            raise NotSimplyLaced("operation requires an ADE Cartan matrix")

    def d_bicharacter(self, y1: dict, v1: dict, y2: dict, v2: dict) -> int:
        """The correction bicharacter d on (y, v)-presented monomials (ADE only)."""
        self._require_ade()

        def u(y, v, i, l):
            total = y.get((i, l), 0) - v.get((i, l - 1), 0) - v.get((i, l + 1), 0)
            for j in self.cartan.nodes():
                if j != i and self.cartan.c(i, j) == -1:
                    total += v.get((j, l), 0)
            return total

        keys = set()
        for src in (y1, v1, y2, v2):
            keys.update(src)
        grid = {(i, l) for i, l in keys}
        grid |= {(i, l - 1) for i, l in keys} | {(i, l + 1) for i, l in keys}
        total = 0
        for i, l in grid:
            total += v1.get((i, l + 1), 0) * u(y2, v2, i, l)
            total += y1.get((i, l + 1), 0) * v2.get((i, l), 0)
        return total

    def vv_epsilon(self, i: int, l: int, j: int, k: int) -> int:
        """Geometric pairing coefficient (ADE only)."""
        self._require_ade()
        return self.tilde(i, j, l + 1 - k)

    def vv_epsilon_prime(self, i: int, l: int, j: int, k: int) -> int:
        self._require_ade()
        return self.tilde(i, j, l - 1 - k)
